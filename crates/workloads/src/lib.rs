//! The benchmark suite: ten Jive programs standing in for the paper's
//! SPECjvm98 (input size 10), `opt-compiler`, pBOB and VolanoMark suite
//! (§4.1).
//!
//! The originals are unavailable (and would need a JVM); each stand-in is
//! written to match the *instrumentation-relevant shape* of its namesake,
//! which is what the paper's per-benchmark columns measure:
//!
//! | name           | character                                        | expects |
//! |----------------|--------------------------------------------------|---------|
//! | `compress`     | tight compression loop, very field-dense         | highest field-access overhead, high backedge-check overhead |
//! | `jess`         | rule engine, many tiny method calls              | highest-tier call-edge overhead |
//! | `db`           | chunky array scans per operation                 | low overhead everywhere |
//! | `javac`        | recursive-descent compiler, many distinct edges  | call-dense; the Figure 7 profile |
//! | `mpegaudio`    | numeric kernels calling small helpers in loops   | high call *and* field overhead, high backedge-check overhead |
//! | `mtrt`         | ray tracer, vector-method calls                  | call-dense, moderate fields |
//! | `jack`         | parser generator, field-heavy state machine      | field-dense, moderate calls |
//! | `opt_compiler` | visitor over an IR tree, virtual dispatch        | highest call-edge overhead |
//! | `pbob`         | multi-threaded transaction benchmark             | moderate calls, exercises per-thread counters |
//! | `volano`       | multi-threaded chat rooms, array message traffic | low field, moderate call |
//!
//! Every program is deterministic (seeded in-language LCG) and prints a
//! final checksum, so instrumented and transformed runs can be checked for
//! semantic equivalence.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod programs;

use isf_ir::Module;

/// How big a run should be. The same program text is generated with
/// different iteration counts.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Tiny runs for unit tests (≈10⁵ simulated cycles).
    Smoke,
    /// The default for the experiment harness (≈10⁶–10⁷ cycles).
    Default,
    /// Larger runs for the published tables (≈10⁸ cycles, ~10⁵ checks per
    /// benchmark); use with release builds.
    Paper,
}

impl Scale {
    /// The iteration multiplier applied to each program's base size.
    pub fn factor(self) -> u64 {
        match self {
            Scale::Smoke => 1,
            Scale::Default => 12,
            Scale::Paper => 400,
        }
    }
}

/// One benchmark program.
#[derive(Clone, Debug)]
pub struct Workload {
    name: &'static str,
    description: &'static str,
    multithreaded: bool,
    source: String,
}

impl Workload {
    /// The benchmark's name (paper spelling, `_` for `-`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// One-line description of the workload's character.
    pub fn description(&self) -> &'static str {
        self.description
    }

    /// Whether the program spawns threads.
    pub fn is_multithreaded(&self) -> bool {
        self.multithreaded
    }

    /// The generated Jive source.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Compiles the program.
    ///
    /// # Panics
    ///
    /// Panics if the generated source fails to compile — the sources are
    /// fixed templates, so that is a bug in this crate.
    pub fn compile(&self) -> Module {
        isf_frontend::compile(&self.source)
            .unwrap_or_else(|e| panic!("workload `{}` failed to compile: {e}", self.name))
    }
}

/// The full suite in the paper's table order.
pub fn suite(scale: Scale) -> Vec<Workload> {
    let f = scale.factor();
    vec![
        Workload {
            name: "compress",
            description: "RLE/LZ-style compression, tight field-dense loop",
            multithreaded: false,
            source: programs::compress(f),
        },
        Workload {
            name: "jess",
            description: "rule engine matching facts with tiny methods",
            multithreaded: false,
            source: programs::jess(f),
        },
        Workload {
            name: "db",
            description: "in-memory database with chunky scan operations",
            multithreaded: false,
            source: programs::db(f),
        },
        Workload {
            name: "javac",
            description: "recursive-descent compiler over a synthetic token stream",
            multithreaded: false,
            source: programs::javac(f),
        },
        Workload {
            name: "mpegaudio",
            description: "numeric decode kernels calling small helpers",
            multithreaded: false,
            source: programs::mpegaudio(f),
        },
        Workload {
            name: "mtrt",
            description: "ray tracer with vector-method arithmetic",
            multithreaded: false,
            source: programs::mtrt(f),
        },
        Workload {
            name: "jack",
            description: "parser generator, field-heavy state machine",
            multithreaded: false,
            source: programs::jack(f),
        },
        Workload {
            name: "opt_compiler",
            description: "optimizing compiler running on its own IR, virtual dispatch",
            multithreaded: false,
            source: programs::opt_compiler(f),
        },
        Workload {
            name: "pbob",
            description: "portable business object benchmark, threaded transactions",
            multithreaded: true,
            source: programs::pbob(f),
        },
        Workload {
            name: "volano",
            description: "chat-room message fan-out across threads",
            multithreaded: true,
            source: programs::volano(f),
        },
    ]
}

/// Looks a workload up by name.
pub fn by_name(name: &str, scale: Scale) -> Option<Workload> {
    suite(scale).into_iter().find(|w| w.name == name)
}

/// All benchmark names, in suite order.
pub fn names() -> Vec<&'static str> {
    suite(Scale::Smoke).into_iter().map(|w| w.name).collect()
}

/// The `'static` suite name equal to `name`, if there is one — how
/// deserialized data (e.g. journaled experiment cells) gets back the
/// static benchmark names the result types carry.
pub fn canonical_name(name: &str) -> Option<&'static str> {
    names().into_iter().find(|n| *n == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use isf_exec::{Engine, ExecLimits, Outcome, Request, VmConfig, VmError};

    /// Loads `module` on the default engine and runs it once under `cfg`.
    fn execute(module: &Module, cfg: &VmConfig) -> Result<Outcome, VmError> {
        Engine::default()
            .load(module, &cfg.cost)
            .execute(Request::new(cfg))
    }

    #[test]
    fn all_workloads_compile_and_run_deterministically() {
        for w in suite(Scale::Smoke) {
            let m = w.compile();
            let cfg = VmConfig {
                limits: ExecLimits::cycles(200_000_000),
                ..VmConfig::default()
            };
            let a = execute(&m, &cfg).unwrap_or_else(|e| panic!("{} trapped: {e}", w.name()));
            let b = execute(&m, &cfg).unwrap();
            assert_eq!(a.output, b.output, "{} must be deterministic", w.name());
            assert!(!a.output.is_empty(), "{} must print a checksum", w.name());
            assert!(
                a.cycles > 10_000,
                "{} too small: {} cycles",
                w.name(),
                a.cycles
            );
        }
    }

    #[test]
    fn scale_grows_run_length() {
        let cfg = VmConfig::default();
        let smoke = execute(&by_name("db", Scale::Smoke).unwrap().compile(), &cfg)
            .unwrap()
            .cycles;
        let default = execute(&by_name("db", Scale::Default).unwrap().compile(), &cfg)
            .unwrap()
            .cycles;
        assert!(default > 4 * smoke);
    }

    #[test]
    fn multithreaded_workloads_actually_switch_threads() {
        for name in ["pbob", "volano"] {
            let w = by_name(name, Scale::Smoke).unwrap();
            assert!(w.is_multithreaded());
            let o = execute(&w.compile(), &VmConfig::default()).unwrap();
            assert!(o.thread_switches > 0, "{name} never interleaved");
        }
    }

    #[test]
    fn suite_has_ten_benchmarks_in_paper_order() {
        assert_eq!(
            names(),
            vec![
                "compress",
                "jess",
                "db",
                "javac",
                "mpegaudio",
                "mtrt",
                "jack",
                "opt_compiler",
                "pbob",
                "volano"
            ]
        );
        assert!(by_name("nope", Scale::Smoke).is_none());
    }
}
