//! Ablation: the three engines of [`Engine::ALL`] on the same
//! uninstrumented runs.
//!
//! The unfused prepared engine executes a flattened, pre-resolved
//! instruction arena (costs folded, branch targets as indices, backedges
//! pre-classified); with fusion the hot multi-op sequences of that arena
//! collapse into single superinstructions with pre-summed costs, so the
//! dispatch loop turns fewer times per simulated instruction. The naive
//! engine re-reads the structured IR and re-derives all of that on the
//! fly, per run and per instruction. All engines produce identical
//! outcomes — this bench measures dispatch cost alone and asserts the two
//! headline claims: the unfused prepared engine is at least 1.5× the
//! naive one, and fusion is at least 1.25× on top of it, both on
//! `compress`. The self-profiling variant (`profiled`, the per-opcode
//! `OpProfile` sink) must stay within 5% of the untraced fused run. The
//! fusion, live-tracing and profiling ratios are measured interleaved in
//! one process ([`criterion::interleaved_min_ratio`]), not read off two criterion
//! rows timed minutes apart.

use criterion::{interleaved_min_ratio, Criterion};
use isf_bench::{criterion, module};
use isf_exec::{Engine, OpProfile, Request, TraceBuffer, VmConfig};

fn dispatch(c: &mut Criterion) {
    let cfg = VmConfig::default();
    for name in ["compress", "mtrt", "db", "jess"] {
        let m = module(name);
        // One row per engine, `interp_dispatch/<label>/<bench>`.
        for engine in Engine::ALL {
            let code = engine.load(&m, &cfg.cost);
            c.bench_function(format!("interp_dispatch/{}/{name}", engine.label()), |b| {
                b.iter(|| code.execute(Request::new(&cfg)).unwrap())
            });
        }
        // Loading on every run (fusion included) must still beat the naive
        // engine; the decode-and-fuse pass is a small fraction of a run.
        c.bench_function(format!("interp_dispatch/prepare_each_run/{name}"), |b| {
            b.iter(|| {
                Engine::default()
                    .load(&m, &cfg.cost)
                    .execute(Request::new(&cfg))
                    .unwrap()
            })
        });
        let fused = Engine::Fused.load(&m, &cfg.cost);
        // Live burst tracing: the generic-sink variant with a real buffer.
        // Uninstrumented modules take no samples, so this measures the
        // plumbing (the `S::ENABLED` branches), not record volume.
        c.bench_function(format!("interp_dispatch/traced/{name}"), |b| {
            b.iter(|| {
                let mut sink = TraceBuffer::new();
                fused.execute(Request::new(&cfg).trace(&mut sink)).unwrap()
            })
        });
        // Self-profiling: the per-opcode dispatch profile adds two array
        // bumps and a cycle delta per dispatch. The budget is 5% over the
        // untraced fused run — cheap enough to leave on in long soaks.
        c.bench_function(format!("interp_dispatch/profiled/{name}"), |b| {
            b.iter(|| {
                let mut profile = OpProfile::new();
                fused
                    .execute(Request::new(&cfg).profile(&mut profile))
                    .unwrap()
            })
        });
    }
}

fn main() {
    let mut c = criterion();
    dispatch(&mut c);

    let fast = c
        .result_ns("interp_dispatch/prepared/unfused/compress")
        .expect("prepared/unfused/compress was measured");
    let slow = c
        .result_ns("interp_dispatch/naive/compress")
        .expect("naive/compress was measured");
    let speedup = slow / fast;
    println!("interp_dispatch: prepared dispatch is {speedup:.2}x the naive engine on compress");
    assert!(
        speedup >= 1.5,
        "prepared dispatch must be >= 1.5x faster than naive on compress, got {speedup:.2}x"
    );
    let cfg = VmConfig::default();
    let m = module("compress");
    let fused_code = Engine::Fused.load(&m, &cfg.cost);
    let unfused_code = Engine::Unfused.load(&m, &cfg.cost);
    let fusion_speedup = interleaved_min_ratio(
        || unfused_code.execute(Request::new(&cfg)).unwrap(),
        || fused_code.execute(Request::new(&cfg)).unwrap(),
    );
    println!(
        "interp_dispatch: fusion is {fusion_speedup:.2}x the unfused prepared engine on compress"
    );
    // The no-trace path is the zero-cost baseline: a live TraceBuffer on a
    // sample-free run should cost within noise of it (the recording sites
    // compile out entirely when the sink is NoTrace).
    // Print-only: no bound is checked on it.
    let traced = interleaved_min_ratio(
        || {
            fused_code
                .execute(Request::new(&cfg).trace(&mut TraceBuffer::new()))
                .unwrap()
        },
        || fused_code.execute(Request::new(&cfg)).unwrap(),
    );
    println!("interp_dispatch: live tracing is {traced:.3}x the fused prepared run on compress");
    // Per-opcode profiling must stay within 5% of the untraced fused run
    // on compress — the OpProfile sink is meant to be cheap enough to
    // enable on real experiment runs, not just microbenchmarks.
    let overhead = interleaved_min_ratio(
        || {
            fused_code
                .execute(Request::new(&cfg).profile(&mut OpProfile::new()))
                .unwrap()
        },
        || fused_code.execute(Request::new(&cfg)).unwrap(),
    );
    println!("interp_dispatch: per-opcode profiling is {overhead:.3}x the fused run on compress");
    // Both ratios are printed before either is checked, so a failing
    // check still reports the other.
    assert!(
        fusion_speedup >= 1.25,
        "fused dispatch must be >= 1.25x faster than unfused on compress, got {fusion_speedup:.2}x"
    );
    assert!(
        overhead <= 1.05,
        "profiled dispatch must be <= 1.05x the untraced fused run on compress, got {overhead:.3}x"
    );
    c.final_summary();
}
