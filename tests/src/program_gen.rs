//! A proptest generator of arbitrary trap-free Jive programs, shared by
//! the differential oracle ([`crate::oracle`]) and the property tests.
//!
//! Statement fragments are rendered into a `main` alongside a fixed class
//! `P`, its subclass `Q`, and a helper function. Every operation is total
//! (no division, bounded loops), so generated programs terminate without
//! trapping. `P`'s field `f` is read and written through receivers of both
//! classes, so one field symbol is profiled under two runtime classes.

use proptest::prelude::*;

/// Statement fragments rendered into a Jive `main`.
#[derive(Debug, Clone)]
pub enum Stmt {
    /// `vN = <expr>;`
    Assign(u8, Expr),
    /// `p.f = <expr>;`
    SetF(Expr),
    /// `q.f = <expr>;` — a store to the inherited field through the
    /// subclass receiver.
    SetQ(Expr),
    /// `print(<expr>);`
    Print(Expr),
    /// `if ((<expr>) % 2 == 0) { ... } else { ... }`
    If(Expr, Vec<Stmt>, Vec<Stmt>),
    /// A bounded `while` loop running the body N times.
    Loop(u8, Vec<Stmt>),
    /// `vA = vB; vC = vA; vB = vC;` — a chain of register-to-register
    /// moves.
    MoveChain(u8, u8, u8),
    /// `arr[K] = vN;` — an array store with a constant index (in bounds
    /// by construction).
    ArrPut(u8, u8),
    /// `vN = arr[K];` — a constant-index array load.
    ArrTake(u8, u8),
    /// `if (vN < K) { ... } else { ... }` — a comparison feeding the
    /// branch directly, the `Const`+`Bin`+`Br` fusion candidate.
    CmpIf(u8, i8, Vec<Stmt>, Vec<Stmt>),
}

/// Expression fragments; all total.
#[derive(Debug, Clone)]
pub enum Expr {
    /// A small literal.
    Lit(i8),
    /// One of the four pre-declared locals.
    Var(u8),
    /// The object field `p.f`.
    FieldF,
    /// The inherited field `q.f`, read through the subclass receiver.
    FieldQ,
    /// Addition.
    Add(Box<Expr>, Box<Expr>),
    /// Subtraction.
    Sub(Box<Expr>, Box<Expr>),
    /// Multiplication.
    Mul(Box<Expr>, Box<Expr>),
    /// Bitwise exclusive or.
    Xor(Box<Expr>, Box<Expr>),
    /// Modulo by a non-zero constant.
    Mod(Box<Expr>, u8),
    /// A call to the free function `helper`.
    Helper(Box<Expr>),
    /// A method call on `p`.
    Bump(Box<Expr>),
    /// The inherited method called on `q`: `P::bump`'s field accesses
    /// with a `Q` receiver.
    BumpQ(Box<Expr>),
}

/// Strategy for arbitrary [`Expr`] trees.
pub fn expr_strategy() -> impl proptest::strategy::Strategy<Value = Expr> {
    let leaf = prop_oneof![
        any::<i8>().prop_map(Expr::Lit),
        (0u8..4).prop_map(Expr::Var),
        Just(Expr::FieldF),
        Just(Expr::FieldQ),
    ];
    leaf.prop_recursive(3, 20, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Add(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Sub(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Mul(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Xor(a.into(), b.into())),
            (inner.clone(), 1u8..17).prop_map(|(a, k)| Expr::Mod(a.into(), k)),
            inner.clone().prop_map(|a| Expr::Helper(a.into())),
            inner.clone().prop_map(|a| Expr::Bump(a.into())),
            inner.prop_map(|a| Expr::BumpQ(a.into())),
        ]
    })
}

/// Strategy for arbitrary [`Stmt`] trees (conditionals and bounded loops
/// included).
pub fn stmt_strategy() -> impl proptest::strategy::Strategy<Value = Stmt> {
    let simple = prop_oneof![
        ((0u8..4), expr_strategy()).prop_map(|(v, e)| Stmt::Assign(v, e)),
        expr_strategy().prop_map(Stmt::SetF),
        expr_strategy().prop_map(Stmt::SetQ),
        expr_strategy().prop_map(Stmt::Print),
        ((0u8..4), (0u8..4), (0u8..4)).prop_map(|(a, b, c)| Stmt::MoveChain(a, b, c)),
        ((0u8..8), (0u8..4)).prop_map(|(k, v)| Stmt::ArrPut(k, v)),
        ((0u8..4), (0u8..8)).prop_map(|(v, k)| Stmt::ArrTake(v, k)),
    ];
    simple.prop_recursive(2, 12, 4, |inner| {
        prop_oneof![
            (
                expr_strategy(),
                prop::collection::vec(inner.clone(), 0..3),
                prop::collection::vec(inner.clone(), 0..3)
            )
                .prop_map(|(c, t, e)| Stmt::If(c, t, e)),
            (
                (0u8..4),
                any::<i8>(),
                prop::collection::vec(inner.clone(), 0..3),
                prop::collection::vec(inner.clone(), 0..3)
            )
                .prop_map(|(v, k, t, e)| Stmt::CmpIf(v, k, t, e)),
            ((0u8..5), prop::collection::vec(inner, 1..3)).prop_map(|(n, b)| Stmt::Loop(n, b)),
        ]
    })
}

fn render_expr(e: &Expr, out: &mut String) {
    match e {
        Expr::Lit(v) => out.push_str(&format!("({v})")),
        Expr::Var(v) => out.push_str(&format!("v{v}")),
        Expr::FieldF => out.push_str("p.f"),
        Expr::FieldQ => out.push_str("q.f"),
        Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Xor(a, b) => {
            let op = match e {
                Expr::Add(..) => "+",
                Expr::Sub(..) => "-",
                Expr::Mul(..) => "*",
                _ => "^",
            };
            out.push('(');
            render_expr(a, out);
            out.push_str(&format!(" {op} "));
            render_expr(b, out);
            out.push(')');
        }
        Expr::Mod(a, k) => {
            out.push('(');
            render_expr(a, out);
            out.push_str(&format!(" % {k})"));
        }
        Expr::Helper(a) => {
            out.push_str("helper(");
            render_expr(a, out);
            out.push(')');
        }
        Expr::Bump(a) | Expr::BumpQ(a) => {
            let recv = if matches!(e, Expr::Bump(..)) {
                "p"
            } else {
                "q"
            };
            out.push_str(&format!("{recv}.bump("));
            render_expr(a, out);
            out.push(')');
        }
    }
}

fn render_stmts(stmts: &[Stmt], out: &mut String, indent: usize, loop_id: &mut u32) {
    let pad = "    ".repeat(indent);
    for s in stmts {
        match s {
            Stmt::Assign(v, e) => {
                out.push_str(&format!("{pad}v{v} = "));
                render_expr(e, out);
                out.push_str(";\n");
            }
            Stmt::SetF(e) | Stmt::SetQ(e) => {
                let recv = if matches!(s, Stmt::SetF(..)) {
                    "p"
                } else {
                    "q"
                };
                out.push_str(&format!("{pad}{recv}.f = "));
                render_expr(e, out);
                out.push_str(";\n");
            }
            Stmt::Print(e) => {
                out.push_str(&format!("{pad}print("));
                render_expr(e, out);
                out.push_str(");\n");
            }
            Stmt::If(c, t, e) => {
                out.push_str(&format!("{pad}if (("));
                render_expr(c, out);
                out.push_str(") % 2 == 0) {\n");
                render_stmts(t, out, indent + 1, loop_id);
                out.push_str(&format!("{pad}}} else {{\n"));
                render_stmts(e, out, indent + 1, loop_id);
                out.push_str(&format!("{pad}}}\n"));
            }
            Stmt::Loop(n, body) => {
                let id = *loop_id;
                *loop_id += 1;
                out.push_str(&format!("{pad}var loop{id} = 0;\n"));
                out.push_str(&format!("{pad}while (loop{id} < {n}) {{\n"));
                render_stmts(body, out, indent + 1, loop_id);
                out.push_str(&format!("{pad}    loop{id} = loop{id} + 1;\n"));
                out.push_str(&format!("{pad}}}\n"));
            }
            Stmt::MoveChain(a, b, c) => {
                out.push_str(&format!("{pad}v{a} = v{b};\n"));
                out.push_str(&format!("{pad}v{c} = v{a};\n"));
                out.push_str(&format!("{pad}v{b} = v{c};\n"));
            }
            Stmt::ArrPut(k, v) => {
                out.push_str(&format!("{pad}arr[{}] = v{v};\n", k % 8));
            }
            Stmt::ArrTake(v, k) => {
                out.push_str(&format!("{pad}v{v} = arr[{}];\n", k % 8));
            }
            Stmt::CmpIf(v, k, t, e) => {
                out.push_str(&format!("{pad}if (v{v} < ({k})) {{\n"));
                render_stmts(t, out, indent + 1, loop_id);
                out.push_str(&format!("{pad}}} else {{\n"));
                render_stmts(e, out, indent + 1, loop_id);
                out.push_str(&format!("{pad}}}\n"));
            }
        }
    }
}

/// The shape of a generated concurrent program: how its worker threads
/// relate to each other. All shapes combine through *commutative* shared
/// updates only (additions into a shared cell) and print exclusively from
/// `main` after every join, so their observable behaviour — output, final
/// heap state, per-thread instruction streams — is schedule-independent by
/// construction. That makes them the right fodder for schedule-exploration
/// tests: any cross-schedule divergence is an engine bug, not a program
/// race.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConcShape {
    /// `main` spawns every worker up front, then joins them all (fan-out /
    /// fan-in). Workers accumulate thread-locally and publish once.
    FanOut,
    /// Worker `k` joins worker `k - 1` before publishing, so completion
    /// order is a chain; `main` joins only the tail and relies on the
    /// transitive joins (blocked-`Join` wake coverage).
    JoinChain,
    /// Every worker hammers the one shared cell inside its loop —
    /// maximum contention on the commutative update.
    Contention,
    /// The worker's loop body calls a function that calls a method, so
    /// yieldpoints — and thread switches — fire two and three frames
    /// deep, and a switched-out thread is parked with its callers.
    Nested,
}

/// A generated concurrent program: `workers` green threads of `iters`
/// loop iterations each, arranged per [`ConcShape`].
#[derive(Debug, Clone, Copy)]
pub struct ConcProgram {
    /// Worker thread count (2..=5; `main` makes it `workers + 1` threads).
    pub workers: u8,
    /// Loop iterations per worker (1..=6).
    pub iters: u8,
    /// How the workers relate.
    pub shape: ConcShape,
}

/// Strategy over [`ConcProgram`]s: 2–5 workers, 1–6 iterations, all four
/// shapes.
pub fn conc_program_strategy() -> impl proptest::strategy::Strategy<Value = ConcProgram> {
    (
        2u8..6,
        1u8..7,
        prop_oneof![
            Just(ConcShape::FanOut),
            Just(ConcShape::JoinChain),
            Just(ConcShape::Contention),
            Just(ConcShape::Nested),
        ],
    )
        .prop_map(|(workers, iters, shape)| ConcProgram {
            workers,
            iters,
            shape,
        })
}

/// Renders a [`ConcProgram`] into a complete Jive program. The final
/// output — one `print` per worker count plus the shared sum — is the
/// same under every thread schedule.
pub fn render_conc_program(p: &ConcProgram) -> String {
    let workers = p.workers.max(2);
    let iters = p.iters.max(1);
    let mut src = String::from(match p.shape {
        ConcShape::Nested => {
            "class Cell { field v; field g; method add(k) { self.v = self.v + k; } }\n"
        }
        _ => "class Cell { field v; field g; }\n",
    });
    match p.shape {
        ConcShape::FanOut => {
            src.push_str(
                "fn work(c, n, k) {\n    var acc = 0;\n    var i = 0;\n    while (i < n) { acc = acc + k; i = i + 1; }\n    c.v = c.v + acc;\n}\n",
            );
        }
        ConcShape::JoinChain => {
            src.push_str(
                "fn work(c, n, k) {\n    var i = 0;\n    while (i < n) { c.v = c.v + k; i = i + 1; }\n}\n\
                 fn chained(c, n, k, prev) {\n    join(prev);\n    var i = 0;\n    while (i < n) { c.v = c.v + k; i = i + 1; }\n}\n",
            );
        }
        ConcShape::Contention => {
            src.push_str(
                "fn work(c, n, k) {\n    var i = 0;\n    while (i < n) { c.v = c.v + k; c.g = c.g + 1; i = i + 1; }\n}\n",
            );
        }
        ConcShape::Nested => {
            src.push_str(
                "fn bump(c, k) {\n    c.add(k);\n    c.g = c.g + 1;\n}\n\
                 fn work(c, n, k) {\n    var i = 0;\n    while (i < n) { bump(c, k); i = i + 1; }\n}\n",
            );
        }
    }
    src.push_str("fn main() {\n    var c = new Cell;\n    c.v = 0;\n    c.g = 0;\n");
    for k in 0..workers {
        match p.shape {
            ConcShape::JoinChain if k > 0 => src.push_str(&format!(
                "    var t{k} = spawn chained(c, {iters}, {w}, t{prev});\n",
                w = k + 1,
                prev = k - 1
            )),
            _ => src.push_str(&format!(
                "    var t{k} = spawn work(c, {iters}, {w});\n",
                w = k + 1
            )),
        }
    }
    match p.shape {
        ConcShape::JoinChain => {
            // Joining the tail transitively joins the whole chain; joining
            // the (by then finished) rest exercises join-on-done.
            src.push_str(&format!("    join(t{});\n", workers - 1));
            for k in 0..workers - 1 {
                src.push_str(&format!("    join(t{k});\n"));
            }
        }
        _ => {
            for k in 0..workers {
                src.push_str(&format!("    join(t{k});\n"));
            }
        }
    }
    src.push_str(&format!(
        "    print({workers});\n    print(c.v);\n    print(c.g);\n}}\n"
    ));
    src
}

/// A program that runs `threads` worker threads as a recursive spawn
/// chain — thread `k` spawns thread `k + 1`, joins it, then publishes —
/// so thread IDs are assigned deterministically on every schedule (arrays
/// hold integers only, so handles can't be stored and bulk-joined). With
/// `threads > 1024` this drives `Trigger::CounterPerThread` past its
/// dense-lane cap (`MAX_DENSE_THREADS`) into the spill map, on every
/// schedule.
pub fn spill_program(threads: u32) -> String {
    format!(
        "class Cell {{ field v; }}
fn chain(c, n) {{
    var t = 0;
    if (n > 1) {{ t = spawn chain(c, n - 1); }}
    var j = 0;
    while (j < 2) {{ j = j + 1; }}
    c.v = c.v + 1;
    if (n > 1) {{ join(t); }}
}}
fn main() {{
    var c = new Cell;
    c.v = 0;
    var t = spawn chain(c, {threads});
    join(t);
    print(c.v);
}}"
    )
}

/// Renders the generated statements into a complete Jive program.
pub fn render_program(stmts: &[Stmt]) -> String {
    let mut body = String::new();
    let mut loop_id = 0;
    render_stmts(stmts, &mut body, 1, &mut loop_id);
    format!(
        "class P {{
    field f; field g;
    method bump(x) {{ self.f = self.f + x; return self.f; }}
}}
class Q : P {{ field h; }}
fn helper(x) {{ return (x * 7 + 3) % 1000003; }}
fn main() {{
    var v0 = 1; var v1 = 2; var v2 = 3; var v3 = 5;
    var p = new P;
    var q = new Q;
    var arr = array(8);
{body}    print(v0); print(v1); print(v2); print(v3);
    print(p.f); print(q.f);
    print(arr[0]); print(arr[3]); print(arr[7]);
}}"
    )
}
