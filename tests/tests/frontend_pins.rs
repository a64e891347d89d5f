//! Pins the Jive front end's output byte for byte: the lowered IR of every
//! workload at two scales, and the exact outcome of a fixed corpus of
//! malformed sources (`frontend/compile_errors.txt`).
//!
//! The expected values are outputs of an earlier implementation of the
//! front end, so a change to it must reproduce every module and every
//! diagnostic — phase, `line:col` and message — exactly, or re-pin them on
//! purpose.

use isf_integration_tests::fnv1a;
use isf_workloads::{suite, Scale};

/// `(scale, workload, bytes, FNV-1a)` of each module's `Display`.
const MODULES: &[(&str, &str, usize, u64)] = &[
    ("smoke", "compress", 3711, 0xa1f6f8a3ff193b14),
    ("smoke", "jess", 6054, 0x7111e020ae20c4a9),
    ("smoke", "db", 6656, 0xe980c81b8ad27f1f),
    ("smoke", "javac", 10923, 0x58461a0ef5083db6),
    ("smoke", "mpegaudio", 3885, 0xc52a34dfcad04d4c),
    ("smoke", "mtrt", 5226, 0xcd2486853e662283),
    ("smoke", "jack", 3789, 0x445859366950123d),
    ("smoke", "opt_compiler", 7606, 0xfc575f9981323067),
    ("smoke", "pbob", 5581, 0x705bd281613a939f),
    ("smoke", "volano", 5502, 0xc268304d7312e12b),
    ("default", "compress", 3712, 0xff786a90714a9ba6),
    ("default", "jess", 6055, 0x3ffc8e0849516c99),
    ("default", "db", 6657, 0x001c8d6b398e0857),
    ("default", "javac", 10924, 0xe99a967137d91dce),
    ("default", "mpegaudio", 3886, 0xc070b10b6cb9c01c),
    ("default", "mtrt", 5227, 0x09e9ae08672c807f),
    ("default", "jack", 3790, 0x1ee3f5f574855acb),
    ("default", "opt_compiler", 7607, 0x2a886f6b198e6c76),
    ("default", "pbob", 5582, 0x484a13d048793674),
    ("default", "volano", 5504, 0x0d744a9bed84f9eb),
];

#[test]
fn lowered_ir_is_pinned_for_every_workload() {
    let mut got = Vec::new();
    for (label, scale) in [("smoke", Scale::Smoke), ("default", Scale::Default)] {
        for w in suite(scale) {
            let text = w.compile().to_string();
            got.push((label, w.name(), text.len(), fnv1a(text.as_bytes())));
        }
    }
    assert_eq!(got, MODULES);
}

/// splitmix64: the mutation corpus's generator.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// Tokens the mutator inserts.
const TOKENS: &[&str] = &[
    "(", ")", "{", "}", "[", "]", ";", ",", ".", ":", "=", "==", "<", "<<", "&&", "||", "!", "-",
    "+", "*", "/", "/*", "//", "var", "if", "else", "while", "return", "fn", "class", "field",
    "method", "self", "new", "busy", "spawn", "join", "len", "x", "0", "7",
];

/// Number of seeded byte mutations of the smoke sources.
const MUTATIONS: usize = 300;

/// One seeded mutation of a smoke source: its label and the mutated text.
fn mutation(rng: &mut Rng, name: &str, src: &str) -> (String, String) {
    let mut bytes = src.as_bytes().to_vec();
    let at = rng.below(bytes.len());
    let label = match rng.below(4) {
        0 => {
            let n = (1 + rng.below(8)).min(bytes.len() - at);
            bytes.drain(at..at + n);
            format!("{name} delete {at} {n}")
        }
        1 => {
            let n = (1 + rng.below(16)).min(bytes.len() - at);
            let copy = bytes[at..at + n].to_vec();
            bytes.splice(at + n..at + n, copy);
            format!("{name} duplicate {at} {n}")
        }
        2 => {
            let tok = TOKENS[rng.below(TOKENS.len())];
            bytes.splice(at..at, tok.bytes());
            format!("{name} insert {at} {tok}")
        }
        _ => {
            let b = b' ' + rng.below(95) as u8;
            bytes[at] = b;
            format!("{name} replace {at} 0x{b:02x}")
        }
    };
    let text = String::from_utf8(bytes).expect("smoke sources are ASCII");
    (label, text)
}

/// Hand-written sources a byte-level lexer could get wrong.
const CASES: &[(&str, &str)] = &[
    ("nbsp-before-error", "fn main() {\u{a0}var x = 1 # ; }"),
    (
        "line-separator-before-error",
        "fn main() { var\u{2028}x = ; }",
    ),
    (
        "next-line-and-ideographic-space",
        "fn main() {\u{85}\u{3000}print(1) }",
    ),
    (
        "non-ascii-comments-before-error",
        "// h\u{e9}llo w\u{f6}rld \u{2713}\nfn main() { /* \u{fc}n\u{ef}code \u{1f600} */ var x = 1 + ; }",
    ),
    ("non-ascii-identifier", "fn main() { var \u{e9}t\u{e9} = 1; }"),
    ("byte-order-mark", "\u{feff}fn main() {}"),
    (
        "vertical-tab-form-feed-cr",
        "fn main()\u{b}{\u{c}\r\n\tvar x = ;\r\n}",
    ),
    ("stray-hash", "fn main() { # }"),
    (
        "twenty-digit-literal",
        "fn main() { print(12345678901234567890); }",
    ),
    (
        "i64-max-literal",
        "fn main() { print(9223372036854775807); }",
    ),
    (
        "i64-max-plus-one",
        "fn main() {\n  print(9223372036854775808);\n}",
    ),
    (
        "unterminated-block-comment",
        "fn main() {\n  /* never closed\n  print(1); }",
    ),
    ("star-slash-only", "fn main() { */ }"),
    ("comment-at-eof", "fn main() {} // end"),
    ("block-comment-at-eof", "fn main() {} /**/"),
    ("slash-at-eof", "fn main() {} /"),
    (
        "chained-comparison",
        "fn main() { var a = 1; var b = 2; var c = 3; print(a < b < c); }",
    ),
    ("busy-negative", "fn main() { busy(-1); }"),
    ("busy-too-large", "fn main() { busy(4294967296); }"),
    ("busy-u32-max", "fn main() { busy(4294967295); }"),
    ("busy-variable", "fn main() { var k = 1; busy(k); }"),
    ("lex-error-after-parse-error", "fn main() { var = 1; } #"),
    ("empty-source", ""),
    ("duplicate-class", "class A {} class A {} fn main() {}"),
    ("duplicate-function", "fn f() {} fn f() {} fn main() {}"),
    ("unknown-method", "fn main() { var a = null; a.m(); }"),
    ("digits-then-letters", "fn main() { print(12abc); }"),
    (
        "keyword-prefixed-names",
        "fn iffy(selfish, new_x, _y1) { return selfish + new_x + _y1; } fn main() { print(iffy(1, 2, 3)); }",
    ),
    ("only-whitespace", " \n\t\n"),
    ("keyword-as-name", "fn main() { var while = 1; }"),
    ("not-assignable", "fn main() { (1 + 2) = 3; }"),
    ("top-level-var", "var x = 1;"),
    ("main-with-params", "fn main(x) {}"),
    ("unknown-function", "fn main() { nope(1); }"),
    ("arity-mismatch", "fn f(a, b) {} fn main() { f(1); }"),
    (
        "method-error-before-function-error",
        "class A { method m() { return y; } } fn main() { print(z); }",
    ),
    (
        "unknown-superclass",
        "class A : B { } fn main() {}",
    ),
    (
        "inheritance-cycle",
        "class A : B {} class B : C {} class C : A {} fn main() {}",
    ),
    (
        "duplicate-field",
        "class A { field x; field y; field x; } fn main() {}",
    ),
    (
        "duplicate-method",
        "class A { method m() {} method m(a) {} } fn main() {}",
    ),
    ("duplicate-parameter", "fn f(a, a) {} fn main() {}"),
    (
        "duplicate-local",
        "fn main() { var x = 1; if (true) { var x = 2; } var x = 3; }",
    ),
    ("self-in-function", "fn main() { print(self); }"),
    ("break-outside-loop", "fn main() { break; }"),
    (
        "continue-in-nested-if",
        "fn main() { while (true) { if (true) { continue; } } }",
    ),
    (
        "unknown-method-arity",
        "class A { method m(a) {} } fn main() { var a = new A; a.m(); }",
    ),
    (
        "unknown-field",
        "class A { field x; } fn main() { var a = new A; a.y = 1; }",
    ),
    ("unknown-class", "fn main() { var a = new B; }"),
    (
        "assign-undeclared",
        "fn main() { x = 1; }",
    ),
    (
        "spawn-unknown",
        "fn main() { var t = spawn w(1); join(t); }",
    ),
    ("missing-semicolon", "fn main() { print(1) }"),
    ("missing-brace", "fn main() { print(1);"),
    ("bad-class-member", "class A { var x; } fn main() {}"),
    ("bad-param-list", "fn main(a b) {}"),
    ("trailing-comma-args", "fn f(a) {} fn main() { f(1,); }"),
    (
        "operators",
        "fn main() { var a = 7; print(-a * 3 / 2 % 5 & 6 | 1 ^ 2 << 1 >> 1 != !true == false <= 1 >= 2 > 3 < 4 && a || a); }",
    ),
    (
        "all-operators",
        "fn main() { var a = 7; print(-a * 3 / 2 % 5 & 6 | 1 ^ 2 << 1 >> 1 != 0 && !(a <= 1) || a >= 2 && a > 3 || a < 4 && a == 7); }",
    ),
    (
        "else-if-chain",
        "fn main() { var x = 2; if (x == 0) { print(0); } else if (x == 1) { print(1); } else { print(2); } }",
    ),
    (
        "postfix-chain",
        "class N { field next; field v; method me() { return self; } } fn main() { var n = new N; n.next = n; var a = array(3); n.me().next.me().v = a[1 + a[0]]; print(len(a)); }",
    ),
];

/// Renders the whole fixture: one line per case, `label<TAB>outcome`,
/// where the outcome is the error's `Display` or `ok <bytes> <fnv>` of the
/// compiled module.
fn render() -> String {
    fn outcome(src: &str) -> String {
        match isf_frontend::compile(src) {
            Ok(m) => {
                let text = m.to_string();
                format!("ok {} {:016x}", text.len(), fnv1a(text.as_bytes()))
            }
            Err(e) => e.to_string(),
        }
    }
    let mut out = String::new();
    let smoke = suite(Scale::Smoke);
    let mut rng = Rng(0x5eed_f00d);
    for i in 0..MUTATIONS {
        let w = &smoke[i % smoke.len()];
        let (label, src) = mutation(&mut rng, w.name(), w.source());
        out.push_str(&format!("m{i:03} {label}\t{}\n", outcome(&src)));
    }
    for (name, src) in CASES {
        out.push_str(&format!("{name}\t{}\n", outcome(src)));
    }
    out
}

#[test]
fn compile_errors_match_the_fixture() {
    let got = render();
    let want = include_str!("frontend/compile_errors.txt");
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "fixture line {}", i + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count(), "fixture length");
}
