//! Regression tests for trap attribution inside fused groups: a fuel trap
//! landing on an interior component of a superinstruction (the group's
//! charge is folded into one quantum, so the machine's clock overshoots
//! the unfused schedule) must still yield exactly the naive engine's
//! instruction and cycle totals in the folded profile. Found by probing
//! PR 5's fusion layer: before the quantum-decomposition fix in
//! `fold_profile`, the fused profile counted every component of the
//! trapping group even when the unfused schedule would have stopped
//! mid-group.

use isf_exec::{Engine, ExecLimits, OpProfile, Request, VmConfig};
use isf_integration_tests::compile;

/// Sweeps a cycle budget across every trap position of `src` and asserts
/// the fused profile totals equal the naive ones at each.
fn assert_trap_totals_match(src: &str, max_range: std::ops::Range<u64>) {
    for max in max_range {
        let module = compile(src);
        let cfg = VmConfig {
            limits: ExecLimits {
                max_cycles: Some(max),
                max_heap_words: None,
                max_stack: 64,
            },
            ..VmConfig::default()
        };
        let profiled = |engine: Engine, profile: &mut OpProfile| {
            engine
                .load(&module, &cfg.cost)
                .execute(Request::new(&cfg).profile(profile))
        };
        let mut naive_profile = OpProfile::new();
        let naive = profiled(Engine::Naive, &mut naive_profile);
        let mut fused_profile = OpProfile::new();
        let fr = profiled(Engine::Fused, &mut fused_profile);
        assert_eq!(
            naive.is_err(),
            fr.is_err(),
            "engines disagree on trapping at max={max}"
        );
        assert_eq!(
            fused_profile.total_instructions(),
            naive_profile.total_instructions(),
            "instruction divergence at max={max}"
        );
        assert_eq!(
            fused_profile.total_cycles(),
            naive_profile.total_cycles(),
            "cycle divergence at max={max}"
        );
    }
}

#[test]
fn fuel_trap_on_interior_const_of_bin_imm() {
    // `var b = a + 2` fuses into BinImm (Const + Bin under one charge
    // quantum); budgets 1..12 walk the trap across both components.
    assert_trap_totals_match("fn main() { var a = 1; var b = a + 2; print(b); }", 1..12);
}

#[test]
fn fuel_trap_inside_multi_quantum_field_groups() {
    // `self.pos = self.pos + 1` fuses into GetFieldBinImmSetField: three
    // charge quanta, the middle one folding two components. The budget
    // sweep covers every boundary, including mid-quantum.
    let src = "
        class C { field pos; method bump() { self.pos = self.pos + 1; return 0; } }
        fn main() {
            var c = new C;
            c.pos = 0;
            var i = 0;
            while (i < 4) { c.bump(); i = i + 1; }
            print(c.pos);
        }
    ";
    assert_trap_totals_match(src, 1..260);
}

#[test]
fn fuel_trap_inside_move_run_and_array_groups() {
    let src = "
        fn shuffle(a, b, c) { var x = a; var y = b; var z = c; return x + y + z; }
        fn main() {
            var arr = array(3);
            arr[0] = 7;
            arr[1] = 8;
            arr[2] = arr[0];
            print(shuffle(arr[0], arr[1], arr[2]));
        }
    ";
    assert_trap_totals_match(src, 1..160);
}
