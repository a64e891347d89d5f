//! Fuel traps on every component of a fused group: a group charges its
//! components in quanta, so a budget can run out inside it, and the trap
//! and the profile folded at it must count exactly the components the
//! unfused schedule ran. Each test sweeps the budget through a program
//! whose hot code fuses into the named groups and runs every budget
//! through the differential oracle
//! ([`isf_integration_tests::oracle::check`]).

use isf_integration_tests::oracle::{check_row, fuel, Case};

/// Checks `src` under every fuel budget below `budgets`.
fn sweep(group: &str, src: &str, budgets: u64) {
    for max in 1..budgets {
        let case = Case {
            limits: fuel(max),
            ..Case::new(src.into())
        };
        let name = format!("fuel trap inside {group}, max_cycles={max}");
        check_row(&name, &case, |_| true);
    }
}

/// `a + 2` fuses into `bin-imm`, its constant an interior component.
#[test]
fn fuel_trap_on_interior_const_of_bin_imm() {
    sweep(
        "bin-imm",
        "fn main() { var a = 1; var b = a + 2; print(b); }",
        12,
    );
}

/// `self.pos = self.pos + 1` fuses into `get-field-bin-imm-set-field`:
/// three quanta, the middle one two components.
#[test]
fn fuel_trap_inside_multi_quantum_field_groups() {
    sweep(
        "get-field-bin-imm-set-field",
        "class C { field pos; method bump() { self.pos = self.pos + 1; return 0; } }
         fn main() { var c = new C; c.pos = 0; var i = 0;
             while (i < 4) { c.bump(); i = i + 1; } print(c.pos); }",
        260,
    );
}

/// The moves and constant-index array accesses of `shuffle` form guided
/// groups under the saturated guidance the oracle adds.
#[test]
fn fuel_trap_inside_guided_move_and_array_groups() {
    sweep(
        "guided moves and array accesses",
        "fn shuffle(a, b, c) { var x = a; var y = b; var z = c; return x + y + z; }
         fn main() { var arr = array(3); arr[0] = 7; arr[1] = 8; arr[2] = arr[0];
             print(shuffle(arr[0], arr[1], arr[2])); }",
        160,
    );
}
