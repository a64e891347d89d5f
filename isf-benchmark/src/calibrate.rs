//! Machine-speed calibration. On a shared host the speed of a core drifts
//! by half and more for minutes at a time, and user CPU time drifts with
//! it, so no statistic over one run's raw times repeats between runs. The
//! benchmark therefore times a fixed kernel between every two timed
//! children and divides each child's wall time by the kernel's slowdown
//! around it: the result is the wall time the child would have taken on
//! the reference machine.
//!
//! The kernel is frozen code of this package, independent of the crates
//! under test, so no change to them can move it. It is a small byte-code
//! loop over a table in the L2 cache — a shape close to the VM's dispatch
//! loop, whose slow spells it follows best of the kernels tried (see the
//! README's noise notes).

use std::hint::black_box;
use std::time::Instant;

/// Kernel steps of one calibration.
pub const STEPS: u64 = 20_000_000;

/// Seconds [`STEPS`] take on the reference machine: the 2-core 2.1 GHz
/// Xeon development box in its fast spells.
pub const REFERENCE_S: f64 = 0.05;

/// The fixed program the kernel interprets.
const PROGRAM: [u8; 12] = [0, 1, 2, 3, 4, 1, 5, 2, 0, 3, 6, 7];

/// Words in the kernel's table (256 KiB).
const TABLE: usize = 32 * 1024;

/// Runs the kernel for `steps` steps; the result only defeats the optimiser.
#[must_use]
pub fn kernel(steps: u64) -> u64 {
    let mut table = vec![0u64; TABLE];
    let (mut acc, mut sp, mut pc) = (0x9e37_79b9_7f4a_7c15_u64, 0u64, 0usize);
    for i in 0..steps {
        let op = PROGRAM[pc];
        pc = if pc + 1 == PROGRAM.len() { 0 } else { pc + 1 };
        match op {
            0 => acc = acc.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(i),
            1 => {
                let k = (acc >> 17) as usize % TABLE;
                table[k] = table[k].wrapping_add(acc);
            }
            2 => acc ^= table[(acc >> 29) as usize % TABLE],
            3 => sp = sp.wrapping_add(acc & 7),
            4 => {
                acc = if acc & 1 == 0 {
                    acc.rotate_left(5)
                } else {
                    acc.rotate_right(3)
                }
            }
            5 => acc = acc.wrapping_add(sp),
            6 => table[sp as usize % TABLE] ^= acc,
            _ => acc ^= acc >> 31,
        }
    }
    table.iter().fold(acc, |a, &b| a ^ b)
}

/// How many times slower than the reference machine this one runs now:
/// one calibration's seconds over [`REFERENCE_S`]. With `threads` > 1 the
/// kernel runs on that many threads at once and their mean counts, for
/// workloads that keep that many cores busy.
#[must_use]
pub fn slowdown(threads: usize) -> f64 {
    let timed = || {
        let start = Instant::now();
        black_box(kernel(black_box(STEPS)));
        start.elapsed().as_secs_f64()
    };
    let total: f64 = if threads <= 1 {
        timed()
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads).map(|_| s.spawn(timed)).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a calibration thread panicked"))
                .sum()
        })
    };
    total / threads.max(1) as f64 / REFERENCE_S
}
