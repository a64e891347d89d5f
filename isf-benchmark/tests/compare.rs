//! `compare` verdicts.

use isf_benchmark::compare::{compare, judge, read_set, Verdict};
use isf_benchmark::spec::Better;
use isf_benchmark::stats::Summary;

fn summary(values: &[f64]) -> Summary {
    Summary::of(values).expect("values")
}

#[test]
fn quartiles_match_python_statistics() {
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    let s = summary(&[10.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
    assert_eq!(
        (s.q1, s.median, s.q3, s.min, s.n),
        (2.75, 5.5, 8.25, 1.0, 10)
    );
    // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
    let s = summary(&[4.0, 1.0, 2.0]);
    assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 4.0));
    assert_eq!(summary(&[3.0]).spread(), 0.0);
    assert!(Summary::of(&[]).is_none());
}

#[test]
fn bounded_verdicts() {
    let a = summary(&[10.0, 10.1, 9.9, 10.0, 10.05]);
    let same = summary(&[10.02, 10.1, 9.95, 10.0, 10.04]);
    let slower = summary(&[11.5, 11.6, 11.4, 11.5, 11.55]);
    let noisy = summary(&[8.0, 12.0, 10.0, 9.0, 11.5]);
    assert_eq!(judge(&a, &same, Better::Lower, 0.1), Verdict::Ok);
    assert_eq!(judge(&a, &slower, Better::Lower, 0.1), Verdict::Regressed);
    assert_eq!(judge(&a, &slower, Better::Lower, 0.2), Verdict::Ok);
    assert_eq!(
        judge(&slower, &a, Better::Lower, 0.1),
        Verdict::Ok,
        "faster is fine"
    );
    assert_eq!(judge(&slower, &a, Better::Higher, 0.1), Verdict::Regressed);
    assert_eq!(judge(&a, &noisy, Better::Lower, 0.1), Verdict::Unresolved);
    assert_eq!(judge(&noisy, &a, Better::Lower, 0.1), Verdict::Unresolved);
}

fn line(workload: &str, seed: u64, wall: f64, extra: &str) -> String {
    format!(
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"trace\":0,\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{{\"wall_s\":{{\"value\":{wall},\"unit\":\"s\"}}{extra}}}}}"
    )
}

#[test]
fn sets_compare_per_workload_and_exact_counts_per_seed() {
    let dispatches = |n: u64| format!(",\"exec.dispatches\":{{\"value\":{n},\"unit\":\"count\"}}");
    let a = read_set(
        &[
            line("suite", 1, 4.0, &dispatches(100)),
            line("suite", 2, 4.1, &dispatches(100)),
            line("suite", 3, 4.05, ""),
            line("pipeline", 1, 3.0, &dispatches(7)),
            line("pipeline", 2, 3.0, &dispatches(8)),
        ]
        .join("\n"),
    )
    .expect("set A");
    let b = read_set(
        &[
            line("suite", 1, 5.3, &dispatches(100)),
            line("suite", 2, 5.4, &dispatches(101)),
            line("suite", 3, 5.35, ""),
            line("pipeline", 1, 3.01, &dispatches(7)),
            line("pipeline", 2, 2.99, &dispatches(8)),
        ]
        .join("\n"),
    )
    .expect("set B");
    let rows = compare(&a, &b);
    let verdict = |w: &str, m: &str| {
        rows.iter()
            .find(|r| r.workload == w && r.metric == m)
            .map(|r| r.verdict)
    };
    assert_eq!(verdict("suite", "wall_s"), Some(Verdict::Regressed));
    assert_eq!(verdict("pipeline", "wall_s"), Some(Verdict::Ok));
    assert_eq!(verdict("suite", "exec.dispatches"), Some(Verdict::Differs));
    assert_eq!(
        verdict("pipeline", "exec.dispatches"),
        Some(Verdict::Same),
        "counts may differ between seeds, not within one"
    );
    assert_eq!(
        verdict("suite-pgo", "wall_s"),
        None,
        "unmeasured pairs are skipped"
    );
    assert_eq!(rows.len(), 4);
}

#[test]
fn malformed_sets_are_errors() {
    assert!(read_set("{\"seed\":1,\"metrics\":{}}").is_err());
    assert!(read_set("{\"workload\":\"suite\",\"metrics\":{}}").is_err());
    assert!(read_set("{\"workload\":\"suite\",\"seed\":1}").is_err());
    assert!(read_set("not json").is_err());
    assert_eq!(read_set("\n").expect("empty set").len(), 0);
}
