//! Integration tests for the parallel experiment runner: parallel
//! execution must produce exactly the sequential results (every trial
//! seeds its own RNG from the trial index), and quick mode must stay
//! CI-sized.

use smack_bench::experiments::table2_rows;
use smack_bench::runner::Runner;
use smack_bench::Mode;

#[test]
fn parallel_and_sequential_table2_agree_exactly() {
    // Table 2 is the densest trial grid (group sizes x keys, SMaCk and
    // Mastik per cell); identical aggregates here mean the runner neither
    // reorders nor cross-contaminates trials.
    let seq = table2_rows(Mode::Quick, &Runner::sequential());
    let par = table2_rows(Mode::Quick, &Runner::with_threads(4));
    assert_eq!(seq.len(), par.len());
    for (a, b) in seq.iter().zip(&par) {
        assert_eq!(a.group_bits, b.group_bits);
        assert!(
            a.smack.to_bits() == b.smack.to_bits() && a.mastik.to_bits() == b.mastik.to_bits(),
            "group {}: sequential ({}, {}) != parallel ({}, {})",
            a.group_bits,
            a.smack,
            a.mastik,
            b.smack,
            b.mastik
        );
    }
}

#[test]
fn quick_mode_trial_counts_stay_ci_sized() {
    // `all` in quick mode must stay a smoke test: these knobs bound the
    // heavy experiments' trial counts. Full mode must stay paper-scale.
    assert_eq!(Mode::Quick.pick(3, 100), 3, "table2 keys per group");
    assert_eq!(Mode::Quick.pick(12, 25), 12, "fig5 trace budget");
    assert_eq!(Mode::Quick.pick(100, 10_000), 100, "fig1 samples");
    assert_eq!(Mode::Quick.pick(300, 4_000), 300, "table1 payload bits");
    assert_eq!(Mode::Full.pick(3, 100), 100);
}

#[test]
fn quick_table2_is_fast_enough_for_ci() {
    // The whole grid (4 groups x 3 keys, two monitors per cell) must
    // complete promptly — this is the heaviest single experiment `all`
    // runs in quick mode.
    let start = std::time::Instant::now();
    let rows =
        table2_rows(Mode::Quick, &Runner::from_env().expect("SMACK_BENCH_THREADS unset or valid"));
    assert_eq!(rows.len(), smack_crypto::SrpGroup::PAPER_SIZES.len());
    for row in &rows {
        assert!(row.smack > row.mastik, "SMaCk must beat Mastik at {} bits", row.group_bits);
    }
    assert!(
        start.elapsed() < std::time::Duration::from_secs(120),
        "quick-mode table2 took {:?}",
        start.elapsed()
    );
}
