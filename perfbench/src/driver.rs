//! The measurement loop shared by the workloads: repeated set-up, timed
//! passes, the paired traced passes of a traced run, and the
//! exact-output checks across passes and thread counts.

use smack_bench::runner::Runner;

use crate::stats::{self, SessionCounts, SimCounts};
use crate::{host, Metrics, Report, RunCfg};

/// One pass over a workload's fixed operation set.
pub trait Pass {
    /// Wall time, seconds.
    fn wall(&self) -> f64;
    /// Digest of the pass's simulated outputs.
    fn digest(&self) -> String;
    /// Exact simulator counts of the machines the pass held.
    fn counts(&self) -> SimCounts {
        SimCounts::default()
    }
    /// Count the pass's operations and failures.
    fn account(&self, report: &mut Report);
    /// Per-layer metrics of a traced pass; `untraced_wall` is the wall of
    /// the untraced pass it is paired with.
    fn layer_metrics(&self, untraced_wall: f64, threads: usize) -> Metrics;
    /// How this pass's simulated outputs differ from `other`'s, if they do.
    fn differs(&self, other: &Self) -> Option<String> {
        (self.digest() != other.digest()).then(|| "digest differs".to_owned())
    }
}

/// Run `setup` `n` times and keep the last registry it built. Each call
/// returns the registry, its set-up time (s) and its calibration time
/// (ms); the medians of both are returned.
pub fn repeat_setup<T>(
    n: usize,
    mut setup: impl FnMut() -> Result<(T, f64, f64), String>,
) -> Result<(T, f64, f64), String> {
    let (mut last, mut secs, mut cal) = (None, Vec::new(), Vec::new());
    for _ in 0..n {
        let (t, s, c) = setup()?;
        last = Some(t);
        secs.push(s);
        cal.push(c);
    }
    Ok((last.expect("at least one set-up"), stats::median(&secs), stats::median(&cal)))
}

/// Run untraced passes until `cfg.seconds` have elapsed (at least one).
/// In a traced run each untraced pass is followed by a traced pass, whose
/// per-layer metrics (median over the traced passes, plus the session
/// counts of `setup` and one pass) go into `report.metrics`, and a final
/// untraced pass runs on a single runner thread. Every pass must
/// reproduce the first one's simulated outputs. Returns the first pass;
/// later passes are dropped as soon as they are checked, so that memory
/// does not grow with the number of passes.
pub fn measure<P: Pass>(
    cfg: &RunCfg,
    setup: SessionCounts,
    report: &mut Report,
    mut pass: impl FnMut(Runner, bool) -> P,
) -> P {
    let mut first: Option<P> = None;
    let mut layers = Vec::new();
    let start = std::time::Instant::now();
    while first.is_none() || start.elapsed().as_secs_f64() < cfg.seconds {
        let untraced = pass(cfg.runner(), false);
        if cfg.trace {
            let traced = pass(cfg.runner(), true);
            check(report, "traced pass", &traced, &untraced);
            layers.push(traced.layer_metrics(untraced.wall(), cfg.threads));
        }
        match &first {
            Some(f) => check(report, &format!("pass {}", report.walls.len()), &untraced, f),
            None => {
                untraced.account(report);
                // Set-up plus one pass: later passes only churn the
                // allocator, and the number of passes depends on speed.
                report.metrics.insert("peak_rss_mb".into(), host::usage().peak_rss_mb);
            }
        }
        report.walls.push(untraced.wall());
        first.get_or_insert(untraced);
    }
    let first = first.expect("at least one pass");
    if cfg.trace && cfg.threads > 1 {
        let single = pass(Runner::sequential(), false);
        check(report, &format!("1 thread vs {} threads", cfg.threads), &single, &first);
    }
    report.digest = first.digest();
    report.counts = first.counts();
    if cfg.trace {
        report.metrics = median_each(&layers);
        setup.add_to(&mut report.metrics);
    }
    first
}

/// Count `pass`'s operations and require its outputs to equal `reference`'s.
fn check<P: Pass>(report: &mut Report, what: &str, pass: &P, reference: &P) {
    pass.account(report);
    if let Some(why) = pass.differs(reference) {
        report.check_errors.push(format!("{what}: {why}"));
    }
}

/// Per-metric median over several passes' metric sets.
fn median_each(sets: &[Metrics]) -> Metrics {
    let mut out = Metrics::new();
    if let Some(first) = sets.first() {
        for name in first.keys() {
            let vals: Vec<f64> = sets.iter().filter_map(|m| m.get(name).copied()).collect();
            out.insert(name.clone(), stats::median(&vals));
        }
    }
    out
}
