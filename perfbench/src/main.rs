//! The repository benchmark: one process that drives a workload through
//! the public functions of `smack`, `smack-uarch`, `smack-mastik` and
//! `smack-bench`, and prints its metrics as one JSON object on the last
//! line of standard output.
//!
//! ```text
//! perfbench --workload <srp-2048|channel|repro-quick> --seed N --seconds S --trace <0|1>
//! ```
//!
//! `--trace 0` is the untraced run and reports the end-to-end metrics;
//! `--trace 1` is the traced run, which wraps timers around the calls
//! into each layer and reports the per-layer metrics. See `README.md`.

mod channel;
mod driver;
mod harness;
mod host;
mod repro;
mod srp;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use smack_bench::runner::Runner;
use stats::SimCounts;

/// Metric name → value.
pub type Metrics = BTreeMap<String, f64>;

/// The end-to-end metrics every untraced run reports, with units.
const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MiB"), ("leak_pct", "%")];

/// The per-layer metrics every traced run reports, with units. A layer a
/// workload does not exercise reports 0 (see `README.md`).
const PER_LAYER: [(&str, &str); 46] = [
    ("uarch.inst_retired", "count"),
    ("uarch.sim_cycles", "count"),
    ("uarch.ns_per_inst", "ns"),
    ("uarch.probe_fused", "count"),
    ("uarch.probe_fallback", "count"),
    ("uarch.probe_fused_frac", "ratio"),
    ("uarch.machine_clears_smc", "count"),
    ("uarch.patch_recompiles", "count"),
    ("probe.prime_ns", "ns"),
    ("probe.wait_ns", "ns"),
    ("probe.probe_ns", "ns"),
    ("probe.samples", "count"),
    ("probe.cover_pct", "%"),
    ("srp.attack_ms_p50", "ms"),
    ("srp.attack_ms_p90", "ms"),
    ("srp.decode_us", "us"),
    ("srp.events_excess", "count"),
    ("mastik.baseline_ms_p50", "ms"),
    ("mastik.sample_ns", "ns"),
    ("mastik.setup_us", "us"),
    ("mastik.leak_pct", "%"),
    ("victims.build_us", "us"),
    ("calib.computed", "count"),
    ("calib.hits", "count"),
    ("calib.ms", "ms"),
    ("pool.built", "count"),
    ("pool.reused", "count"),
    ("channel.pp_ms_p50", "ms"),
    ("channel.fr_ms_p50", "ms"),
    ("channel.kbps_mean", "kbit/s"),
    ("channel.err_pct_mean", "%"),
    ("channel.na_rows", "count"),
    ("runner.threads", "count"),
    ("runner.busy_frac", "ratio"),
    ("exp.fig1_ms", "ms"),
    ("exp.fig2_ms", "ms"),
    ("exp.table1_ms", "ms"),
    ("exp.fig3_ms", "ms"),
    ("exp.fig4_ms", "ms"),
    ("exp.fig5_ms", "ms"),
    ("exp.table2_ms", "ms"),
    ("exp.fig6_ms", "ms"),
    ("exp.table3_ms", "ms"),
    ("exp.table4_ms", "ms"),
    ("exp.table5_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// Settings of one benchmark run.
pub struct RunCfg {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the untraced (end-to-end) run.
    pub trace: bool,
    /// Runner threads: the host's available parallelism.
    pub threads: usize,
    /// Scratch directory inside the checkout, removed at exit.
    pub scratch: PathBuf,
}

impl RunCfg {
    pub fn runner(&self) -> Runner {
        Runner::with_threads(self.threads)
    }
}

/// What a workload run produced.
#[derive(Default)]
pub struct Report {
    /// Operations attempted over every pass.
    pub attempted: u64,
    /// Operations that returned an unexpected error, panicked, or
    /// produced malformed output.
    pub failed: u64,
    /// The first few operation failures, for the log.
    pub failures: Vec<String>,
    /// Failed correctness checks (digest mismatches and the like).
    pub check_errors: Vec<String>,
    /// End-to-end or per-layer metrics, by mode.
    pub metrics: Metrics,
    /// Digest of one pass's simulated outputs.
    pub digest: String,
    /// Exact simulator counts of one pass.
    pub counts: SimCounts,
    /// Wall time of each measured pass, seconds.
    pub walls: Vec<f64>,
}

impl Report {
    /// Record one operation's outcome.
    pub fn op<T>(&mut self, what: impl FnOnce() -> String, r: &Result<T, String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.failed += 1;
            if self.failures.len() < 5 {
                self.failures.push(format!("{}: {e}", what()));
            }
        }
    }

    /// Record a correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_errors.push(what());
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 0, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} value {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad(&"expected 0 < seconds <= 600"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Tier toggles and cache locations the program reads from the
/// environment. The benchmark measures the default configuration, so it
/// clears them before any library code runs.
const PROGRAM_ENV: [&str; 6] = [
    "SMACK_CALIB_DIR",
    "SMACK_BENCH_THREADS",
    "SMACK_BURST",
    "SMACK_SUPERBLOCK",
    "SMACK_FUSED_PROBES",
    "SMACK_CHAOS",
];

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <srp-2048|channel|repro-quick> --seed N \
                 --seconds S --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    for var in PROGRAM_ENV {
        if std::env::var_os(var).is_some() {
            eprintln!("perfbench: ignoring {var} (the benchmark measures the defaults)");
            std::env::remove_var(var);
        }
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        threads,
        scratch: PathBuf::from("perfbench/.scratch").join(format!(
            "{}-{}",
            args.workload,
            std::process::id()
        )),
    };
    let ref_before = (0..3).map(|_| host::reference_loop_ms()).fold(f64::INFINITY, f64::min);
    let result = match args.workload.as_str() {
        "srp-2048" => srp::run(&cfg),
        "channel" => channel::run(&cfg),
        "repro-quick" => repro::run(&cfg),
        other => Err(format!("unknown workload {other:?} (srp-2048, channel, repro-quick)")),
    };
    let _ = std::fs::remove_dir_all(&cfg.scratch);
    if let Some(parent) = cfg.scratch.parent() {
        let _ = std::fs::remove_dir(parent); // only if no other run is using it
    }
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let ref_after = (0..3).map(|_| host::reference_loop_ms()).fold(f64::INFINITY, f64::min);
    print_report(&cfg, &args.workload, &report, [ref_before, ref_after])
}

fn print_report(cfg: &RunCfg, workload: &str, r: &Report, reference_ms: [f64; 2]) -> ExitCode {
    let wanted: Vec<(&str, &str)> =
        if cfg.trace { PER_LAYER.to_vec() } else { END_TO_END.to_vec() };
    let mut metrics = Vec::new();
    let mut correct = r.failed == 0 && r.check_errors.is_empty();
    for (name, unit) in wanted {
        let value = match r.metrics.get(name) {
            Some(v) if v.is_finite() => *v,
            // A layer this workload does not exercise.
            None if cfg.trace => 0.0,
            _ => {
                eprintln!("perfbench: metric {name} was not measured");
                correct = false;
                0.0
            }
        };
        metrics.push(format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"));
    }
    // Noise flag: the reference loop slowed or sped up by more than 10 %
    // across the run. Results are flagged, never rescaled.
    let drift = reference_ms[1] / reference_ms[0] - 1.0;
    let walls: Vec<String> = r.walls.iter().map(|w| format!("{w:.6}")).collect();
    let list = |v: &[String]| v.iter().map(|s| host::json_str(s)).collect::<Vec<_>>().join(",");
    println!(
        "{{\"provenance\":{},\"digest\":\"{}\",\"uarch\":{},\"pass_walls_s\":[{}],\
         \"reference_ms\":[{:.3},{:.3}],\"noisy\":{},\"fail_frac\":{},\"failures\":[{}],\
         \"check_errors\":[{}]}}",
        host::provenance_json(cfg.threads, cfg.seed, workload),
        r.digest,
        r.counts.json(),
        walls.join(","),
        reference_ms[0],
        reference_ms[1],
        drift.abs() > 0.10,
        r.failed as f64 / r.attempted.max(1) as f64,
        list(&r.failures),
        list(&r.check_errors),
    );
    for e in r.failures.iter().chain(&r.check_errors) {
        eprintln!("perfbench: {e}");
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        r.attempted.max(1),
        r.failed,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
