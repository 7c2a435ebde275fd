//! `repro-quick`: the eleven paper experiments in quick mode through
//! `registry::run_selection`, one experiment at a time, with CSVs written
//! to a scratch directory. The first pass is cold (fresh process-wide
//! calibration cache and machine pool) and is the set-up; the passes
//! after it are timed. The experiments' inputs are fixed by the harness,
//! so the seed has no effect on this workload.

use std::fs;
use std::path::Path;
use std::time::{Duration, Instant};

use smack::session::Sessions;
use smack_bench::registry::{self, Experiment, Group, RunSpec};
use smack_bench::runner::Runner;
use smack_bench::Mode;

use crate::driver::{measure, Pass};
use crate::stats::{self, guarded, Fnv, SessionCounts};
use crate::{host, Metrics, Report, RunCfg};

struct ExpPass {
    wall: f64,
    cpu: f64,
    session: SessionCounts,
    /// Per experiment, in the pass's order: name, time, outcome.
    exps: Vec<(&'static str, Duration, Result<(), String>)>,
    digest: String,
}

/// Run every experiment once into a fresh `dir`; an experiment fails when
/// it panics or leaves one of its CSVs missing or empty.
fn pass(exps: &[&'static Experiment], runner: Runner, dir: &Path) -> ExpPass {
    let _ = fs::remove_dir_all(dir);
    let before = SessionCounts::of(Sessions::global());
    let spec = RunSpec { out_dir: Some(dir.to_path_buf()), ..RunSpec::new(Mode::Quick, runner) };
    let cpu0 = host::usage().cpu_s;
    let t0 = Instant::now();
    let mut out = Vec::new();
    for exp in exps {
        let te = Instant::now();
        let r = guarded(|| {
            registry::run_selection(&[*exp], &spec);
            Ok(())
        });
        let took = te.elapsed();
        let r = r.and_then(|()| {
            for csv in exp.csvs {
                let path = dir.join(format!("{csv}.csv"));
                match fs::metadata(&path) {
                    Ok(m) if m.len() > 0 => {}
                    _ => return Err(format!("{} is missing or empty", path.display())),
                }
            }
            Ok(())
        });
        out.push((exp.name, took, r));
    }
    let wall = t0.elapsed().as_secs_f64();
    let cpu = host::usage().cpu_s - cpu0;
    let session = SessionCounts::of(Sessions::global()).since(&before);
    ExpPass { wall, cpu, session, exps: out, digest: csv_digest(dir) }
}

/// Digest of every CSV in `dir`, by file name.
fn csv_digest(dir: &Path) -> String {
    let mut files: Vec<_> =
        fs::read_dir(dir).map(|rd| rd.flatten().map(|e| e.path()).collect()).unwrap_or_default();
    files.sort();
    let mut d = Fnv::new();
    for f in files {
        d.bytes(f.file_name().map(|n| n.as_encoded_bytes()).unwrap_or_default());
        d.bytes(&fs::read(&f).unwrap_or_default());
    }
    d.hex()
}

impl Pass for ExpPass {
    fn wall(&self) -> f64 {
        self.wall
    }

    fn digest(&self) -> String {
        self.digest.clone()
    }

    fn account(&self, report: &mut Report) {
        for (name, _, r) in &self.exps {
            report.op(|| (*name).to_owned(), r);
        }
    }

    fn layer_metrics(&self, untraced_wall: f64, threads: usize) -> Metrics {
        let mut m = Metrics::new();
        for (name, took, _) in &self.exps {
            m.insert(format!("exp.{name}_ms"), took.as_secs_f64() * 1e3);
        }
        m.insert("runner.threads".into(), threads as f64);
        m.insert("runner.busy_frac".into(), self.cpu / (self.wall * threads as f64));
        m.insert("trace.overhead_pct".into(), (self.wall / untraced_wall - 1.0) * 100.0);
        self.session.add_to(&mut m);
        m
    }
}

/// Mean Prime+iStore leakage over the rows of quick table2's CSV, percent.
fn table2_leak_pct(dir: &Path) -> Option<f64> {
    let text = fs::read_to_string(dir.join("table2.csv")).ok()?;
    let cells: Vec<f64> = crate::harness::csv_rows(&text)
        .iter()
        .map(|r| r.get(1)?.strip_suffix('%')?.parse().ok())
        .collect::<Option<_>>()?;
    (!cells.is_empty()).then(|| stats::mean(&cells))
}

pub fn run(cfg: &RunCfg) -> Result<Report, String> {
    let dir = cfg.scratch.join("csv");
    let before = SessionCounts::of(Sessions::global());
    let exps = registry::group(Group::Paper);
    let cold = pass(&exps, cfg.runner(), &dir);
    let leak = table2_leak_pct(&dir);
    let mut report = Report::default();
    cold.account(&mut report);
    // Every pass times each experiment, so the traced pass is the same code
    // as the untraced one.
    let setup = SessionCounts::of(Sessions::global()).since(&before);
    let first = measure(cfg, setup, &mut report, |runner, _| pass(&exps, runner, &dir));
    if let Some(why) = first.differs(&cold) {
        report.check_errors.push(format!("warm pass vs cold pass: {why}"));
    }
    if cfg.trace {
        return Ok(report);
    }
    report.check(leak.is_some(), || "quick table2.csv has no Prime+iStore cells".into());
    report.metrics.insert("setup_s".into(), cold.wall);
    report.metrics.insert("wall_s".into(), stats::median(&report.walls));
    report.metrics.insert("leak_pct".into(), leak.unwrap_or(f64::NAN));
    Ok(report)
}
