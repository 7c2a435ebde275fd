//! `channel`: Table 1 at paper scale. Each pass sends 12 rounds of
//! 4000-bit payloads, one payload seed per round, over the twelve Cascade
//! Lake channels of `ChannelSpec::table1()` plus AMD Prime+iLock through
//! `run_channel_in`. Round 0 of seed 0 is `table1 --full`'s own input.

use std::time::Instant;

use smack::channel::{random_payload, run_channel_in, ChannelFamily, ChannelReport, ChannelSpec};
use smack::session::{Scenario, Session, Sessions};
use smack_bench::report::f;
use smack_bench::runner::Runner;
use smack_bench::Mode;
use smack_uarch::{MicroArch, NoiseConfig, Placement, ProbeKind};

use crate::driver::{measure, repeat_setup, Pass};
use crate::stats::{self, guarded, ns_since, Fnv, SessionCounts, SimCounts};
use crate::{harness, host, Metrics, Report, RunCfg};

const ROUNDS: usize = 12;
const BITS: usize = 4_000;
/// `table1 --full`'s payload seed.
const TABLE1_PAYLOAD_SEED: u64 = 0x7ab1e1;
/// Table 1's inapplicable rows: expected outcomes, not failures.
const EXPECTED_NA: [&str; 2] = ["Flush+iLock", "Flush+iStore"];
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 51;

/// The transmissions of one round, in table1's row order.
fn transmissions() -> Vec<(MicroArch, ChannelSpec)> {
    let mut t: Vec<_> =
        ChannelSpec::table1().into_iter().map(|s| (MicroArch::CascadeLake, s)).collect();
    t.push((MicroArch::AmdRyzen5, ChannelSpec::prime_probe(ProbeKind::Lock)));
    t
}

fn scenario(arch: MicroArch) -> Scenario {
    Scenario::new(arch).with_noise(NoiseConfig::noisy())
}

/// The cold placement `run_channel_in` calibrates each family against.
fn cold_placement(family: ChannelFamily) -> Placement {
    match family {
        ChannelFamily::PrimeProbe => Placement::L2,
        ChannelFamily::FlushReload => Placement::DramOnly,
    }
}

struct Sent {
    family: ChannelFamily,
    /// `Ok(None)` is an expected N/A row.
    outcome: Result<Option<ChannelReport>, String>,
    counts: SimCounts,
    ns: u64,
}

/// One transmission; checks the decoded payload against what was sent.
fn send(sessions: &Sessions, arch: MicroArch, spec: &ChannelSpec, payload: &[bool]) -> Sent {
    let mut session = sessions.session(&scenario(arch));
    let t0 = Instant::now();
    let r = guarded(|| run_channel_in(&mut session, spec, payload, false));
    let ns = ns_since(t0);
    let name = spec.name();
    let na_expected = arch == MicroArch::CascadeLake && EXPECTED_NA.contains(&name.as_str());
    let outcome = match r {
        Err(e) if na_expected && e.starts_with(&format!("{name}: ")) => Ok(None),
        Err(e) => Err(e),
        Ok(_) if na_expected => Err(format!("{name} is expected to be N/A")),
        Ok(rep) if rep.decoded.len() != payload.len() || rep.bits != payload.len() => {
            Err(format!("decoded {} of {} bits", rep.decoded.len(), payload.len()))
        }
        Ok(rep) => {
            let errors = rep.decoded.iter().zip(payload).filter(|(a, b)| a != b).count();
            if errors == rep.errors {
                Ok(Some(rep))
            } else {
                Err(format!("reports {} bit errors, decoded payload has {errors}", rep.errors))
            }
        }
    };
    Sent { family: spec.family, outcome, counts: SimCounts::of(session.machine()), ns }
}

struct RoundsPass {
    wall: f64,
    cpu: f64,
    session: SessionCounts,
    sent: Vec<Sent>,
}

fn pass(runner: Runner, sessions: &Sessions, payloads: &[Vec<bool>]) -> RoundsPass {
    let plan = transmissions();
    let before = SessionCounts::of(sessions);
    let cpu0 = host::usage().cpu_s;
    let t0 = Instant::now();
    let sent = runner.run(ROUNDS * plan.len(), |i| {
        let (arch, spec) = &plan[i % plan.len()];
        send(sessions, *arch, spec, &payloads[i / plan.len()])
    });
    RoundsPass {
        wall: t0.elapsed().as_secs_f64(),
        cpu: host::usage().cpu_s - cpu0,
        session: SessionCounts::of(sessions).since(&before),
        sent,
    }
}

impl RoundsPass {
    fn reports(&self) -> impl Iterator<Item = &ChannelReport> {
        self.sent.iter().filter_map(|s| s.outcome.as_ref().ok().and_then(Option::as_ref))
    }

    /// Mean share of payload bits received correctly, percent.
    fn leak_pct(&self) -> f64 {
        let ok: Vec<f64> = self.reports().map(|r| 100.0 - r.error_rate_pct).collect();
        stats::mean(&ok)
    }
}

impl Pass for RoundsPass {
    fn wall(&self) -> f64 {
        self.wall
    }

    fn digest(&self) -> String {
        let mut d = Fnv::new();
        for s in &self.sent {
            match &s.outcome {
                Ok(Some(r)) => {
                    d.bytes(r.name.as_bytes());
                    for chunk in r.decoded.chunks(8) {
                        d.bytes(&[chunk.iter().fold(0u8, |acc, b| acc << 1 | u8::from(*b))]);
                    }
                    d.u64(r.errors as u64);
                    d.u64(r.cycles);
                    d.f64(r.kbit_per_s);
                }
                Ok(None) => d.bytes(b"n/a"),
                Err(e) => d.bytes(e.as_bytes()),
            }
            s.counts.digest(&mut d);
        }
        d.hex()
    }

    fn counts(&self) -> SimCounts {
        let mut c = SimCounts::default();
        for s in &self.sent {
            c.add(s.counts);
        }
        c
    }

    fn account(&self, report: &mut Report) {
        let plan = transmissions();
        for (i, s) in self.sent.iter().enumerate() {
            let (arch, spec) = &plan[i % plan.len()];
            report
                .op(|| format!("round {} {} on {arch:?}", i / plan.len(), spec.name()), &s.outcome);
        }
    }

    fn layer_metrics(&self, untraced_wall: f64, threads: usize) -> Metrics {
        let ms = |fam: ChannelFamily| -> Vec<f64> {
            self.sent
                .iter()
                .filter(|s| s.family == fam && matches!(s.outcome, Ok(Some(_))))
                .map(|s| s.ns as f64 / 1e6)
                .collect()
        };
        let kbps: Vec<f64> = self.reports().map(|r| r.kbit_per_s).collect();
        let err: Vec<f64> = self.reports().map(|r| r.error_rate_pct).collect();
        let na = self.sent.iter().filter(|s| matches!(s.outcome, Ok(None))).count();
        let mut m = Metrics::new();
        self.counts().layer_metrics(untraced_wall, &mut m);
        m.insert("channel.pp_ms_p50".into(), stats::median(&ms(ChannelFamily::PrimeProbe)));
        m.insert("channel.fr_ms_p50".into(), stats::median(&ms(ChannelFamily::FlushReload)));
        m.insert("channel.kbps_mean".into(), stats::mean(&kbps));
        m.insert("channel.err_pct_mean".into(), stats::mean(&err));
        m.insert("channel.na_rows".into(), na as f64 / ROUNDS as f64);
        m.insert("runner.threads".into(), threads as f64);
        m.insert("runner.busy_frac".into(), self.cpu / (self.wall * threads as f64));
        m.insert("trace.overhead_pct".into(), (self.wall / untraced_wall - 1.0) * 100.0);
        self.session.add_to(&mut m);
        m
    }
}

/// A fresh session registry with every calibration the applicable
/// channels need computed and one pooled machine per runner thread and
/// microarchitecture checked out. Returns the registry, the set-up time
/// (s) and the calibration time (ms).
fn setup(threads: usize) -> Result<(Sessions, f64, f64), String> {
    let t0 = Instant::now();
    let sessions = Sessions::new();
    let mut calib_ns = 0;
    for (arch, spec) in transmissions() {
        let mut session = sessions.session(&scenario(arch));
        if spec.applicability(session.machine()).is_ok() {
            let tc = Instant::now();
            session
                .calibrated_for(spec.kind, cold_placement(spec.family), NoiseConfig::noisy())
                .map_err(|e| format!("{} calibration: {e}", spec.name()))?;
            calib_ns += ns_since(tc);
        }
    }
    for arch in [MicroArch::CascadeLake, MicroArch::AmdRyzen5] {
        let held: Vec<Session<'_>> =
            (0..threads).map(|_| sessions.session(&scenario(arch))).collect();
        drop(held);
    }
    let secs = t0.elapsed().as_secs_f64();
    Ok((sessions, secs, calib_ns as f64 / 1e6))
}

pub fn run(cfg: &RunCfg) -> Result<Report, String> {
    let payloads: Vec<Vec<bool>> = (0..ROUNDS as u64)
        .map(|r| {
            let seed = TABLE1_PAYLOAD_SEED
                .wrapping_add(cfg.seed.wrapping_mul(ROUNDS as u64))
                .wrapping_add(r);
            random_payload(BITS, seed)
        })
        .collect();
    let (sessions, setup_s, calib_ms) = repeat_setup(SETUPS, || setup(cfg.threads))?;
    let mut report = Report::default();
    // Every pass times each transmission, so the traced pass is the same
    // code as the untraced one.
    let first = measure(cfg, SessionCounts::of(&sessions), &mut report, |runner, _| {
        pass(runner, &sessions, &payloads)
    });
    if cfg.trace {
        report.metrics.insert("calib.ms".into(), calib_ms);
        return Ok(report);
    }
    if cfg.seed == 0 {
        check_table1(cfg, &first, &mut report);
    }
    report.metrics.insert("setup_s".into(), setup_s);
    report.metrics.insert("wall_s".into(), stats::median(&report.walls));
    report.metrics.insert("leak_pct".into(), first.leak_pct());
    Ok(report)
}

/// Seed 0's first round must reproduce `table1 --full`: same rates and
/// error rates, row for row, over the applicable rows.
fn check_table1(cfg: &RunCfg, first: &RoundsPass, report: &mut Report) {
    let csv =
        harness::experiment_csv("table1", Mode::Full, None, cfg.runner(), &cfg.scratch.join("t1"));
    let ours: Vec<[String; 2]> = first
        .sent
        .iter()
        .take(transmissions().len())
        .filter_map(|s| s.outcome.as_ref().ok().and_then(Option::as_ref))
        .map(|r| [f(r.kbit_per_s, 1), f(r.error_rate_pct, 1)])
        .collect();
    let theirs: Vec<[String; 2]> = match &csv {
        Ok(text) => harness::csv_rows(text)
            .iter()
            .filter(|r| r.len() == 4 && r[1] == "yes")
            .map(|r| [r[2].to_owned(), r[3].to_owned()])
            .collect(),
        Err(_) => Vec::new(),
    };
    report.check(ours == theirs, || {
        format!("round 0 does not match table1 --full: ours {ours:?}, table1 {theirs:?} ({csv:?})")
    });
}
