//! `srp-2048`: the 2048-bit row of `table2 --full`. Each of 100 keys runs
//! the Prime+iStore single-trace attack (`srp::single_trace_attack_in`)
//! and then the Mastik baseline on the same machine, renewed, under the
//! noisy model, with table2's key and machine seeds (seed 0 reproduces
//! the harness's own inputs).
//!
//! The traced run replaces `single_trace_attack_in` by the same sampler
//! composed from public parts (mirroring `srp::smc_sampler`) with a timer
//! around each prime, wait and probe call, and checks that its samples
//! equal the untraced ones bit for bit.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use smack::oracle::EvictionSet;
use smack::probe::{jittered_wait, Prober};
use smack::session::{Scenario, Session, Sessions};
use smack::srp::{self, SrpAttackConfig};
use smack_bench::report::f;
use smack_bench::runner::Runner;
use smack_bench::Mode;
use smack_crypto::modexp::sliding_window_schedule;
use smack_crypto::{Bignum, SrpGroup};
use smack_mastik::MastikMonitor;
use smack_uarch::{Machine, MicroArch, NoiseConfig, Placement, ThreadId};

use crate::driver::{measure, repeat_setup, Pass};
use crate::stats::{self, guarded, ns_since, samples_digest, Fnv, SessionCounts, SimCounts};
use crate::{harness, host, Metrics, Report, RunCfg};

const GROUP_BITS: usize = 2048;
const KEYS: usize = 100;
/// The eviction-set base `srp::smc_sampler` uses.
const EVSET_BASE: u64 = 0x0a20_0000;
/// The eviction-set base and prime→probe wait of table2's Mastik baseline.
const MASTIK_BASE: u64 = 0x0a50_0000;
const MASTIK_WAIT: u64 = 600;
const ATTACKER: ThreadId = ThreadId::T0;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 51;

struct Key {
    id: u64,
    b: Bignum,
}

/// Key `k` of seed `s` is key `s * 100 + k` of table2's key stream, so
/// seed 0 gives table2's keys and machine seeds exactly.
fn keys(seed: u64) -> Vec<Key> {
    (0..KEYS as u64)
        .map(|k| {
            let id = seed.wrapping_mul(KEYS as u64).wrapping_add(k);
            let mut rng = SmallRng::seed_from_u64(0x7b_u64.wrapping_add(id));
            Key { id, b: Bignum::random_bits(&mut rng, GROUP_BITS) }
        })
        .collect()
}

fn attack_cfg() -> SrpAttackConfig {
    SrpAttackConfig { noise: NoiseConfig::noisy(), ..SrpAttackConfig::new(GROUP_BITS) }
}

fn scenario(id: u64) -> Scenario {
    Scenario::new(MicroArch::TigerLake).with_noise(NoiseConfig::noisy()).with_seed(id)
}

/// The sample cap `single_trace_attack_in` and table2's baseline apply.
fn max_samples() -> usize {
    GROUP_BITS * 60 + 10_000
}

/// Host time of one traced Prime+iStore attack, nanoseconds.
#[derive(Copy, Clone, Default)]
struct SmcTimes {
    total: u64,
    build: u64,
    collect: u64,
    prime: u64,
    wait: u64,
    probe: u64,
    decode: u64,
}

/// One Prime+iStore attack's outputs, from either path.
struct Attack {
    samples: Vec<(u64, bool)>,
    leakage: f64,
    events: usize,
    truth_events: usize,
    times: SmcTimes,
}

struct SmcRun {
    samples: Option<Vec<(u64, bool)>>,
    n_samples: usize,
    digest: u64,
    leakage: f64,
    events: usize,
    truth_events: usize,
    times: SmcTimes,
}

/// Host time of one Mastik baseline run, nanoseconds.
#[derive(Copy, Clone, Default)]
struct MastikTimes {
    total: u64,
    build: u64,
    setup: u64,
    sample: u64,
}

struct MastikRun {
    n_samples: usize,
    digest: u64,
    leakage: f64,
    times: MastikTimes,
}

struct KeyRun {
    smc: Result<SmcRun, String>,
    mastik: Result<MastikRun, String>,
    counts: SimCounts,
}

/// The Prime+iStore attack composed from public parts, as
/// `srp::single_trace_attack_in` runs it, with a timer around each call.
fn traced_attack(
    session: &mut Session<'_>,
    b: &Bignum,
    cfg: &SrpAttackConfig,
) -> Result<Attack, String> {
    let start = Instant::now();
    let mut t = SmcTimes::default();
    session.require_noise(cfg.noise)?;
    let cal = session.calibrated(cfg.kind, Placement::L2).map_err(|e| e.to_string())?;
    let seed = session.scenario().seed();
    let t0 = Instant::now();
    let victim = srp::build_victim(cfg.group_bits, b.bit_len());
    t.build = ns_since(t0);
    let m = session.machine();
    m.set_noise(cfg.noise);
    m.load_program(&victim.program);
    let ev = EvictionSet::for_machine(m, EVSET_BASE, victim.mul_set);
    ev.install(m);
    for w in ev.ways() {
        m.warm_tlb(ATTACKER, *w);
    }
    let wait = jittered_wait(cfg.wait_cycles, cfg.wait_jitter, seed);
    let mut prober = Prober::new(ATTACKER);
    let (mut prime_ns, mut wait_ns, mut probe_ns) = (0u64, 0u64, 0u64);
    let sampler = |m: &mut Machine| -> Result<bool, String> {
        let t0 = Instant::now();
        ev.prime(m, &mut prober).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        prober.wait(m, wait).map_err(|e| e.to_string())?;
        let t2 = Instant::now();
        let timings =
            ev.probe_first(m, &mut prober, cfg.kind, cfg.probe_ways).map_err(|e| e.to_string())?;
        let t3 = Instant::now();
        prime_ns += (t1 - t0).as_nanos() as u64;
        wait_ns += (t2 - t1).as_nanos() as u64;
        probe_ns += (t3 - t2).as_nanos() as u64;
        Ok(timings.iter().any(|x| !cal.is_hit(*x)))
    };
    let t0 = Instant::now();
    let samples = srp::collect_events(m, &victim, b, sampler, max_samples())?;
    t.collect = ns_since(t0);
    (t.prime, t.wait, t.probe) = (prime_ns, wait_ns, probe_ns);
    let t0 = Instant::now();
    let events = srp::event_times(&samples).len();
    let truth = srp::truth_spans(&sliding_window_schedule(b));
    let leakage = srp::leakage_rate(&srp::measured_square_runs(&samples), &truth);
    t.decode = ns_since(t0);
    t.total = ns_since(start);
    Ok(Attack { samples, leakage, events, truth_events: truth.len() + 1, times: t })
}

/// Table 2's Mastik baseline on a machine in its cold start state,
/// timing each monitor sample when `traced`.
fn mastik(m: &mut Machine, b: &Bignum, traced: bool) -> Result<MastikRun, String> {
    let start = Instant::now();
    let mut t = MastikTimes::default();
    let t0 = Instant::now();
    let victim = srp::build_victim(GROUP_BITS, b.bit_len());
    t.build = ns_since(t0);
    m.load_program(&victim.program);
    let t0 = Instant::now();
    let mut monitor = MastikMonitor::new(m, ATTACKER, MASTIK_BASE, victim.mul_set, MASTIK_WAIT)
        .map_err(|e| format!("Mastik set-up: {e}"))?;
    t.setup = ns_since(t0);
    let mut sample_ns = 0u64;
    let sampler = |m: &mut Machine| -> Result<bool, String> {
        let t0 = traced.then(Instant::now);
        let active = monitor.sample(m).map_err(|e| e.to_string());
        if let Some(t0) = t0 {
            sample_ns += ns_since(t0);
        }
        active
    };
    let samples = srp::collect_events(m, &victim, b, sampler, max_samples())?;
    t.sample = sample_ns;
    let truth = srp::truth_spans(&sliding_window_schedule(b));
    let leakage = srp::leakage_rate(&srp::measured_square_runs(&samples), &truth);
    t.total = ns_since(start);
    Ok(MastikRun { n_samples: samples.len(), digest: samples_digest(&samples), leakage, times: t })
}

/// One key: the Prime+iStore attack, then the Mastik baseline on the
/// renewed machine — two operations.
fn run_key(sessions: &Sessions, key: &Key, traced: bool, keep_samples: bool) -> KeyRun {
    let cfg = attack_cfg();
    let mut session = sessions.session(&scenario(key.id));
    let smc = guarded(|| {
        let a = if traced {
            traced_attack(&mut session, &key.b, &cfg)?
        } else {
            let out = srp::single_trace_attack_in(&mut session, &key.b, &cfg)?;
            Attack {
                samples: out.samples,
                leakage: out.leakage,
                events: out.events,
                truth_events: out.truth_events,
                times: SmcTimes::default(),
            }
        };
        if a.samples.is_empty() {
            return Err("the attack collected no samples".to_owned());
        }
        Ok(SmcRun {
            n_samples: a.samples.len(),
            digest: samples_digest(&a.samples),
            samples: keep_samples.then_some(a.samples),
            leakage: a.leakage,
            events: a.events,
            truth_events: a.truth_events,
            times: a.times,
        })
    });
    let mut counts = SimCounts::of(session.machine());
    session.renew(key.id);
    let mastik = guarded(|| mastik(session.machine(), &key.b, traced));
    counts.add(SimCounts::of(session.machine()));
    KeyRun { smc, mastik, counts }
}

struct KeysPass<'k> {
    keys: &'k [Key],
    wall: f64,
    cpu: f64,
    session: SessionCounts,
    runs: Vec<KeyRun>,
}

fn pass<'k>(
    runner: Runner,
    sessions: &Sessions,
    keys: &'k [Key],
    traced: bool,
    keep: bool,
) -> KeysPass<'k> {
    let before = SessionCounts::of(sessions);
    let cpu0 = host::usage().cpu_s;
    let t0 = Instant::now();
    let runs = runner.run(keys.len(), |i| run_key(sessions, &keys[i], traced, keep));
    KeysPass {
        keys,
        wall: t0.elapsed().as_secs_f64(),
        cpu: host::usage().cpu_s - cpu0,
        session: SessionCounts::of(sessions).since(&before),
        runs,
    }
}

impl KeysPass<'_> {
    /// Mean Prime+iStore and Mastik leakage, summed in key order as
    /// table2 sums them (a failed run counts as zero leakage).
    fn leakage(&self) -> (f64, f64) {
        let smc: f64 = self.runs.iter().map(|k| k.smc.as_ref().map_or(0.0, |r| r.leakage)).sum();
        let mastik: f64 =
            self.runs.iter().map(|k| k.mastik.as_ref().map_or(0.0, |r| r.leakage)).sum();
        (smc / KEYS as f64, mastik / KEYS as f64)
    }
}

impl Pass for KeysPass<'_> {
    fn wall(&self) -> f64 {
        self.wall
    }

    fn digest(&self) -> String {
        let mut d = Fnv::new();
        for k in &self.runs {
            match &k.smc {
                Ok(r) => {
                    d.u64(r.digest);
                    d.f64(r.leakage);
                    d.u64(r.events as u64);
                    d.u64(r.truth_events as u64);
                }
                Err(e) => d.bytes(e.as_bytes()),
            }
            match &k.mastik {
                Ok(r) => {
                    d.u64(r.digest);
                    d.f64(r.leakage);
                }
                Err(e) => d.bytes(e.as_bytes()),
            }
            k.counts.digest(&mut d);
        }
        d.hex()
    }

    fn counts(&self) -> SimCounts {
        let mut c = SimCounts::default();
        for k in &self.runs {
            c.add(k.counts);
        }
        c
    }

    fn account(&self, report: &mut Report) {
        for (key, k) in self.keys.iter().zip(&self.runs) {
            report.op(|| format!("key {} Prime+iStore", key.id), &k.smc);
            report.op(|| format!("key {} Mastik", key.id), &k.mastik);
        }
    }

    /// Besides the digest, the Prime+iStore samples of both passes must be
    /// equal key by key wherever both kept them.
    fn differs(&self, other: &Self) -> Option<String> {
        for ((key, a), b) in self.keys.iter().zip(&self.runs).zip(&other.runs) {
            if let (Ok(a), Ok(b)) = (&a.smc, &b.smc) {
                if a.samples.is_some() && b.samples.is_some() && a.samples != b.samples {
                    return Some(format!("key {}: Prime+iStore samples differ", key.id));
                }
            }
        }
        (self.digest() != other.digest()).then(|| "digest differs".to_owned())
    }

    fn layer_metrics(&self, untraced_wall: f64, threads: usize) -> Metrics {
        let smc: Vec<&SmcRun> = self.runs.iter().filter_map(|k| k.smc.as_ref().ok()).collect();
        let mas: Vec<&MastikRun> =
            self.runs.iter().filter_map(|k| k.mastik.as_ref().ok()).collect();
        let sum =
            |f: &dyn Fn(&SmcTimes) -> u64| smc.iter().map(|r| f(&r.times)).sum::<u64>() as f64;
        let samples = smc.iter().map(|r| r.n_samples).sum::<usize>() as f64;
        let (prime, wait, probe) = (sum(&|t| t.prime), sum(&|t| t.wait), sum(&|t| t.probe));
        let attack_ms: Vec<f64> = smc.iter().map(|r| r.times.total as f64 / 1e6).collect();
        let mastik_ms: Vec<f64> = mas.iter().map(|r| r.times.total as f64 / 1e6).collect();
        let mastik_samples = mas.iter().map(|r| r.n_samples).sum::<usize>() as f64;
        let builds: Vec<f64> = smc
            .iter()
            .map(|r| r.times.build as f64)
            .chain(mas.iter().map(|r| r.times.build as f64))
            .collect();
        let mut m = Metrics::new();
        self.counts().layer_metrics(untraced_wall, &mut m);
        m.insert("probe.prime_ns".into(), prime / samples);
        m.insert("probe.wait_ns".into(), wait / samples);
        m.insert("probe.probe_ns".into(), probe / samples);
        m.insert("probe.samples".into(), samples);
        m.insert("probe.cover_pct".into(), 100.0 * (prime + wait + probe) / sum(&|t| t.collect));
        m.insert("srp.attack_ms_p50".into(), stats::quantile(&attack_ms, 0.5));
        m.insert("srp.attack_ms_p90".into(), stats::quantile(&attack_ms, 0.9));
        m.insert("srp.decode_us".into(), sum(&|t| t.decode) / smc.len() as f64 / 1e3);
        let excess: i64 = smc.iter().map(|r| r.events as i64 - r.truth_events as i64).sum();
        m.insert("srp.events_excess".into(), excess as f64);
        m.insert("mastik.baseline_ms_p50".into(), stats::median(&mastik_ms));
        let mastik_sample: u64 = mas.iter().map(|r| r.times.sample).sum();
        m.insert("mastik.sample_ns".into(), mastik_sample as f64 / mastik_samples);
        let setup_us: Vec<f64> = mas.iter().map(|r| r.times.setup as f64 / 1e3).collect();
        m.insert("mastik.setup_us".into(), stats::mean(&setup_us));
        m.insert("mastik.leak_pct".into(), self.leakage().1 * 100.0);
        m.insert("victims.build_us".into(), stats::mean(&builds) / 1e3);
        m.insert("runner.threads".into(), threads as f64);
        m.insert("runner.busy_frac".into(), self.cpu / (self.wall * threads as f64));
        m.insert("trace.overhead_pct".into(), (self.wall / untraced_wall - 1.0) * 100.0);
        self.session.add_to(&mut m);
        m
    }
}

/// A fresh session registry with the calibration the attack needs
/// computed, the victim built once and one pooled machine per runner
/// thread checked out. Returns the registry, the set-up time (s) and the
/// calibration time (ms).
fn setup(threads: usize) -> Result<(Sessions, f64, f64), String> {
    let t0 = Instant::now();
    let sessions = Sessions::new();
    let cfg = attack_cfg();
    let tc = Instant::now();
    sessions
        .session(&scenario(0))
        .calibrated(cfg.kind, Placement::L2)
        .map_err(|e| format!("calibration: {e}"))?;
    let calib_ms = tc.elapsed().as_secs_f64() * 1e3;
    black_box(srp::build_victim(GROUP_BITS, GROUP_BITS));
    let held: Vec<Session<'_>> =
        (0..threads).map(|i| sessions.session(&scenario(i as u64))).collect();
    drop(held);
    let secs = t0.elapsed().as_secs_f64();
    Ok((sessions, secs, calib_ms))
}

pub fn run(cfg: &RunCfg) -> Result<Report, String> {
    let keys = keys(cfg.seed);
    let (sessions, setup_s, calib_ms) = repeat_setup(SETUPS, || setup(cfg.threads))?;
    let mut report = Report::default();
    let first = measure(cfg, SessionCounts::of(&sessions), &mut report, |runner, traced| {
        pass(runner, &sessions, &keys, traced, cfg.trace)
    });
    if cfg.trace {
        report.metrics.insert("calib.ms".into(), calib_ms);
        return Ok(report);
    }
    let (leak, mastik) = first.leakage();
    if cfg.seed == 0 {
        check_table2(cfg, leak, mastik, &mut report);
    }
    report.metrics.insert("setup_s".into(), setup_s);
    report.metrics.insert("wall_s".into(), stats::median(&report.walls));
    report.metrics.insert("leak_pct".into(), leak * 100.0);
    Ok(report)
}

/// Seed 0 must reproduce table2's own 2048-bit cell: run that unit of the
/// harness at paper scale and compare its CSV cells with this run's means.
fn check_table2(cfg: &RunCfg, leak: f64, mastik: f64, report: &mut Report) {
    let unit = SrpGroup::PAPER_SIZES.iter().position(|g| *g == GROUP_BITS);
    let csv = harness::experiment_csv(
        "table2",
        Mode::Full,
        Some(unit.into_iter().collect()),
        cfg.runner(),
        &cfg.scratch.join("table2"),
    );
    let want = [format!("{}%", f(leak * 100.0, 0)), format!("{}%", f(mastik * 100.0, 0))];
    let ok = match &csv {
        Ok(text) => harness::csv_rows(text)
            .iter()
            .any(|r| r.len() == 3 && r[0] == GROUP_BITS.to_string() && r[1..] == want[..]),
        Err(_) => false,
    };
    report.check(ok, || format!("table2's {GROUP_BITS}-bit row ({csv:?}) does not read {want:?}"));
}
