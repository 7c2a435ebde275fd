//! The fused probe tier must be invisible to everything built on top of
//! [`Prober`]: measurements, waits, calibration thresholds, and whole
//! covert-channel transmissions must be bit-identical whether probe
//! sequences retire through the fused engine pass ([`Tier::Fast`]) or
//! per-step injection (both per-step tiers, which must never fuse).
//! Channels and the SRP monitors run in sessions from
//! [`Sessions::with_exec`], which puts the calibration machine on the same
//! tier as the trial machine.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use smack::channel::run_channel_in;
use smack::rsa::{self, RsaAttackConfig};
use smack::srp::{self, SrpAttackConfig};
use smack::{calibrate_with_cold, ChannelSpec, Prober, Scenario, Sessions};
use smack_crypto::Bignum;
use smack_mastik::MastikMonitor;
use smack_uarch::{
    Addr, ExecConfig, Machine, MicroArch, NoiseConfig, PerfEvent, Placement, ProbeKind, ThreadId,
    Tier,
};

const T0: ThreadId = ThreadId::T0;
const T1: ThreadId = ThreadId::T1;
const SCRATCH: Addr = Addr(0x3_0000);

/// The tiers that execute every probe per-step.
const PER_STEP: [Tier; 2] = [Tier::Decoded, Tier::Reference];

fn machine(tier: Tier) -> Machine {
    let mut m = Machine::new(MicroArch::CascadeLake.profile());
    m.set_exec(ExecConfig { tier, ..ExecConfig::DEFAULT });
    m
}

fn noisy_machine(tier: Tier, seed: u64) -> Machine {
    let mut m =
        Machine::with_noise(MicroArch::CascadeLake.profile(), NoiseConfig::realistic(), seed);
    m.set_exec(ExecConfig { tier, ..ExecConfig::DEFAULT });
    m
}

fn fast_path_count(m: &Machine) -> u64 {
    m.counters(T0).read(PerfEvent::SimProbeFastPath)
}

/// Counter values both configurations must agree on: every hardware
/// event of both threads (the simulated ones count how the engine ran).
fn hw_counters(m: &Machine) -> Vec<(&'static str, u64)> {
    let mut out = Vec::new();
    for tid in [T0, T1] {
        for e in PerfEvent::ALL {
            if !e.is_simulated() {
                out.push((e.name(), m.counters(tid).read(e)));
            }
        }
    }
    out
}

/// One measurement loop shared by both configurations: every probe class
/// against hot and cold placements, with prime→probe waits in between.
fn measure_all_kinds(m: &mut Machine) -> Vec<(ProbeKind, u64, u64)> {
    // A real routine at the scratch line, so the Execute probe has
    // something to call (and write-class probes hit an instruction line).
    let oracle = smack::OraclePage::build(SCRATCH, 1);
    oracle.install(m);
    let line = oracle.line(0);
    let mut prober = Prober::new(T0);
    m.warm_tlb(T0, line);
    let mut out = Vec::new();
    for kind in ProbeKind::ALL {
        for placement in [Placement::L1i, Placement::L2, Placement::DramOnly] {
            m.place_line(line, placement);
            let t = prober.measure(m, kind, line).expect("CascadeLake supports all classes");
            prober.wait(m, 700).expect("wait");
            out.push((t.kind, t.cycles, m.clock(T0)));
        }
    }
    out
}

#[test]
fn prober_measurements_match_per_step_for_all_kinds() {
    let mut fused = machine(Tier::Fast);
    let a = measure_all_kinds(&mut fused);
    // Every class took the fast path (Execute's callee is a `nop*; ret`
    // oracle line); the per-step machines never did.
    assert_eq!(fast_path_count(&fused), ProbeKind::ALL.len() as u64 * 3);
    for tier in PER_STEP {
        let mut stepped = machine(tier);
        let b = measure_all_kinds(&mut stepped);
        assert_eq!(a, b, "probe timings or clocks diverged under {tier:?}");
        assert_eq!(hw_counters(&fused), hw_counters(&stepped), "{tier:?}");
        assert_eq!(fast_path_count(&stepped), 0, "{tier:?} took a fused path");
    }
}

#[test]
fn prober_measurements_match_under_noise() {
    for seed in [1u64, 42, 0xdead_beef] {
        let mut fused = noisy_machine(Tier::Fast, seed);
        let a = measure_all_kinds(&mut fused);
        for tier in PER_STEP {
            let mut stepped = noisy_machine(tier, seed);
            assert_eq!(a, measure_all_kinds(&mut stepped), "seed {seed} diverged under {tier:?}");
            assert_eq!(
                hw_counters(&fused),
                hw_counters(&stepped),
                "seed {seed} counters diverged under {tier:?}"
            );
            assert_eq!(fast_path_count(&stepped), 0, "{tier:?} took a fused path");
        }
    }
}

#[test]
fn prober_wait_matches_chunked_advance() {
    for tier in PER_STEP {
        let mut fused = machine(Tier::Fast);
        let mut stepped = machine(tier);
        let mut pf = Prober::new(T0);
        let mut ps = Prober::new(T0);
        for cycles in [0u64, 1, 199, 200, 201, 1_000, 123_457] {
            pf.wait(&mut fused, cycles).unwrap();
            ps.wait(&mut stepped, cycles).unwrap();
            assert_eq!(fused.clock(T0), stepped.clock(T0), "after wait({cycles}) on {tier:?}");
        }
        assert_eq!(hw_counters(&fused), hw_counters(&stepped), "{tier:?}");
    }
}

#[test]
fn calibrated_thresholds_unchanged_under_fusion() {
    for cold in [Placement::L2, Placement::DramOnly] {
        for kind in ProbeKind::ALL {
            let calibrate = |tier| {
                calibrate_with_cold(&mut machine(tier), T0, kind, SCRATCH, 16, cold).unwrap()
            };
            let a = calibrate(Tier::Fast);
            for tier in PER_STEP {
                assert_eq!(
                    a,
                    calibrate(tier),
                    "{kind} calibration diverged under {tier:?}, {cold:?}"
                );
            }
        }
    }
}

#[test]
fn covert_channel_reports_identical_under_fusion() {
    let payload: Vec<bool> = (0..48).map(|i| i % 3 == 0).collect();
    for spec in
        [ChannelSpec::prime_probe(ProbeKind::Store), ChannelSpec::flush_reload(ProbeKind::Flush)]
    {
        // The report plus the trial machine's fused-probe count.
        let transmit = |tier| {
            let sessions = Sessions::with_exec(ExecConfig { tier, ..ExecConfig::DEFAULT });
            let mut session = sessions.session(&Scenario::new(MicroArch::CascadeLake));
            let report = run_channel_in(&mut session, &spec, &payload, true).unwrap();
            (report, fast_path_count(session.machine()))
        };
        let (a, fused) = transmit(Tier::Fast);
        assert!(fused > 0, "{}: channel never took the fast path", spec.name());
        for tier in PER_STEP {
            let (b, stepped) = transmit(tier);
            assert_eq!(a, b, "{} diverged under {tier:?}", spec.name());
            assert_eq!(stepped, 0, "{}: {tier:?} took a fused path", spec.name());
        }
    }
}

/// The co-run shape of table2: the SRP victim runs on the sibling thread
/// while Prime+iStore and then the Mastik baseline sample it, under the
/// noisy model. Samples must be identical on every tier, and on
/// [`Tier::Fast`] every probe, call and wait must fuse beside the running
/// victim, and the victim's `sqr_n`/`mul_n` loops must take the
/// counted-loop path under both samplers — a guard that quietly stops
/// co-run fusion fails here.
#[test]
fn srp_co_run_samples_identical_and_fully_fused() {
    const GROUP: usize = 1024;
    let mut rng = SmallRng::seed_from_u64(0x7b);
    let b = Bignum::random_bits(&mut rng, 160);
    let cfg = SrpAttackConfig { noise: NoiseConfig::noisy(), ..SrpAttackConfig::new(GROUP) };
    let scenario = Scenario::new(MicroArch::TigerLake).with_noise(cfg.noise).with_seed(5);
    // (Prime+iStore samples, Mastik samples, fast-path and fallback
    // counts, loop-path retirements under each sampler)
    let run = |tier| {
        let sessions = Sessions::with_exec(ExecConfig { tier, ..ExecConfig::DEFAULT });
        let mut session = sessions.session(&scenario);
        let smc = srp::single_trace_attack_in(&mut session, &b, &cfg).unwrap().samples;
        let mut counts = sim_counts(session.machine());
        let smc_loop = loop_fused(session.machine());
        session.renew(5);
        let m = session.machine();
        let victim = srp::build_victim(GROUP, b.bit_len());
        m.load_program(&victim.program);
        let mut monitor = MastikMonitor::new(m, T0, 0x0a50_0000, victim.mul_set, 600).unwrap();
        let sampler = |m: &mut Machine| monitor.sample(m).map_err(|e| e.to_string());
        let mastik = srp::collect_events(m, &victim, &b, sampler, 10_000).unwrap();
        let (fast, fallback) = sim_counts(m);
        counts = (counts.0 + fast, counts.1 + fallback);
        (smc, mastik, counts, (smc_loop, loop_fused(m)))
    };
    let (smc, mastik, (fast, fallback), (smc_loop, mastik_loop)) = run(Tier::Fast);
    assert!(smc.len() > 100 && mastik.len() > 100, "{} / {} samples", smc.len(), mastik.len());
    assert!(fast > 0);
    assert_eq!(fallback, 0, "a co-run probe, call or wait fell back to per-step");
    assert!(smc_loop > 0, "the victim's loops never fused beside Prime+iStore");
    assert!(mastik_loop > 0, "the victim's loops never fused beside Mastik");
    for tier in PER_STEP {
        let (s, m, (fast, _), loops) = run(tier);
        assert_eq!(s, smc, "Prime+iStore samples diverged under {tier:?}");
        assert_eq!(m, mastik, "Mastik samples diverged under {tier:?}");
        assert_eq!(fast, 0, "{tier:?} took a fused path");
        assert_eq!(loops, (0, 0), "{tier:?} took the loop path");
    }
}

/// The fig5 victim (binary left-to-right RSA) decrypting alone: the same
/// schedule log, clock and hardware counters on every tier, and on
/// [`Tier::Fast`] its `sqr_n`/`mul_n` loops take the counted-loop path.
#[test]
fn lone_rsa_victim_identical_and_loop_fused() {
    let victim = rsa::build_victim(&RsaAttackConfig::new(ProbeKind::Flush));
    let exp = Bignum::random_bits(&mut SmallRng::seed_from_u64(0x5a), 64);
    let run = |tier| {
        let mut m = noisy_machine(tier, 9);
        m.load_program(&victim.program);
        victim.start(&mut m, T1, &exp);
        m.run_until_halt(T1, 50_000_000).unwrap();
        ((victim.read_log(&m, T1), m.clock(T1), hw_counters(&m)), loop_fused(&m))
    };
    let (fast, fused) = run(Tier::Fast);
    assert!(fused > 0, "the lone victim's loops never fused");
    for tier in PER_STEP {
        let (stepped, fused) = run(tier);
        assert_eq!(stepped, fast, "lone victim diverged under {tier:?}");
        assert_eq!(fused, 0, "{tier:?} took the loop path");
    }
}

/// Instructions the counted-loop path retired (both threads).
fn loop_fused(m: &Machine) -> u64 {
    m.counters_total().read(PerfEvent::SimLoopFused)
}

/// The attacker thread's `(SimProbeFastPath, SimProbeFallback)` counts.
fn sim_counts(m: &Machine) -> (u64, u64) {
    let c = m.counters(T0);
    (c.read(PerfEvent::SimProbeFastPath), c.read(PerfEvent::SimProbeFallback))
}
