//! Criterion benches over the experiment building blocks — one per paper
//! artifact family — so attack-layer performance regressions surface. The
//! printing harnesses live in `src/bin/`; these bench the underlying
//! pipelines on the path the harnesses use: one session registry, so
//! machines come from its pool and thresholds from its calibration cache.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use smack::channel::{random_payload, run_channel_in, ChannelSpec};
use smack::characterize::{figure1, figure2};
use smack::ispectre::{leak_secret_in, ISpectreConfig};
use smack::rsa::{self, RsaAttackConfig};
use smack::srp::{self, SrpAttackConfig};
use smack::{Scenario, Sessions};
use smack_crypto::Bignum;
use smack_uarch::{Machine, MicroArch, ProbeKind, ThreadId};

fn bench_experiments(c: &mut Criterion) {
    let mut g = c.benchmark_group("experiments");
    g.sample_size(10);
    let sessions = Sessions::new();

    // Figure 1 family: the timing characterization sweep.
    g.bench_function("fig1_characterization", |b| {
        b.iter(|| {
            let mut m = Machine::new(MicroArch::CascadeLake.profile());
            figure1(&mut m, ThreadId::T0, 20).unwrap()
        })
    });

    // Figure 2 family: the counter profiling sweep.
    g.bench_function("fig2_counters", |b| {
        b.iter(|| {
            let mut m = Machine::new(MicroArch::CascadeLake.profile());
            figure2(&mut m, ThreadId::T0, 50).unwrap()
        })
    });

    // Table 1 / Figure 3 family: a covert-channel transmission.
    let payload = random_payload(64, 3);
    let spec = ChannelSpec::flush_reload(ProbeKind::Flush);
    let scenario = Scenario::new(MicroArch::CascadeLake);
    g.bench_function("table1_channel_64bits", |b| {
        b.iter(|| run_channel_in(&mut sessions.session(&scenario), &spec, &payload, false).unwrap())
    });

    // Figures 4-5 family: one RSA attack trace + decode.
    let mut rng = SmallRng::seed_from_u64(5);
    let exp = Bignum::random_bits(&mut rng, 96);
    let rsa_cfg = RsaAttackConfig::new(ProbeKind::Flush);
    let victim = rsa::build_victim(&rsa_cfg);
    let scenario = Scenario::new(MicroArch::TigerLake).with_noise(rsa_cfg.noise).with_seed(9);
    g.bench_function("fig5_rsa_trace_96b", |b| {
        b.iter(|| {
            let mut session = sessions.session(&scenario);
            let t = rsa::collect_trace_in(&mut session, &victim, &exp, &rsa_cfg).unwrap();
            rsa::decode_trace(&t, exp.bit_len())
        })
    });

    // Table 2 / Figure 6 family: one SRP single-trace attack.
    let srp_b = Bignum::random_bits(&mut rng, 96);
    let srp_cfg = SrpAttackConfig::new(2048);
    let scenario = Scenario::new(MicroArch::TigerLake).with_noise(srp_cfg.noise).with_seed(7);
    g.bench_function("table2_srp_trace_96b", |b| {
        b.iter(|| {
            let mut session = sessions.session(&scenario);
            srp::single_trace_attack_in(&mut session, &srp_b, &srp_cfg).unwrap().leakage
        })
    });

    // Tables 3-4 family: one ISpectre byte.
    let spectre_cfg = ISpectreConfig::new(ProbeKind::Store);
    let scenario =
        Scenario::new(MicroArch::CascadeLake).with_noise(spectre_cfg.noise).with_seed(12);
    g.bench_function("table4_ispectre_byte", |b| {
        b.iter(|| leak_secret_in(&mut sessions.session(&scenario), b"A", &spectre_cfg).unwrap())
    });

    // Section 6.1 family: one detection window pair.
    let det_cfg = smack_detection::DetectionConfig {
        window_cycles: 40_000,
        windows_per_run: 2,
        ..Default::default()
    };
    g.bench_function("table5_detection_windows", |b| {
        b.iter(|| {
            smack_detection::attack_windows(
                MicroArch::CascadeLake,
                smack_detection::AttackLoop::PrimeProbe(ProbeKind::Store),
                &det_cfg,
                13,
            )
            .unwrap()
        })
    });

    g.finish();
}

criterion_group!(benches, bench_experiments);
criterion_main!(benches);
