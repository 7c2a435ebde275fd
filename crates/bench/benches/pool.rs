//! Session-layer micro-benches: what does the machine pool actually save?
//!
//! Compares a cold `Machine::new` per trial against a `MachinePool`
//! checkout (reset-in-place reuse), and one calibration pass (what a
//! calibration-cache miss computes) against a cache hit — the two
//! per-trial costs the session layer amortizes across an experiment
//! campaign.

use criterion::{criterion_group, criterion_main, Criterion};
use smack::calibrate_with_cold;
use smack::session::{Scenario, Sessions};
use smack_uarch::{
    Addr, Machine, MachinePool, MicroArch, NoiseConfig, Placement, ProbeKind, ThreadId,
};

fn bench_machine_acquisition(c: &mut Criterion) {
    let mut g = c.benchmark_group("session");
    let profile = MicroArch::CascadeLake.profile();

    g.bench_function("machine_new", |b| b.iter(|| Machine::new(MicroArch::CascadeLake.profile())));

    let pool = MachinePool::new();
    // Warm one shelf so the loop measures the steady-state reuse path.
    drop(pool.checkout(&profile, NoiseConfig::quiet(), 0));
    g.bench_function("pool_checkout", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            pool.checkout(&profile, NoiseConfig::quiet(), seed)
        })
    });
    g.finish();
}

fn bench_calibration(c: &mut Criterion) {
    let mut g = c.benchmark_group("calibration");
    let sessions = Sessions::new();
    let scenario = Scenario::new(MicroArch::CascadeLake);

    // The session layer's calibration parameters: 16 samples per state
    // against a scratch line, probing from thread 0.
    g.bench_function("calibration_pass", |b| {
        let mut m = Machine::new(MicroArch::CascadeLake.profile());
        b.iter(|| {
            let (kind, scratch) = (ProbeKind::Store, Addr(0x0dca_0000));
            calibrate_with_cold(&mut m, ThreadId::T0, kind, scratch, 16, Placement::L2).unwrap()
        })
    });

    g.bench_function("cache_hit", |b| {
        let session = sessions.session(&scenario);
        session.calibrated(ProbeKind::Store, Placement::L2).unwrap();
        b.iter(|| session.calibrated(ProbeKind::Store, Placement::L2).unwrap())
    });
    g.finish();
}

criterion_group!(benches, bench_machine_acquisition, bench_calibration);
criterion_main!(benches);
