//! Burst scheduling and the interpreter tiers are pure mechanics:
//! `Machine` hands the engine `burst` steps at a time, but every step
//! makes the same causal-order thread choice the per-instruction
//! scheduler made, and the per-step tiers retire exactly what the fused
//! paths batch — so experiment output must be bit-identical under every
//! [`ExecConfig`]. These tests lock the contract at the experiment level
//! (covert-channel reports and RSA attack traces), running each in a
//! session from [`Sessions::with_exec`] so the calibration machine runs
//! under the same config as the trial machine;
//! `crates/bench/tests/exec_matrix.rs` locks it over the whole quick
//! repro.

use smack::channel::{random_payload, run_channel_in, ChannelSpec};
use smack::rsa::{build_victim, collect_trace_in, RsaAttackConfig};
use smack::{Scenario, Sessions};
use smack_crypto::Bignum;
use smack_uarch::{
    ExecConfig, Machine, MicroArch, NoiseConfig, PerfEvent, ProbeKind, ThreadId, Tier,
};

/// The configurations every experiment output must agree across:
/// [`ExecConfig::MATRIX`] (the default first, burst 1 — the historical
/// per-instruction scheduling — and the two per-step tiers) plus a
/// deliberately odd small burst.
fn configs() -> impl Iterator<Item = ExecConfig> {
    ExecConfig::MATRIX.into_iter().chain([ExecConfig::new(Tier::Fast, 3)])
}

/// A quiet Cascade Lake scenario seeded `seed`.
fn scenario(seed: u64) -> Scenario {
    Scenario::new(MicroArch::CascadeLake).with_noise(NoiseConfig::quiet()).with_seed(seed)
}

/// The per-step tiers must never take a fused path.
fn assert_fusion_matches_tier(m: &Machine, exec: ExecConfig) {
    let fast = m.counters(ThreadId::T0).read(PerfEvent::SimProbeFastPath);
    if exec.tier == Tier::Fast {
        assert!(fast > 0, "{exec:?} never took the fused path");
    } else {
        assert_eq!(fast, 0, "{exec:?} took a fused path");
    }
}

#[test]
fn channel_reports_identical_across_burst_sizes() {
    for spec in
        [ChannelSpec::prime_probe(ProbeKind::Store), ChannelSpec::flush_reload(ProbeKind::Flush)]
    {
        let payload = random_payload(48, 11);
        let mut baseline = None;
        for exec in configs() {
            let sessions = Sessions::with_exec(exec);
            let mut session = sessions.session(&scenario(7));
            let got = run_channel_in(&mut session, &spec, &payload, false).expect("channel runs");
            assert_fusion_matches_tier(session.machine(), exec);
            let base = baseline.get_or_insert_with(|| got.clone());
            assert_eq!(&got, base, "{} diverged under {exec:?}", spec.name());
        }
    }
}

#[test]
fn rsa_traces_identical_across_burst_sizes() {
    let cfg =
        RsaAttackConfig { noise: NoiseConfig::quiet(), ..RsaAttackConfig::new(ProbeKind::Store) };
    let victim = build_victim(&cfg);
    let exp = Bignum::from_hex("b5a96e1dc3f47a2b");
    let mut baseline = None;
    for exec in configs() {
        let sessions = Sessions::with_exec(exec);
        let mut session = sessions.session(&scenario(13));
        let got = collect_trace_in(&mut session, &victim, &exp, &cfg).expect("trace collects");
        assert!(!got.samples.is_empty(), "attack produced samples");
        assert_fusion_matches_tier(session.machine(), exec);
        let base = baseline.get_or_insert_with(|| got.clone());
        assert_eq!(&got, base, "trace diverged under {exec:?}");
    }
}
