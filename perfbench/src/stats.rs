//! Small statistics, digests and per-operation guards shared by the
//! workloads.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use smack::session::Sessions;
use smack_uarch::{Machine, PerfEvent, ThreadId};

use crate::Metrics;

/// 64-bit FNV-1a: a stable digest of simulated outputs.
#[derive(Copy, Clone, Debug)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn value(&self) -> u64 {
        self.0
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Digest of a sample trace `(attacker clock, active)`.
pub fn samples_digest(samples: &[(u64, bool)]) -> u64 {
    let mut d = Fnv::new();
    for (at, active) in samples {
        d.u64(*at);
        d.bytes(&[u8::from(*active)]);
    }
    d.value()
}

/// Exact simulator statistics of the machines a workload holds: the
/// `uarch` layer's counts.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct SimCounts {
    /// `INST_RETIRED.ANY`, both hardware threads.
    pub inst: u64,
    /// Simulated cycles: the later of the two thread clocks, per machine run.
    pub cycles: u64,
    /// Probe sequences retired by the fused probe tier.
    pub fused: u64,
    /// Probe sequences that fell back to per-step execution.
    pub fallback: u64,
    /// `MACHINE_CLEARS.SMC`.
    pub clears_smc: u64,
    /// Full decoded-program recompiles after code patches.
    pub recompiles: u64,
}

impl SimCounts {
    /// The counts one machine accumulated since its last reset.
    pub fn of(m: &Machine) -> SimCounts {
        let c = m.counters_total();
        SimCounts {
            inst: c.read(PerfEvent::InstRetired),
            cycles: m.clock(ThreadId::T0).max(m.clock(ThreadId::T1)),
            fused: c.read(PerfEvent::SimProbeFastPath),
            fallback: c.read(PerfEvent::SimProbeFallback),
            clears_smc: c.read(PerfEvent::MachineClearsSmc),
            recompiles: c.read(PerfEvent::SimPatchRecompiles),
        }
    }

    pub fn add(&mut self, o: SimCounts) {
        self.inst += o.inst;
        self.cycles += o.cycles;
        self.fused += o.fused;
        self.fallback += o.fallback;
        self.clears_smc += o.clears_smc;
        self.recompiles += o.recompiles;
    }

    pub fn digest(&self, d: &mut Fnv) {
        for v in
            [self.inst, self.cycles, self.fused, self.fallback, self.clears_smc, self.recompiles]
        {
            d.u64(v);
        }
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"inst_retired\":{},\"sim_cycles\":{},\"probe_fused\":{},\"probe_fallback\":{},\
             \"machine_clears_smc\":{},\"patch_recompiles\":{}}}",
            self.inst, self.cycles, self.fused, self.fallback, self.clears_smc, self.recompiles
        )
    }

    /// The `uarch.*` per-layer metrics for a pass that took `wall_s`.
    pub fn layer_metrics(&self, wall_s: f64, out: &mut Metrics) {
        let probes = self.fused + self.fallback;
        out.insert("uarch.inst_retired".into(), self.inst as f64);
        out.insert("uarch.sim_cycles".into(), self.cycles as f64);
        out.insert("uarch.ns_per_inst".into(), wall_s * 1e9 / self.inst.max(1) as f64);
        out.insert("uarch.probe_fused".into(), self.fused as f64);
        out.insert("uarch.probe_fallback".into(), self.fallback as f64);
        out.insert(
            "uarch.probe_fused_frac".into(),
            if probes == 0 { 0.0 } else { self.fused as f64 / probes as f64 },
        );
        out.insert("uarch.machine_clears_smc".into(), self.clears_smc as f64);
        out.insert("uarch.patch_recompiles".into(), self.recompiles as f64);
    }
}

/// Calibration-cache and machine-pool counters of a session registry:
/// the `session` layer's counts.
#[derive(Copy, Clone, Debug, Default)]
pub struct SessionCounts {
    computed: u64,
    hits: u64,
    built: u64,
    reused: u64,
}

impl SessionCounts {
    pub fn of(s: &Sessions) -> SessionCounts {
        let (cal, pool) = (s.calibrations(), s.pool().stats());
        SessionCounts {
            computed: cal.misses(),
            hits: cal.hits(),
            built: pool.built,
            reused: pool.reused,
        }
    }

    /// The counts accrued since `before`.
    pub fn since(&self, before: &SessionCounts) -> SessionCounts {
        SessionCounts {
            computed: self.computed - before.computed,
            hits: self.hits - before.hits,
            built: self.built - before.built,
            reused: self.reused - before.reused,
        }
    }

    /// Add these counts to the `calib.*` / `pool.*` metrics in `out`.
    pub fn add_to(&self, out: &mut Metrics) {
        for (name, v) in [
            ("calib.computed", self.computed),
            ("calib.hits", self.hits),
            ("pool.built", self.built),
            ("pool.reused", self.reused),
        ] {
            *out.entry(name.to_owned()).or_insert(0.0) += v as f64;
        }
    }
}

/// Run one operation, turning a panic into an error so that it counts as
/// one failed operation instead of ending the benchmark.
pub fn guarded<T>(op: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(op)) {
        Ok(r) => r,
        Err(p) => {
            let msg = p
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| p.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_owned());
            Err(format!("panic: {msg}"))
        }
    }
}

/// Nanoseconds since `t`.
pub fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// The `q`-quantile (0..=1) by linear interpolation between order
/// statistics; NaN for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}
