//! The session layer: reusable machines plus a profile-keyed calibration
//! cache.
//!
//! SMaCk's methodology calibrates a probe's hot/cold decision threshold
//! **once per microarchitecture** and reuses it for the whole campaign
//! (paper §4, Figure 1) — the same one-time threshold discipline
//! Flush+Flush uses for its decision boundary. The experiment harnesses,
//! by contrast, historically paid a full `Machine` construction *and* a
//! fresh calibration pass per trial. This module separates experiment
//! *definition* from *execution*:
//!
//! * a [`Scenario`] says what a trial needs — microarchitecture (or an
//!   ablation-perturbed custom profile), noise model, machine seed;
//! * a [`Sessions`] registry owns a [`MachinePool`] of reset-and-reuse
//!   machines and a [`CalibrationCache`] of [`CalibratedProbe`]s computed
//!   once per `(profile, probe class, cold placement, noise)`;
//! * a [`Session`] is one checked-out machine plus access to the shared
//!   caches — what every trial closure receives.
//!
//! Calibration is computed on a *separate* pooled machine with a fixed
//! seed, never on the trial machine, so (a) the cached value is a pure
//! function of its key — a cache hit and a fresh computation are equal by
//! construction — and (b) a trial's RNG stream is identical whether its
//! calibration was a hit or a miss, which keeps parallel experiment output
//! bit-identical to sequential output. Ablations that perturb probe costs
//! get distinct profile fingerprints (and can force the issue with
//! [`Session::recalibrate`]).
//!
//! The cache optionally persists to disk ([`CalibrationCache::attach_disk`];
//! `SMACK_CALIB_DIR` attaches it to [`Sessions::global`]): one versioned,
//! profile-fingerprint-keyed file per microarchitecture, written when a
//! calibration is computed and consulted before computing. Sharded harness
//! runs point every worker process at the same directory so calibration
//! stays warm across processes, not just across trials — and because each
//! entry is a pure function of its key, loading a persisted value instead
//! of recomputing is unobservable in experiment output.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use smack_uarch::{
    Addr, ExecConfig, Machine, MachinePool, MicroArch, NoiseConfig, Placement, PooledMachine,
    ProbeKind, StepError, ThreadId, UarchProfile,
};

use crate::calibrate::{calibrate_with_cold, CalibratedProbe};

/// Seed for the dedicated calibration machines. Fixed so that a cached
/// calibration is a deterministic function of its cache key alone.
const CAL_SEED: u64 = 0xca11b;

/// Samples per state for session calibrations (matches the covert-channel
/// harness's historical sample count, the largest in the tree).
const CAL_SAMPLES: usize = 16;

/// Scratch oracle address for session calibrations (line-aligned, in the
/// same unused range the per-attack scratch constants live in).
const CAL_SCRATCH: Addr = Addr(0x0dca_0000);

/// Calibration machines always probe from thread 0, like every attacker
/// in the tree.
const CAL_THREAD: ThreadId = ThreadId::T0;

/// What one experiment trial needs from the session layer: which machine
/// to simulate, under which noise model, from which seed.
///
/// `Scenario::new(arch)` mirrors `Machine::new(profile)` — quiet noise and
/// the same default seed — so refactoring a `Machine::new` call site to a
/// scenario preserves its output bit-for-bit.
#[derive(Clone, Debug)]
pub struct Scenario {
    arch: MicroArch,
    profile: Option<UarchProfile>,
    noise: NoiseConfig,
    seed: u64,
}

/// `Machine::new`'s noise seed, kept in sync so scenario-built machines
/// match `Machine::new` exactly.
const DEFAULT_SEED: u64 = 0x5eed;

impl Scenario {
    /// A scenario on the stock profile for `arch`, with quiet noise and
    /// the `Machine::new` default seed.
    pub fn new(arch: MicroArch) -> Scenario {
        Scenario { arch, profile: None, noise: NoiseConfig::quiet(), seed: DEFAULT_SEED }
    }

    /// A scenario on a custom (e.g. ablation-perturbed) profile.
    pub fn custom(profile: UarchProfile) -> Scenario {
        Scenario {
            arch: profile.arch,
            profile: Some(profile),
            noise: NoiseConfig::quiet(),
            seed: DEFAULT_SEED,
        }
    }

    /// Replace the noise model.
    pub fn with_noise(mut self, noise: NoiseConfig) -> Scenario {
        self.noise = noise;
        self
    }

    /// Replace the machine seed.
    pub fn with_seed(mut self, seed: u64) -> Scenario {
        self.seed = seed;
        self
    }

    /// The microarchitecture.
    pub fn arch(&self) -> MicroArch {
        self.arch
    }

    /// The noise model.
    pub fn noise(&self) -> NoiseConfig {
        self.noise
    }

    /// The machine seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The full profile (custom if set, stock otherwise).
    pub fn profile(&self) -> UarchProfile {
        self.profile.clone().unwrap_or_else(|| self.arch.profile())
    }
}

/// Cache key: everything a calibration result depends on.
type CalKey = (u64, ProbeKind, Placement, u64);

/// Format version of the on-disk calibration files. Bump whenever the
/// calibration algorithm or the serialization changes; files with any
/// other version are ignored (and rewritten on the next store).
const DISK_FORMAT_VERSION: u32 = 1;

/// One profile's on-disk entries, ordered by `(kind, cold, noise)` so the
/// serialized file is byte-identical no matter which order the entries
/// were computed in.
type DiskEntries = BTreeMap<(usize, usize, u64), Result<CalibratedProbe, StepError>>;

/// The optional on-disk layer behind [`CalibrationCache`]: one versioned
/// file per profile fingerprint under the attached directory, written
/// whenever a calibration is computed and loaded (once per profile per
/// process) before computing — so a shard process spawned after another
/// has warmed the cache starts with every calibration already solved.
#[derive(Debug)]
struct DiskLayer {
    dir: PathBuf,
    /// Profile fingerprints whose file has been read this process.
    loaded: HashSet<u64>,
    /// In-memory mirror of each profile file (for whole-file rewrites).
    entries: HashMap<u64, DiskEntries>,
}

impl DiskLayer {
    fn file_for(&self, profile_fp: u64) -> PathBuf {
        self.dir.join(format!("v{DISK_FORMAT_VERSION}-{profile_fp:016x}.calib"))
    }

    /// Read a profile's file into the mirror, once per process. Corrupt,
    /// missing or version-mismatched files are treated as empty.
    fn ensure_loaded(&mut self, profile_fp: u64) {
        if !self.loaded.insert(profile_fp) {
            return;
        }
        let path = self.file_for(profile_fp);
        let entries = self.entries.entry(profile_fp).or_default();
        for (key, value) in read_profile_file(&path, profile_fp) {
            entries.entry(key).or_insert(value);
        }
    }

    /// Rewrite a profile's file atomically, merged with whatever is on
    /// disk *right now*. Concurrent workers sharing one `SMACK_CALIB_DIR`
    /// race here: each re-reads the file, folds its own entries over it,
    /// and renames a fresh temp file into place. Losing the rename race
    /// only means the winner's superset (values are pure functions of
    /// their key, so merge order cannot change any value) — never a lost
    /// update and never an error.
    fn persist(&self, profile_fp: u64) {
        let Some(entries) = self.entries.get(&profile_fp) else {
            return;
        };
        let path = self.file_for(profile_fp);
        let mut merged: DiskEntries = read_profile_file(&path, profile_fp).into_iter().collect();
        for (key, value) in entries {
            merged.insert(*key, value.clone());
        }
        let mut out =
            format!("# smack calibration cache v{DISK_FORMAT_VERSION} {profile_fp:016x}\n");
        for (key, value) in &merged {
            out.push_str(&serialize_disk_entry(*key, value));
            out.push('\n');
        }
        if std::fs::create_dir_all(&self.dir).is_err() {
            return;
        }
        let tmp = self.dir.join(format!(".tmp-{:016x}-{}", profile_fp, std::process::id()));
        if std::fs::write(&tmp, out).is_ok() {
            let _ = std::fs::rename(&tmp, path);
        }
    }
}

/// Parse a profile's on-disk cache file. Corrupt, missing or
/// version-mismatched files read as empty; corrupt lines are skipped.
/// Shared by the load path and the persist-time merge so both sides
/// agree on what the file says.
fn read_profile_file(path: &Path, profile_fp: u64) -> Vec<DiskEntry> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let mut lines = text.lines();
    let header = format!("# smack calibration cache v{DISK_FORMAT_VERSION} {profile_fp:016x}");
    if lines.next() != Some(header.as_str()) {
        return Vec::new();
    }
    lines.filter_map(parse_disk_entry).collect()
}

/// Stable index of a cold placement for serialization.
fn placement_index(p: Placement) -> usize {
    Placement::ALL.iter().position(|x| *x == p).expect("placement is in ALL")
}

/// `<kind> <cold> <noise> ok <threshold> <hot_is_high> <hot_mean> <cold_mean>`
/// or `<kind> <cold> <noise> unsupported <kind>`; floats as exact bit
/// patterns, everything else decimal/hex.
fn serialize_disk_entry(
    (kind, cold, noise): (usize, usize, u64),
    value: &Result<CalibratedProbe, StepError>,
) -> String {
    match value {
        Ok(c) => format!(
            "{kind} {cold} {noise:016x} ok {} {} {:016x} {:016x}",
            c.threshold,
            u8::from(c.hot_is_high),
            c.hot_mean.to_bits(),
            c.cold_mean.to_bits()
        ),
        Err(StepError::Unsupported { kind: k }) => {
            format!("{kind} {cold} {noise:016x} unsupported {}", k.index())
        }
        // Other errors are not deterministic cache material; they are
        // filtered out before reaching the disk layer.
        Err(_) => unreachable!("only Unsupported errors are persisted"),
    }
}

/// One parsed disk line: the `(kind, cold, noise)` key plus its value.
type DiskEntry = ((usize, usize, u64), Result<CalibratedProbe, StepError>);

fn parse_disk_entry(line: &str) -> Option<DiskEntry> {
    let mut f = line.split_ascii_whitespace();
    let kind_idx = f.next()?.parse::<usize>().ok()?;
    let cold_idx = f.next()?.parse::<usize>().ok()?;
    let noise = u64::from_str_radix(f.next()?, 16).ok()?;
    if kind_idx >= ProbeKind::ALL.len() || cold_idx >= Placement::ALL.len() {
        return None;
    }
    let value = match f.next()? {
        "ok" => {
            let threshold = f.next()?.parse::<u64>().ok()?;
            let hot_is_high = f.next()? == "1";
            let hot_mean = f64::from_bits(u64::from_str_radix(f.next()?, 16).ok()?);
            let cold_mean = f64::from_bits(u64::from_str_radix(f.next()?, 16).ok()?);
            Ok(CalibratedProbe {
                kind: ProbeKind::ALL[kind_idx],
                threshold,
                hot_is_high,
                hot_mean,
                cold_mean,
            })
        }
        "unsupported" => {
            let k = f.next()?.parse::<usize>().ok()?;
            if k >= ProbeKind::ALL.len() {
                return None;
            }
            Err(StepError::Unsupported { kind: ProbeKind::ALL[k] })
        }
        _ => return None,
    };
    if f.next().is_some() {
        return None;
    }
    Some(((kind_idx, cold_idx, noise), value))
}

/// One per-key compute slot. The `OnceLock` serializes concurrent misses
/// on the *same* key (the second thread blocks and reads the first's
/// result) while leaving distinct keys fully parallel — so a calibration
/// really runs at most once per key per process.
type CalSlot = Arc<OnceLock<Result<CalibratedProbe, StepError>>>;

/// The process-wide store of [`CalibratedProbe`]s, keyed by
/// `(profile fingerprint, probe class, cold placement, noise)`.
///
/// Unsupported-probe errors are cached too: they are just as deterministic
/// as successful calibrations, and an experiment sweeping all probe
/// classes hits the `×` cells repeatedly.
#[derive(Debug, Default)]
pub struct CalibrationCache {
    slots: Mutex<HashMap<CalKey, CalSlot>>,
    hits: AtomicU64,
    misses: AtomicU64,
    disk_hits: AtomicU64,
    disk: Mutex<Option<DiskLayer>>,
}

impl CalibrationCache {
    /// An empty cache.
    pub fn new() -> CalibrationCache {
        CalibrationCache::default()
    }

    /// Attach the persistent on-disk layer rooted at `dir` (one versioned
    /// file per profile fingerprint). From now on, a lookup that misses in
    /// memory consults the directory before calibrating, and every
    /// computed calibration is written back — so subsequent processes
    /// (e.g. later shards of a sharded run) start warm. Because a cached
    /// value is a pure function of its key, attaching the layer never
    /// changes any experiment output.
    pub fn attach_disk(&self, dir: impl Into<PathBuf>) {
        *self.disk.lock().expect("calibration disk layer poisoned") =
            Some(DiskLayer { dir: dir.into(), loaded: HashSet::new(), entries: HashMap::new() });
    }

    /// The attached disk directory, if any.
    pub fn disk_dir(&self) -> Option<PathBuf> {
        self.disk.lock().expect("calibration disk layer poisoned").as_ref().map(|d| d.dir.clone())
    }

    /// Lookups served from the in-memory cache so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to run a calibration so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Lookups served from the persistent on-disk layer so far (loaded
    /// instead of computed; counted once per key per process).
    pub fn disk_hits(&self) -> u64 {
        self.disk_hits.load(Ordering::Relaxed)
    }

    /// Disk-layer lookup for one key (loading the profile's file on first
    /// touch).
    fn disk_lookup(&self, key: CalKey) -> Option<Result<CalibratedProbe, StepError>> {
        let mut guard = self.disk.lock().expect("calibration disk layer poisoned");
        let layer = guard.as_mut()?;
        let (profile_fp, kind, cold, noise) = key;
        layer.ensure_loaded(profile_fp);
        layer.entries.get(&profile_fp)?.get(&(kind.index(), placement_index(cold), noise)).cloned()
    }

    /// Write one computed entry through to the disk layer (no-op without
    /// one, or for error values other than `Unsupported`, which are the
    /// only deterministic errors).
    fn disk_store(&self, key: CalKey, value: &Result<CalibratedProbe, StepError>) {
        if matches!(value, Err(e) if !matches!(e, StepError::Unsupported { .. })) {
            return;
        }
        let mut guard = self.disk.lock().expect("calibration disk layer poisoned");
        let Some(layer) = guard.as_mut() else {
            return;
        };
        let (profile_fp, kind, cold, noise) = key;
        layer.ensure_loaded(profile_fp);
        layer
            .entries
            .entry(profile_fp)
            .or_default()
            .insert((kind.index(), placement_index(cold), noise), value.clone());
        layer.persist(profile_fp);
    }

    /// Distinct keys resident in the cache.
    pub fn len(&self) -> usize {
        self.slots.lock().expect("calibration cache poisoned").len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn slot(&self, key: CalKey) -> CalSlot {
        self.slots.lock().expect("calibration cache poisoned").entry(key).or_default().clone()
    }

    fn replace(&self, key: CalKey, value: Result<CalibratedProbe, StepError>) {
        let slot: CalSlot = Arc::default();
        slot.set(value).expect("fresh slot is empty");
        self.slots.lock().expect("calibration cache poisoned").insert(key, slot);
    }
}

/// The shared session registry: one machine pool plus one calibration
/// cache, and the [`ExecConfig`] every machine it hands out runs under.
/// Experiment harnesses use the process-wide [`Sessions::global`]; tests
/// build private registries to observe counters in isolation or to run
/// under another execution config.
#[derive(Debug, Default)]
pub struct Sessions {
    pool: MachinePool,
    calibrations: CalibrationCache,
    exec: ExecConfig,
}

impl Sessions {
    /// An empty registry.
    pub fn new() -> Sessions {
        Sessions::default()
    }

    /// An empty registry whose every checkout — trial sessions,
    /// [`Session::renew`] and calibration machines alike — runs under
    /// `exec`. Output is bit-identical under every config, so this only
    /// trades speed; the equivalence tests use it to run whole
    /// experiments on each tier.
    pub fn with_exec(exec: ExecConfig) -> Sessions {
        Sessions { exec, ..Sessions::default() }
    }

    /// The process-wide registry. All `fig*`/`table*` experiments draw
    /// from this one, so machine reuse and cached calibrations span the
    /// whole `all` run: calibration cost drops from
    /// O(trials × probe classes) to O(profiles × probe classes).
    ///
    /// When the `SMACK_CALIB_DIR` environment variable names a directory,
    /// the persistent calibration layer is attached on first use — the
    /// mechanism sharded harness runs use to share calibrations across
    /// their worker processes (see [`CalibrationCache::attach_disk`]).
    pub fn global() -> &'static Sessions {
        static GLOBAL: OnceLock<Sessions> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let sessions = Sessions::new();
            if let Ok(dir) = std::env::var("SMACK_CALIB_DIR") {
                if !dir.is_empty() {
                    sessions.attach_disk_cache(dir);
                }
            }
            sessions
        })
    }

    /// Attach the persistent calibration layer rooted at `dir` — see
    /// [`CalibrationCache::attach_disk`].
    pub fn attach_disk_cache(&self, dir: impl AsRef<Path>) {
        self.calibrations.attach_disk(dir.as_ref().to_path_buf());
    }

    /// Check out a session for `scenario`: a pooled machine in the exact
    /// `Machine::with_noise(profile, noise, seed)` state, running under
    /// this registry's [`ExecConfig`], plus access to the shared
    /// calibration cache.
    pub fn session(&self, scenario: &Scenario) -> Session<'_> {
        let profile = scenario.profile();
        let profile_fp = profile.fingerprint();
        let mut machine = self.pool.checkout(&profile, scenario.noise, scenario.seed);
        machine.set_exec(self.exec);
        Session { machine, owner: self, scenario: scenario.clone(), profile_fp }
    }

    /// The machine pool (for stats and diagnostics).
    pub fn pool(&self) -> &MachinePool {
        &self.pool
    }

    /// The calibration cache (for stats and diagnostics).
    pub fn calibrations(&self) -> &CalibrationCache {
        &self.calibrations
    }

    fn calibrated(
        &self,
        scenario: &Scenario,
        profile_fp: u64,
        kind: ProbeKind,
        cold: Placement,
        noise: NoiseConfig,
    ) -> Result<CalibratedProbe, StepError> {
        let key = (profile_fp, kind, cold, noise.fingerprint());
        let slot = self.calibrations.slot(key);
        // 0 = served from memory, 1 = loaded from disk, 2 = computed.
        let mut outcome = 0u8;
        let result = slot.get_or_init(|| {
            if let Some(loaded) = self.calibrations.disk_lookup(key) {
                outcome = 1;
                loaded
            } else {
                outcome = 2;
                let computed = self.compute(scenario, kind, cold, noise);
                self.calibrations.disk_store(key, &computed);
                computed
            }
        });
        match outcome {
            0 => self.calibrations.hits.fetch_add(1, Ordering::Relaxed),
            1 => self.calibrations.disk_hits.fetch_add(1, Ordering::Relaxed),
            _ => self.calibrations.misses.fetch_add(1, Ordering::Relaxed),
        };
        result.clone()
    }

    fn recalibrated(
        &self,
        scenario: &Scenario,
        profile_fp: u64,
        kind: ProbeKind,
        cold: Placement,
        noise: NoiseConfig,
    ) -> Result<CalibratedProbe, StepError> {
        let key = (profile_fp, kind, cold, noise.fingerprint());
        let result = self.compute(scenario, kind, cold, noise);
        self.calibrations.misses.fetch_add(1, Ordering::Relaxed);
        self.calibrations.replace(key, result.clone());
        self.calibrations.disk_store(key, &result);
        result
    }

    /// Run one calibration on a dedicated pooled machine with the fixed
    /// [`CAL_SEED`], so the result depends only on (profile, kind, cold,
    /// noise) — never on trial state.
    fn compute(
        &self,
        scenario: &Scenario,
        kind: ProbeKind,
        cold: Placement,
        noise: NoiseConfig,
    ) -> Result<CalibratedProbe, StepError> {
        let profile = scenario.profile();
        let mut machine = self.pool.checkout(&profile, noise, CAL_SEED);
        machine.set_exec(self.exec);
        calibrate_with_cold(&mut machine, CAL_THREAD, kind, CAL_SCRATCH, CAL_SAMPLES, cold)
    }
}

/// One trial's execution context: a pooled machine plus the shared
/// calibration cache. Obtained from [`Sessions::session`]; the machine
/// returns to the pool when the session drops.
#[derive(Debug)]
pub struct Session<'s> {
    machine: PooledMachine<'s>,
    owner: &'s Sessions,
    scenario: Scenario,
    profile_fp: u64,
}

impl Session<'_> {
    /// The machine, in whatever state the trial has driven it to.
    pub fn machine(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// The scenario this session was checked out for (its seed tracks
    /// [`Session::renew`]).
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Reset the machine to the cold start state under a new seed — the
    /// in-trial equivalent of checking out a fresh session, used by
    /// experiments that collect several independent traces per trial.
    pub fn renew(&mut self, seed: u64) {
        self.scenario.seed = seed;
        self.machine.reset(self.scenario.noise, seed);
        self.machine.set_exec(self.owner.exec);
    }

    /// Guard for the `_in` attack entry points: the session must have
    /// been checked out under the attack config's noise model, or cached
    /// calibrations and the machine's RNG stream would silently disagree
    /// with the config. A hard error (not a debug assertion) because the
    /// harnesses only ever run in release builds.
    ///
    /// # Errors
    ///
    /// Returns a description of the mismatch.
    pub fn require_noise(&self, noise: NoiseConfig) -> Result<(), String> {
        if self.scenario.noise.fingerprint() == noise.fingerprint() {
            Ok(())
        } else {
            Err(format!(
                "session noise {:?} does not match the attack's noise model {:?}",
                self.scenario.noise, noise
            ))
        }
    }

    /// The cached [`CalibratedProbe`] for `(profile, kind, cold)` under
    /// the scenario's noise model, calibrating on a dedicated machine on
    /// first use. Never touches this session's machine or RNG stream.
    ///
    /// # Errors
    ///
    /// Returns [`StepError::Unsupported`] (cached, like successes) when
    /// the profile lacks the probe instruction.
    pub fn calibrated(
        &self,
        kind: ProbeKind,
        cold: Placement,
    ) -> Result<CalibratedProbe, StepError> {
        self.calibrated_for(kind, cold, self.scenario.noise)
    }

    /// Like [`Session::calibrated`], but under an explicit noise model —
    /// for harnesses that switch the machine's noise after checkout (the
    /// covert channels force `noisy`).
    ///
    /// # Errors
    ///
    /// Returns [`StepError::Unsupported`] when the profile lacks the
    /// probe instruction.
    pub fn calibrated_for(
        &self,
        kind: ProbeKind,
        cold: Placement,
        noise: NoiseConfig,
    ) -> Result<CalibratedProbe, StepError> {
        self.owner.calibrated(&self.scenario, self.profile_fp, kind, cold, noise)
    }

    /// Force a fresh calibration and overwrite the cache entry — the
    /// escape hatch for ablations that perturb probe costs behind the
    /// cache's back (a perturbed *profile* already gets its own key; this
    /// is for perturbations the profile fingerprint cannot see).
    ///
    /// # Errors
    ///
    /// Returns [`StepError::Unsupported`] when the profile lacks the
    /// probe instruction.
    pub fn recalibrate(
        &self,
        kind: ProbeKind,
        cold: Placement,
    ) -> Result<CalibratedProbe, StepError> {
        self.owner.recalibrated(&self.scenario, self.profile_fp, kind, cold, self.scenario.noise)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_defaults_mirror_machine_new() {
        let s = Scenario::new(MicroArch::CascadeLake);
        assert_eq!(s.seed(), 0x5eed);
        assert_eq!(s.noise().fingerprint(), NoiseConfig::quiet().fingerprint());
    }

    #[test]
    fn exec_config_survives_checkout_and_renew() {
        let exec = ExecConfig::new(smack_uarch::Tier::Reference, 1);
        let sessions = Sessions::with_exec(exec);
        let scenario = Scenario::new(MicroArch::CascadeLake);
        for _ in 0..2 {
            let mut session = sessions.session(&scenario);
            assert_eq!(session.machine().exec(), exec);
            session.renew(7);
            assert_eq!(session.machine().exec(), exec);
        }
        assert_eq!(sessions.pool().stats().reused, 1, "second checkout reset a pooled machine");
        assert_eq!(Sessions::new().session(&scenario).machine().exec(), ExecConfig::DEFAULT);
    }

    #[test]
    fn calibration_runs_once_per_key() {
        let sessions = Sessions::new();
        let scenario = Scenario::new(MicroArch::CascadeLake);
        let mut probes = Vec::new();
        for seed in 0..5 {
            let session = sessions.session(&scenario.clone().with_seed(seed));
            probes.push(session.calibrated(ProbeKind::Store, Placement::L2).unwrap());
        }
        assert_eq!(sessions.calibrations().misses(), 1, "one compute for five trials");
        assert_eq!(sessions.calibrations().hits(), 4);
        assert!(probes.windows(2).all(|w| w[0] == w[1]), "cached values are stable");
    }

    #[test]
    fn distinct_keys_calibrate_separately() {
        let sessions = Sessions::new();
        let scenario = Scenario::new(MicroArch::CascadeLake);
        let session = sessions.session(&scenario);
        session.calibrated(ProbeKind::Store, Placement::L2).unwrap();
        session.calibrated(ProbeKind::Store, Placement::DramOnly).unwrap();
        session.calibrated(ProbeKind::Flush, Placement::L2).unwrap();
        session.calibrated_for(ProbeKind::Store, Placement::L2, NoiseConfig::noisy()).unwrap();
        assert_eq!(sessions.calibrations().misses(), 4);
        assert_eq!(sessions.calibrations().len(), 4);
    }

    #[test]
    fn cached_equals_freshly_computed() {
        let sessions = Sessions::new();
        let session = sessions.session(&Scenario::new(MicroArch::TigerLake));
        for kind in [ProbeKind::Store, ProbeKind::Flush, ProbeKind::Lock] {
            for cold in [Placement::L2, Placement::DramOnly] {
                let cached = session.calibrated(kind, cold).unwrap();
                let fresh = session.recalibrate(kind, cold).unwrap();
                assert_eq!(cached, fresh, "{kind}/{cold}");
            }
        }
    }

    #[test]
    fn unsupported_probes_cache_their_error() {
        let sessions = Sessions::new();
        let session = sessions.session(&Scenario::new(MicroArch::SandyBridge));
        for _ in 0..3 {
            let err = session.calibrated(ProbeKind::FlushOpt, Placement::L2).unwrap_err();
            assert_eq!(err, StepError::Unsupported { kind: ProbeKind::FlushOpt });
        }
        assert_eq!(sessions.calibrations().misses(), 1);
        assert_eq!(sessions.calibrations().hits(), 2);
    }

    #[test]
    fn custom_profiles_do_not_share_cache_entries() {
        let sessions = Sessions::new();
        let stock = sessions.session(&Scenario::new(MicroArch::CascadeLake));
        let a = stock.calibrated(ProbeKind::Store, Placement::L2).unwrap();

        let mut profile = MicroArch::CascadeLake.profile();
        let mut costs = profile.probe_costs.get(ProbeKind::Store);
        costs.smc_extra += 100;
        profile.probe_costs.set(ProbeKind::Store, costs);
        let perturbed = sessions.session(&Scenario::custom(profile));
        let b = perturbed.calibrated(ProbeKind::Store, Placement::L2).unwrap();

        assert_eq!(sessions.calibrations().misses(), 2, "perturbed profile is its own key");
        assert!(b.threshold > a.threshold, "perturbed costs shift the threshold");
    }

    /// A scratch directory for one disk-cache test, cleaned on entry.
    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("smack-calib-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn disk_cache_round_trips_across_instances() {
        let dir = scratch_dir("roundtrip");
        let scenario = Scenario::new(MicroArch::CascadeLake);

        // First process: computes and persists.
        let first = Sessions::new();
        first.attach_disk_cache(&dir);
        let computed = first
            .session(&scenario)
            .calibrated(ProbeKind::Store, Placement::L2)
            .expect("calibrates");
        assert_eq!(first.calibrations().misses(), 1);
        assert_eq!(first.calibrations().disk_hits(), 0);
        let files: Vec<_> = std::fs::read_dir(&dir).expect("cache dir exists").collect();
        assert_eq!(files.len(), 1, "one profile-keyed file");

        // Second process (fresh registry, same directory): loads, never
        // computes, and the loaded value equals the computed one exactly.
        let second = Sessions::new();
        second.attach_disk_cache(&dir);
        let loaded = second
            .session(&scenario)
            .calibrated(ProbeKind::Store, Placement::L2)
            .expect("loads from disk");
        assert_eq!(loaded, computed, "disk hit == computed value");
        assert_eq!(second.calibrations().misses(), 0, "nothing recomputed");
        assert_eq!(second.calibrations().disk_hits(), 1);
        // Further lookups of the same key stay in-memory hits.
        second.session(&scenario).calibrated(ProbeKind::Store, Placement::L2).expect("memory hit");
        assert_eq!(second.calibrations().disk_hits(), 1);
        assert_eq!(second.calibrations().hits(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_cache_round_trips_unsupported_errors() {
        let dir = scratch_dir("unsupported");
        let scenario = Scenario::new(MicroArch::SandyBridge);
        let first = Sessions::new();
        first.attach_disk_cache(&dir);
        let err = first
            .session(&scenario)
            .calibrated(ProbeKind::FlushOpt, Placement::L2)
            .expect_err("unsupported");

        let second = Sessions::new();
        second.attach_disk_cache(&dir);
        let loaded = second
            .session(&scenario)
            .calibrated(ProbeKind::FlushOpt, Placement::L2)
            .expect_err("unsupported from disk");
        assert_eq!(loaded, err);
        assert_eq!(second.calibrations().misses(), 0);
        assert_eq!(second.calibrations().disk_hits(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_or_mismatched_disk_files_are_ignored() {
        let dir = scratch_dir("corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let scenario = Scenario::new(MicroArch::TigerLake);
        let fp = scenario.profile().fingerprint();
        // A file with the right name but a wrong version header, plus
        // garbage entries: both must be ignored, not trusted or crashed on.
        std::fs::write(
            dir.join(format!("v{DISK_FORMAT_VERSION}-{fp:016x}.calib")),
            "# smack calibration cache v999 bogus\n0 0 zzzz ok broken\n",
        )
        .unwrap();
        let sessions = Sessions::new();
        sessions.attach_disk_cache(&dir);
        sessions
            .session(&scenario)
            .calibrated(ProbeKind::Store, Placement::L2)
            .expect("recomputes past the bad file");
        assert_eq!(sessions.calibrations().misses(), 1, "bad file forced a compute");
        assert_eq!(sessions.calibrations().disk_hits(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_processes_merge_instead_of_clobbering() {
        let dir = scratch_dir("merge");
        // Two caches simulate two worker processes sharing one
        // SMACK_CALIB_DIR: both load the (empty) file before either
        // persists — the classic lost-update interleaving.
        let a = CalibrationCache::default();
        a.attach_disk(&dir);
        let b = CalibrationCache::default();
        b.attach_disk(&dir);
        let fp = 0x42_u64;
        let key_a = (fp, ProbeKind::Store, Placement::L2, 7);
        let key_b = (fp, ProbeKind::Lock, Placement::L2, 7);
        let val = |kind| {
            Ok(CalibratedProbe {
                kind,
                threshold: 5,
                hot_is_high: true,
                hot_mean: 9.0,
                cold_mean: 1.0,
            })
        };
        assert!(a.disk_lookup(key_a).is_none());
        assert!(b.disk_lookup(key_b).is_none());
        a.disk_store(key_a, &val(ProbeKind::Store));
        // Without the persist-time re-read this write would clobber a's
        // entry: b's in-memory mirror never saw it.
        b.disk_store(key_b, &val(ProbeKind::Lock));
        // A third process sees both entries.
        let c = CalibrationCache::default();
        c.attach_disk(&dir);
        assert_eq!(c.disk_lookup(key_a), Some(val(ProbeKind::Store)));
        assert_eq!(c.disk_lookup(key_b), Some(val(ProbeKind::Lock)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_entry_serialization_round_trips() {
        let probe = CalibratedProbe {
            kind: ProbeKind::Lock,
            threshold: 321,
            hot_is_high: true,
            hot_mean: 402.125,
            cold_mean: 77.5,
        };
        let key = (ProbeKind::Lock.index(), placement_index(Placement::DramOnly), 0xabcd_u64);
        let line = serialize_disk_entry(key, &Ok(probe));
        let (parsed_key, parsed) = parse_disk_entry(&line).expect("parses");
        assert_eq!(parsed_key, key);
        assert_eq!(parsed.unwrap(), probe);

        let err: Result<CalibratedProbe, StepError> =
            Err(StepError::Unsupported { kind: ProbeKind::Clwb });
        let line = serialize_disk_entry(key, &err);
        let (_, parsed) = parse_disk_entry(&line).expect("parses");
        assert_eq!(parsed.unwrap_err(), StepError::Unsupported { kind: ProbeKind::Clwb });

        assert!(parse_disk_entry("not a line").is_none());
        assert!(parse_disk_entry("9999 0 00 ok 1 1 0 0").is_none(), "kind out of range");
    }

    #[test]
    fn renew_resets_the_machine() {
        let sessions = Sessions::new();
        let mut session = sessions.session(&Scenario::new(MicroArch::CascadeLake));
        session.machine().write_u64(Addr(0x9000), 42);
        session.renew(99);
        assert_eq!(session.scenario().seed(), 99);
        assert_eq!(session.machine().read_u64(Addr(0x9000)), 0);
    }
}
