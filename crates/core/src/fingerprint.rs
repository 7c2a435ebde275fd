//! Case Study II steps 1–2: library-version fingerprinting and
//! multiplication-set detection (paper §5.2, Figure 4's feature vectors).
//!
//! The attacker sweeps all 64 L1i sets with Prime+iStore, counting
//! activities per set while the victim's decryption loop runs. The 64-dim
//! activity vector fingerprints the library version (kNN, k=3, Euclidean —
//! exactly the paper's model), and a binary kNN over per-set activity
//! statistics finds the multiplication set.
//!
//! Each measurement ([`activity_vector`], [`mul_set_activity`]) runs on a
//! caller-supplied machine in its cold start state — the harness checks
//! one pooled session out per measurement — and calibrates inline, as
//! the attack binary would at startup. The kNN scoring
//! ([`library_id_scores`], [`mul_set_accuracy`]) is pure.

use rand::SeedableRng;
use smack_crypto::Bignum;
use smack_ml::{cross_validate, KnnClassifier, Sample};
use smack_uarch::{Machine, NoiseConfig, ProbeKind, ThreadId, ThreadState};
use smack_victims::corpus::{build_victim, LibraryVersion};
use smack_victims::modexp::{ModexpAlgorithm, ModexpVictimBuilder};

use crate::calibrate::calibrate;
use crate::oracle::{EvictionSet, OraclePage};
use crate::probe::Prober;

const ATTACKER: ThreadId = ThreadId::T0;
const VICTIM: ThreadId = ThreadId::T1;
const EVSET_BASE: u64 = 0x0a30_0000;
const VICTIM_BASE: u64 = 0x0700_0000;
const SCRATCH: u64 = 0x0d30_0000;

/// Fingerprinting configuration.
#[derive(Copy, Clone, Debug)]
pub struct SweepConfig {
    /// Probe class (the paper uses Prime+iStore).
    pub kind: ProbeKind,
    /// Samples collected per set (the paper uses 100 per set).
    pub samples_per_set: usize,
    /// Wait between prime and probe.
    pub wait_cycles: u64,
    /// Noise model.
    pub noise: NoiseConfig,
}

impl Default for SweepConfig {
    fn default() -> SweepConfig {
        SweepConfig {
            kind: ProbeKind::Store,
            samples_per_set: 10,
            wait_cycles: 700,
            noise: NoiseConfig::realistic(),
        }
    }
}

/// Sweep all 64 L1i sets while a library victim runs on `m` (cold, under
/// `cfg.noise`); returns the per-set activity counts (the kNN feature
/// vector).
///
/// # Errors
///
/// Returns a message on simulator errors.
pub fn activity_vector(
    m: &mut Machine,
    version: &LibraryVersion,
    key_seed: u64,
    cfg: &SweepConfig,
) -> Result<Vec<f64>, String> {
    let victim = build_victim(version, VICTIM_BASE, key_seed);
    m.load_program(&victim.program);

    // One shared oracle region covers every set (64 sets x 8 ways).
    let sets = m.l1i_sets();
    let ways = m.l1i_ways();
    let region = OraclePage::build(smack_uarch::Addr(EVSET_BASE), sets * ways);
    region.install(m);
    let cal = calibrate(m, ATTACKER, cfg.kind, smack_uarch::Addr(SCRATCH), 10)
        .map_err(|e| e.to_string())?;
    let mut prober = Prober::new(ATTACKER);

    // Keep the decryption loop running throughout the sweep.
    m.start_program(VICTIM, victim.entry, &[u64::MAX / 2]);

    let mut vector = Vec::with_capacity(sets);
    for set in 0..sets {
        let ev = EvictionSet::build(EVSET_BASE, set, ways);
        for w in ev.ways() {
            m.warm_tlb(ATTACKER, *w);
        }
        let mut activity = 0u32;
        for _ in 0..cfg.samples_per_set {
            ev.prime(m, &mut prober).map_err(|e| e.to_string())?;
            prober.wait(m, cfg.wait_cycles).map_err(|e| e.to_string())?;
            let timings = ev.probe(m, &mut prober, cfg.kind).map_err(|e| e.to_string())?;
            if timings.iter().any(|t| !cal.is_hit(*t)) {
                activity += 1;
            }
        }
        vector.push(activity as f64);
    }
    m.park(VICTIM);
    Ok(vector)
}

/// Step 1 scores: offline cross-validation over the `train` fingerprints
/// and online identification of the held-out `test` ones.
#[derive(Copy, Clone, Debug)]
pub struct LibraryIdReport {
    /// Offline cross-validation accuracy (paper: 100%).
    pub cv_accuracy: f64,
    /// Online single-measurement identification accuracy (paper: 97%).
    pub online_accuracy: f64,
}

/// Score library identification: 3-fold cross-validation of a k=3 kNN
/// over `train`, then the kNN fit on all of `train` classifying `test`.
pub fn library_id_scores(train: Vec<Sample>, test: &[Sample]) -> LibraryIdReport {
    let mut cv_rng = rand::rngs::SmallRng::seed_from_u64(7);
    let cv_accuracy = cross_validate(&train, 3, 3, &mut cv_rng);
    let model = KnnClassifier::fit(3, train);
    LibraryIdReport { cv_accuracy, online_accuracy: model.accuracy(test) }
}

/// Step 2, one measurement: RSA victim `i` (its own multiplication set
/// and key) decrypts on `m` (cold, under `cfg.noise`) while the attacker
/// watches its multiplication set (`mul`) or an unrelated set. Returns
/// the feature vector `[activity count, activity rate in %]`.
///
/// # Errors
///
/// Returns a message on simulator errors.
pub fn mul_set_activity(
    m: &mut Machine,
    i: usize,
    mul: bool,
    cfg: &SweepConfig,
) -> Result<Vec<f64>, String> {
    let mul_set = 8 + (i * 7) % 48;
    let set = if mul { mul_set } else { (mul_set + 17) % 64 };
    let mut builder = ModexpVictimBuilder::new(ModexpAlgorithm::BinaryLtr);
    builder.mul_set(mul_set).sqr_set((mul_set + 31) % 64).operand_bits(2048);
    let victim = builder.build();
    let mut rng = rand::rngs::SmallRng::seed_from_u64(500 + i as u64);
    let exp = Bignum::random_bits(&mut rng, 96);

    m.load_program(&victim.program);
    let ev = EvictionSet::for_machine(m, EVSET_BASE, set);
    ev.install(m);
    for w in ev.ways() {
        m.warm_tlb(ATTACKER, *w);
    }
    let cal = calibrate(m, ATTACKER, cfg.kind, smack_uarch::Addr(SCRATCH), 8)
        .map_err(|e| e.to_string())?;
    let mut prober = Prober::new(ATTACKER);
    victim.start(m, VICTIM, &exp);
    let mut activity = 0u32;
    let mut total = 0u32;
    while m.state(VICTIM) == ThreadState::Running && total < 400 {
        ev.prime(m, &mut prober).map_err(|e| e.to_string())?;
        prober.wait(m, cfg.wait_cycles).map_err(|e| e.to_string())?;
        let t = ev.probe(m, &mut prober, cfg.kind).map_err(|e| e.to_string())?;
        if t.iter().any(|x| !cal.is_hit(*x)) {
            activity += 1;
        }
        total += 1;
    }
    let rate = activity as f64 / total.max(1) as f64;
    Ok(vec![activity as f64, rate * 100.0])
}

/// Score multiplication-set detection: a binary k=3 kNN over the
/// labelled [`mul_set_activity`] vectors, evaluated on a held-out 20%
/// split.
pub fn mul_set_accuracy(samples: Vec<Sample>) -> f64 {
    let mut rng = rand::rngs::SmallRng::seed_from_u64(11);
    let (train, test) = smack_ml::train_test_split(samples, 0.8, &mut rng);
    KnnClassifier::fit(3, train).accuracy(&test)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smack_uarch::MicroArch;
    use smack_victims::corpus::corpus;

    fn cfg() -> SweepConfig {
        SweepConfig { samples_per_set: 6, ..SweepConfig::default() }
    }

    /// A cold Tiger Lake machine under the sweep's noise model.
    fn tiger_lake(seed: u64) -> Machine {
        Machine::with_noise(MicroArch::TigerLake.profile(), cfg().noise, seed)
    }

    #[test]
    fn activity_vectors_reflect_library_layout() {
        let c = corpus();
        let v = activity_vector(&mut tiger_lake(1), &c[0], 0, &cfg()).unwrap();
        assert_eq!(v.len(), 64);
        let total: f64 = v.iter().sum();
        assert!(total > 0.0, "victim activity must be visible");
        // The hot sets of the layout should rank among the most active.
        let layout = build_victim(&c[0], VICTIM_BASE, 0).layout;
        let hottest_layout_set = layout.iter().max_by_key(|(_, i)| *i).expect("nonempty").0;
        let measured_rank = {
            let mut idx: Vec<usize> = (0..64).collect();
            idx.sort_by(|a, b| v[*b].partial_cmp(&v[*a]).expect("finite"));
            idx.iter().position(|s| *s == hottest_layout_set).expect("set present")
        };
        assert!(measured_rank < 24, "hottest layout set ranked {measured_rank}");
    }

    #[test]
    fn distinct_versions_produce_distinct_vectors() {
        let c = corpus();
        let a = activity_vector(&mut tiger_lake(1), &c[0], 0, &cfg()).unwrap();
        let b = activity_vector(&mut tiger_lake(1), &c[20], 0, &cfg()).unwrap();
        let dist = smack_ml::euclidean(&a, &b);
        assert!(dist > 3.0, "distance {dist}");
    }

    #[test]
    fn small_library_id_experiment_classifies_well() {
        let c = corpus();
        let subset: Vec<_> = c.into_iter().step_by(9).collect(); // 4 versions
                                                                 // The paper uses 8 offline measurements per version; a kNN with
                                                                 // k=3 needs at least ~5 per class for folds to keep a same-class
                                                                 // majority available.
        let (mut train, mut test) = (Vec::new(), Vec::new());
        for (label, version) in subset.iter().enumerate() {
            for k in 0..5u64 {
                let v = activity_vector(&mut tiger_lake(100 + k), version, k, &cfg()).unwrap();
                train.push(Sample::new(v, label));
            }
            let v = activity_vector(&mut tiger_lake(900), version, 1000, &cfg()).unwrap();
            test.push(Sample::new(v, label));
        }
        let report = library_id_scores(train, &test);
        assert!(report.online_accuracy >= 0.75, "online {}", report.online_accuracy);
        assert!(report.cv_accuracy >= 0.7, "cv {}", report.cv_accuracy);
    }

    #[test]
    fn mul_set_detection_beats_chance() {
        let mut samples = Vec::new();
        for i in 0..6 {
            for mul in [true, false] {
                let v = mul_set_activity(&mut tiger_lake(42 + i as u64), i, mul, &cfg()).unwrap();
                samples.push(Sample::new(v, mul as usize));
            }
        }
        let acc = mul_set_accuracy(samples);
        assert!(acc >= 0.7, "accuracy {acc}");
    }
}
