//! §6.1 end to end: sample performance counters over benign and attacking
//! workloads and train the kNN detector; machine_clears.smc separates the
//! attacks almost perfectly, with false positives only on the
//! self-modifying `amg` workload.
//!
//! Run with: `cargo run --example detection`

use smack_bench::experiments::detection_dataset;
use smack_bench::runner::Runner;
use smack_detection::{evaluate, DetectionConfig, FeatureSet};
use smack_uarch::MicroArch;

fn main() {
    let cfg =
        DetectionConfig { window_cycles: 80_000, windows_per_run: 6, ..DetectionConfig::default() };
    println!("collecting counter windows (20 benign workloads + 12 attack loops)...");
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (benign, attacks) =
        detection_dataset(&Runner::with_threads(threads), MicroArch::CascadeLake, &cfg)
            .expect("dataset collects");
    println!("{} benign windows, {} attack windows", benign.len(), attacks.len());
    println!();
    for fs in FeatureSet::ALL {
        let r = evaluate(fs, &benign, &attacks, 99);
        println!("{:<34} accuracy {:.4}  F1 {:.4}  FPR {:.4}", fs.name(), r.accuracy, r.f1, r.fpr);
    }
    println!();
    println!(
        "(paper: machine_clears.smc reaches F1 0.987 at 0.85% FPR; \
              BR_MISP and LLC-miss detectors from prior work trail far behind)"
    );
}
