//! Process-level sharding must be invisible in the output: running an
//! experiment as one shard (`--shard 1/1`) and as several merged shards
//! (`--shard {1,2}/2`) must produce byte-identical CSVs, because every
//! unit derives its seeds from its own index and the merge is a
//! deterministic sort-by-unit. Most tests drive the registry exactly
//! like the CLI does, minus the process spawning; the `all_binary_*`
//! tests run the real binary as separate processes, the way a
//! multi-machine campaign does.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use smack_bench::registry::{self, RunSpec};
use smack_bench::report::merge_shard_dirs;
use smack_bench::runner::{Runner, Shard};
use smack_bench::Mode;

/// A scratch directory for one test, cleaned on entry.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smack-shard-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn spec(runner: Runner, out: &std::path::Path) -> RunSpec {
    RunSpec { mode: Mode::Quick, runner, out_dir: Some(out.to_path_buf()) }
}

#[test]
fn sharded_merge_is_bit_identical_to_the_solo_run() {
    // fig5 (4 units) and table4 (12 units) back to back: exercises
    // nonzero unit bases, multi-unit experiments, and the name union in
    // the directory merge.
    let selection = [registry::find("fig5").unwrap(), registry::find("table4").unwrap()];

    let solo_dir = scratch("solo");
    registry::run_selection(&selection, &spec(Runner::with_threads(2), &solo_dir));

    let shard_dirs: Vec<PathBuf> = (0..2)
        .map(|k| {
            let dir = scratch(&format!("shard{k}"));
            let runner = Runner::with_threads(2).with_shard(Shard::new(k, 2));
            registry::run_selection(&selection, &spec(runner, &dir));
            dir
        })
        .collect();

    let merged_dir = scratch("merged");
    let merged = merge_shard_dirs(&shard_dirs, &merged_dir).expect("merge succeeds");
    assert_eq!(merged.len(), 2, "fig5.csv and table4.csv");

    for name in ["fig5", "table4"] {
        let solo = fs::read(solo_dir.join(format!("{name}.csv"))).expect("solo CSV");
        let remerged = fs::read(merged_dir.join(format!("{name}.csv"))).expect("merged CSV");
        assert_eq!(
            String::from_utf8_lossy(&remerged),
            String::from_utf8_lossy(&solo),
            "{name}: merged shards must be bit-identical to the solo run"
        );
    }

    // Each shard's partial is unit-tagged and strictly smaller than the
    // merged whole (both experiments have >1 unit, so both shards own
    // some of each).
    for dir in &shard_dirs {
        for name in ["fig5", "table4"] {
            let part = fs::read_to_string(dir.join(format!("{name}.csv"))).expect("partial");
            assert!(part.starts_with("unit,"), "{name} partial is unit-tagged");
            let merged = fs::read_to_string(merged_dir.join(format!("{name}.csv"))).unwrap();
            assert!(part.lines().count() < merged.lines().count());
        }
    }

    for dir in shard_dirs.iter().chain([&solo_dir, &merged_dir]) {
        let _ = fs::remove_dir_all(dir);
    }
}

#[test]
fn single_unit_experiments_round_robin_across_shards() {
    // In a selection of consecutive single-unit experiments, the global
    // unit offset spreads them across shards instead of piling them all
    // on shard one.
    let selection = [
        registry::find("fig3").unwrap(),
        registry::find("fig4").unwrap(),
        registry::find("fig6").unwrap(),
    ];
    let mut owners = Vec::new();
    let mut base = 0usize;
    for exp in &selection {
        let total = exp.units;
        for k in 0..2 {
            let runner = Runner::sequential().with_shard(Shard::new(k, 2));
            if !runner.owned_units(base, total).is_empty() {
                owners.push(k);
            }
        }
        base += total;
    }
    assert_eq!(owners, vec![0, 1, 0], "alternating shard ownership");
}

#[test]
fn shard_unit_slices_partition_every_experiment() {
    // For every registered experiment and several shard counts, the
    // owned-unit slices are disjoint and cover 0..units.
    for exp in registry::registry() {
        let total = exp.units;
        for n in [1usize, 2, 3, 5] {
            let mut seen = Vec::new();
            for k in 0..n {
                let runner = Runner::sequential().with_shard(Shard::new(k, n));
                seen.extend(runner.owned_units(7, total));
            }
            seen.sort_unstable();
            assert_eq!(seen, (0..total).collect::<Vec<_>>(), "{} @ {n} shards", exp.name);
        }
    }
}

/// Run the `all` binary with `args` and return its captured output.
fn all(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_all")).args(args).output().expect("spawning the all binary")
}

/// Like [`all`], but the run must succeed; returns its stdout.
fn all_ok(args: &[&str]) -> String {
    let out = all(args);
    assert!(
        out.status.success(),
        "all {args:?} failed ({}): {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn all_binary_sequential_shards_merge_bit_identical() {
    // Two shard processes run one after the other, each calibrating for
    // itself, then a third process merges them: the merge must match a
    // solo run byte for byte. (table2's SRP groups share a calibration
    // key across the two shards; fig5's and table4's shard slices need
    // disjoint keys.)
    let root = scratch("binary");
    let dir = |name: &str| root.join(name).to_string_lossy().into_owned();
    let names = ["fig5", "table2", "table4"];

    all_ok(&[&names[..], &["--threads=2", "--out", &dir("solo")]].concat());
    assert!(!root.join("solo").join("calib").exists(), "a run persists no calibrations");

    for k in 1..=2 {
        let (shard, out) = (format!("--shard={k}/2"), dir(&format!("s{k}")));
        all_ok(&[&names[..], &["--threads=2", &shard, "--out", &out]].concat());
    }

    all_ok(&["--merge", &dir("s1"), &dir("s2"), "--out", &dir("merged")]);
    for name in names {
        let file = format!("{name}.csv");
        let solo = fs::read(root.join("solo").join(&file)).expect("solo CSV");
        let merged = fs::read(root.join("merged").join(&file)).expect("merged CSV");
        assert!(merged == solo, "{file}: merged shards must be byte-identical to the solo run");
    }
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn all_binary_names_missing_shard_dirs_and_bad_thread_counts() {
    let root = scratch("binary-errors");

    // A shard that owns no units still leaves its (empty) output
    // directory behind, so it merges cleanly; a mistyped one does not.
    let empty = root.join("empty").to_string_lossy().into_owned();
    all_ok(&["fig1", "--shard", "2/2", "--out", &empty]);
    assert!(Path::new(&empty).is_dir(), "zero-unit shard must create --out");
    let typo = root.join("typo").to_string_lossy().into_owned();
    let merged = root.join("merged").to_string_lossy().into_owned();
    let out = all(&["--merge", &empty, &typo, "--out", &merged]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "merging a missing directory must fail");
    assert!(stderr.contains(&typo), "error must name the missing directory: {stderr}");

    let out = all(&["fig1", "--threads", "abc", "--out", &empty]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "bad --threads exits 2: {stderr}");
    assert!(stderr.contains("--threads") && stderr.contains("`abc`"), "{stderr}");
    let _ = fs::remove_dir_all(&root);
}
