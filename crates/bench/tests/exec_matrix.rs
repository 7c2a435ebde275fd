//! One equivalence matrix for the execution config: every fast path the
//! engine and the harness offer — worker threads, burst scheduling, and
//! the three interpreter tiers — must be invisible in the paper's output.
//! The whole quick repro (every figure and table, plus the fingerprinting
//! and analyzer case studies) runs once per row, each row on its own
//! session registry built with [`Sessions::with_exec`], and every CSV
//! must be byte-identical to the baseline row's.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use smack::session::{Scenario, Sessions};
use smack_bench::registry::{self, Ctx, Experiment, Group, RunSpec};
use smack_bench::runner::Runner;
use smack_bench::Mode;
use smack_uarch::{ExecConfig, MicroArch};

/// The experiments every row runs: the paper artifacts and the case
/// studies.
fn selection() -> Vec<&'static Experiment> {
    let mut selection = registry::group(Group::Paper);
    selection.extend(registry::group(Group::CaseStudy));
    selection
}

/// Run the quick repro into `dir` on a private registry under `exec` with
/// `threads` workers; returns the registry and every CSV by file name.
fn run_row(
    exec: ExecConfig,
    threads: usize,
    dir: &Path,
) -> (&'static Sessions, BTreeMap<String, Vec<u8>>) {
    let _ = fs::remove_dir_all(dir);
    let sessions: &'static Sessions = Box::leak(Box::new(Sessions::with_exec(exec)));
    let runner = Runner::with_threads(threads).with_sessions(sessions);
    let spec = RunSpec { mode: Mode::Quick, runner, out_dir: Some(dir.to_path_buf()) };
    registry::run_selection(&selection(), &spec);
    let mut csvs = BTreeMap::new();
    for entry in fs::read_dir(dir).expect("row wrote its output directory") {
        let path = entry.expect("readable entry").path();
        if path.extension().is_some_and(|e| e == "csv") {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            csvs.insert(name, fs::read(&path).expect("readable CSV"));
        }
    }
    let _ = fs::remove_dir_all(dir);
    (sessions, csvs)
}

#[test]
fn quick_repro_is_byte_identical_across_the_exec_matrix() {
    // The baseline (the default config on one worker), then four workers,
    // then the rest of `ExecConfig::MATRIX`: burst 1 and the two per-step
    // tiers.
    assert_eq!(ExecConfig::MATRIX[0], ExecConfig::DEFAULT);
    let mut rows = vec![(ExecConfig::DEFAULT, 1), (ExecConfig::DEFAULT, 4)];
    rows.extend(ExecConfig::MATRIX[1..].iter().map(|&exec| (exec, 1)));

    let root = std::env::temp_dir().join(format!("smack-exec-matrix-{}", std::process::id()));
    let mut baseline = None;
    for (i, (exec, threads)) in rows.into_iter().enumerate() {
        let (sessions, csvs) = run_row(exec, threads, &root.join(format!("row{i}")));
        let pool = sessions.pool().stats();
        assert!(pool.built + pool.reused > 0, "{exec:?}: the row's own pool served no machine");
        let probe = sessions.session(&Scenario::new(MicroArch::CascadeLake)).machine().exec();
        assert_eq!(probe, exec, "the row's checkouts run under its config");
        let Some(base) = &baseline else {
            let expected: usize = selection().iter().map(|e| e.csvs.len()).sum();
            assert_eq!(csvs.len(), expected, "baseline wrote every CSV of the selection");
            baseline = Some(csvs);
            continue;
        };
        assert_eq!(
            csvs.keys().collect::<Vec<_>>(),
            base.keys().collect::<Vec<_>>(),
            "{exec:?} x {threads} threads wrote a different CSV set"
        );
        for (name, bytes) in &csvs {
            if bytes != &base[name] {
                let (got, want) =
                    (String::from_utf8_lossy(bytes), String::from_utf8_lossy(&base[name]));
                let line = got.lines().zip(want.lines()).position(|(g, w)| g != w);
                panic!(
                    "{name} differs under {exec:?} x {threads} threads (first at line {line:?})"
                );
            }
        }
    }
    let _ = fs::remove_dir_all(&root);

    // Every machine came from a row's private registry: had any experiment
    // bypassed its runner's sessions, it would have run at the default
    // config and the comparison above would prove nothing.
    let global = Sessions::global();
    assert_eq!(global.pool().stats(), Default::default(), "the global pool served a checkout");
    assert_eq!(global.calibrations().misses() + global.calibrations().hits(), 0);
}

#[test]
fn fingerprint_draws_every_machine_from_its_runners_pool() {
    // Quick mode: 9 versions x (5 training + 1 online) activity vectors
    // plus 8 x 2 multiplication-set measurements, one pooled machine each.
    let sessions: &'static Sessions = Box::leak(Box::new(Sessions::new()));
    let dir = std::env::temp_dir().join(format!("smack-fingerprint-pool-{}", std::process::id()));
    let ctx = Ctx::solo(Mode::Quick, Runner::with_threads(2).with_sessions(sessions))
        .with_out_dir(Some(dir.clone()));
    (registry::find("fingerprint").expect("registered").run)(&ctx);
    assert!(dir.join("fingerprint.csv").is_file());
    let _ = fs::remove_dir_all(&dir);
    let pool = sessions.pool().stats();
    assert_eq!(pool.built + pool.reused, 70, "{pool:?}");
    assert_eq!(Sessions::global().pool().stats(), Default::default(), "global pool was used");
}
