//! The one shared CLI behind the harness binaries.
//!
//! `all` and `ablations` are thin shims over [`run`]: they differ only in
//! their default selection (the paper artifacts or every ablation).
//! Experiments are looked up by name in the [`crate::registry`], so
//! `all fig5 table2` runs exactly those two and `--list` enumerates
//! everything.
//!
//! ```text
//! all [EXPERIMENT..] [--full] [--threads N] [--shard K/N] [--out DIR]
//!     [--tau-jitter N] [--merge DIR..] [--list]
//! ```
//!
//! * `--threads N` — trial-runner worker threads on this host (else
//!   `SMACK_BENCH_THREADS`, else the available parallelism).
//! * `--shard K/N` — run only the units this shard owns, writing
//!   unit-tagged partial CSVs; run one shard per host or process.
//! * `--merge DIR..` — merge previously written shard directories into
//!   `--out`, bit-identical to the unsharded run. Every shard directory
//!   must exist: a missing one is an error, never silently dropped rows.
//! * `--out DIR` — CSV output directory (default `target/repro/`),
//!   created up front even when a shard owns no units.
//! * `--tau-jitter N` — jitter the fig5/table2 exposure window by ±N
//!   cycles per trace (default 0, the fixed historical window).
//!
//! Calibrations live in the process-wide in-memory cache of
//! [`Sessions::global`]: each is computed once per process and key, and
//! the closing `[calib]` line reports how many lookups it served and how
//! many it computed.

use std::path::PathBuf;
use std::process::ExitCode;

use smack::session::Sessions;

use crate::registry::{self, Experiment, Group, RunSpec};
use crate::report;
use crate::runner::{Runner, Shard};
use crate::Mode;

/// What a binary runs when no experiment names are given.
#[derive(Copy, Clone, Debug)]
pub enum Selection {
    /// The paper artifacts (the `all` binary).
    Paper,
    /// Every ablation (the `ablations` binary).
    Ablations,
}

/// Parsed command line.
#[derive(Clone, Debug, PartialEq)]
struct Args {
    names: Vec<String>,
    mode: Mode,
    threads: Option<usize>,
    shard: Shard,
    out: Option<PathBuf>,
    tau_jitter: u64,
    merge: bool,
    list: bool,
}

const USAGE: &str = "usage: <bin> [EXPERIMENT..] [--full] [--threads N] [--shard K/N] \
                     [--out DIR] [--tau-jitter N] [--merge DIR..] [--list]";

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        names: Vec::new(),
        mode: Mode::Quick,
        threads: None,
        shard: Shard::solo(),
        out: None,
        tau_jitter: 0,
        merge: false,
        list: false,
    };
    let mut it = argv.iter().peekable();
    let value_of = |flag: &str,
                    it: &mut std::iter::Peekable<std::slice::Iter<String>>,
                    arg: &str|
     -> Result<String, String> {
        if let Some(v) = arg.strip_prefix(&format!("{flag}=")) {
            return Ok(v.to_owned());
        }
        it.next().cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--full" => args.mode = Mode::Full,
            "--list" => args.list = true,
            "--merge" => args.merge = true,
            a if a == "--threads" || a.starts_with("--threads=") => {
                let v = value_of("--threads", &mut it, a)?;
                let n = v.parse::<usize>().ok().filter(|n| *n > 0);
                args.threads = Some(n.ok_or_else(|| format!("bad --threads value `{v}`"))?);
            }
            a if a == "--shard" || a.starts_with("--shard=") => {
                let v = value_of("--shard", &mut it, a)?;
                args.shard = Shard::parse(&v)
                    .ok_or_else(|| format!("bad --shard value `{v}` (want K/N)"))?;
            }
            a if a == "--out" || a.starts_with("--out=") => {
                args.out = Some(PathBuf::from(value_of("--out", &mut it, a)?));
            }
            a if a == "--tau-jitter" || a.starts_with("--tau-jitter=") => {
                let v = value_of("--tau-jitter", &mut it, a)?;
                args.tau_jitter =
                    v.parse::<u64>().map_err(|_| format!("bad --tau-jitter value `{v}`"))?;
            }
            a if a.starts_with("--") => return Err(format!("unknown flag `{a}`")),
            name => args.names.push(name.to_owned()),
        }
    }
    if args.merge && !args.shard.is_solo() {
        return Err("--merge cannot be combined with --shard".to_owned());
    }
    Ok(args)
}

/// Resolve the experiments to run: explicit names, else the binary's
/// default selection.
fn resolve(names: &[String], default: Selection) -> Result<Vec<&'static Experiment>, String> {
    if names.is_empty() {
        return Ok(match default {
            Selection::Paper => registry::group(Group::Paper),
            Selection::Ablations => registry::group(Group::Ablation),
        });
    }
    names
        .iter()
        .map(|n| {
            registry::find(n).ok_or_else(|| {
                let known: Vec<&str> = registry::registry().iter().map(|e| e.name).collect();
                format!("unknown experiment `{n}` (known: {})", known.join(", "))
            })
        })
        .collect()
}

fn print_list() {
    let mut t = report::Table::new(&[
        "name",
        "group",
        "units (quick)",
        "units (full)",
        "csv files",
        "title",
    ]);
    for e in registry::registry() {
        t.row(vec![
            e.name.to_owned(),
            format!("{:?}", e.group),
            (e.units)(Mode::Quick).to_string(),
            (e.units)(Mode::Full).to_string(),
            e.csvs.join(" "),
            e.title.to_owned(),
        ]);
    }
    t.print();
}

/// Merge previously written shard directories (`--merge DIR..`).
fn run_merge(dirs: &[String], out_root: &std::path::Path) -> Result<(), String> {
    if dirs.len() < 2 {
        return Err("--merge needs at least two shard directories".to_owned());
    }
    let dirs: Vec<PathBuf> = dirs.iter().map(PathBuf::from).collect();
    let merged = report::merge_shard_dirs(&dirs, out_root)
        .map_err(|e| format!("merging shard CSVs: {e}"))?;
    for path in &merged {
        println!("[csv] {} (merged)", path.display());
    }
    Ok(())
}

/// Process entry point shared by every harness binary.
pub fn run(default: Selection) -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run_inner(&argv, default) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run_inner(argv: &[String], default: Selection) -> Result<(), String> {
    let args = parse(argv)?;
    if args.list {
        print_list();
        return Ok(());
    }
    let out_root = args.out.clone().unwrap_or_else(report::default_repro_dir);
    if args.merge {
        return run_merge(&args.names, &out_root);
    }
    let selection = resolve(&args.names, default)?;
    let runner = match args.threads {
        Some(n) => Runner::with_threads(n),
        None => Runner::from_env()?,
    }
    .with_shard(args.shard);

    // Create the output directory even when this shard owns no units, so
    // a later `--merge` can tell an empty shard from a mistyped path.
    if let Err(e) = std::fs::create_dir_all(&out_root) {
        eprintln!("warning: could not create {}: {e}", out_root.display());
    }
    let spec =
        RunSpec { mode: args.mode, runner, out_dir: args.out.clone(), tau_jitter: args.tau_jitter };
    let times = registry::run_selection(&selection, &spec);

    if selection.len() > 1 {
        report::banner("wall time");
        let total: std::time::Duration = times.iter().map(|(_, d)| *d).sum();
        let mut table = report::Table::new(&["figure", "wall ms", "share"]);
        for (name, d) in &times {
            table.row(vec![
                report::s(name),
                report::f(d.as_secs_f64() * 1e3, 1),
                format!("{:.0}%", d.as_secs_f64() / total.as_secs_f64().max(1e-9) * 100.0),
            ]);
        }
        table.row(vec!["total".to_owned(), report::f(total.as_secs_f64() * 1e3, 1), String::new()]);
        table.print();
    }
    let cal = Sessions::global().calibrations();
    println!("[calib] {} in-memory hits, {} computed", cal.hits(), cal.misses());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| (*a).to_owned()).collect()
    }

    #[test]
    fn parses_flags_in_both_spellings() {
        let a = parse(&strings(&["fig5", "--full", "--threads", "4", "--shard=2/4"]))
            .expect("--full, --threads N, and --shard K/N should all parse");
        assert_eq!(a.names, vec!["fig5"]);
        assert_eq!(a.mode, Mode::Full);
        assert_eq!(a.threads, Some(4));
        assert_eq!(a.shard, Shard::new(1, 4));

        let b = parse(&strings(&["--threads=8", "--out", "x/y", "--tau-jitter=32"]))
            .expect("--threads=N, --out DIR, and --tau-jitter=N should all parse");
        assert_eq!(b.threads, Some(8));
        assert_eq!(b.out, Some(PathBuf::from("x/y")));
        assert_eq!(b.tau_jitter, 32);
        assert_eq!(b.mode, Mode::Quick);
    }

    #[test]
    fn rejects_bad_flags() {
        assert!(parse(&strings(&["--threads", "0"])).is_err());
        assert!(parse(&strings(&["--threads", "zero"])).is_err());
        assert!(parse(&strings(&["--shard", "5/4"])).is_err());
        assert!(parse(&strings(&["--wat"])).is_err());
        assert!(parse(&strings(&["--merge", "--shard", "1/2"])).is_err());
    }

    #[test]
    fn resolves_defaults_and_names() {
        let paper =
            resolve(&[], Selection::Paper).expect("no names + Paper default should resolve");
        assert_eq!(paper.len(), 11);
        let abl = resolve(&[], Selection::Ablations)
            .expect("no names + Ablations default should resolve");
        assert!(abl.len() >= 7);
        let picked = resolve(&strings(&["table2", "fig5"]), Selection::Paper)
            .expect("explicit names `table2 fig5` should resolve");
        assert_eq!(picked.iter().map(|e| e.name).collect::<Vec<_>>(), ["table2", "fig5"]);
        assert!(resolve(&strings(&["nope"]), Selection::Paper).is_err());
    }
}
