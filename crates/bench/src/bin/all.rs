//! Regenerate every paper table and figure in sequence via the shared
//! registry CLI. Any experiment can also be named explicitly — `all fig5`,
//! `all fingerprint`, `all ablation_tau_w` — and `--list` enumerates them
//! (the `ablations` binary runs every ablation by default).
//!
//! Multi-experiment runs end with a wall-time summary per figure/table so
//! interpreter or scheduler regressions show up in the repro log itself.
//! `--shard K/N` runs one slice of the unit space per host or process,
//! and `--merge` reassembles the slices into output bit-identical to the
//! unsharded run.
use std::process::ExitCode;

fn main() -> ExitCode {
    smack_bench::cli::run(smack_bench::cli::Selection::Paper)
}
