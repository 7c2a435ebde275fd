//! Calls into the `smack-bench` experiment registry: the harness runs the
//! benchmark compares its own results against.

use std::fs;
use std::path::Path;

use smack_bench::registry::{self, Ctx};
use smack_bench::runner::Runner;
use smack_bench::Mode;

use crate::stats::guarded;

/// Run experiment `name` (restricted to `units` when given) with CSVs
/// written to `dir`, and return the text of its first CSV.
pub fn experiment_csv(
    name: &str,
    mode: Mode,
    units: Option<Vec<usize>>,
    runner: Runner,
    dir: &Path,
) -> Result<String, String> {
    let exp = registry::find(name).ok_or_else(|| format!("no experiment named {name}"))?;
    let mut ctx = Ctx::solo(mode, runner).with_out_dir(Some(dir.to_path_buf()));
    if let Some(units) = units {
        ctx = ctx.with_unit_filter(units);
    }
    guarded(|| {
        (exp.run)(&ctx);
        Ok(())
    })?;
    let path = dir.join(format!("{}.csv", exp.csvs[0]));
    fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))
}

/// The data rows of a CSV, split into fields (the harness writes its
/// fields unquoted, and none contains a comma).
pub fn csv_rows(text: &str) -> Vec<Vec<&str>> {
    text.lines().skip(1).filter(|l| !l.is_empty()).map(|l| l.split(',').collect()).collect()
}
