//! Parallel trial execution for the experiment harnesses.
//!
//! Every experiment in this crate decomposes into *independent trials*
//! (one simulated machine per trial, seeded explicitly), so they
//! parallelize trivially: the runner fans trials out across worker
//! threads and returns results **in trial order**, which — because each
//! trial derives its RNG seed from its own index, never from shared
//! state — makes parallel output bit-identical to sequential output.
//!
//! [`Runner::run_scenarios`] is the session-layer entry point every
//! `fig*`/`table*` harness uses: each trial closure receives a
//! [`Session`] checked out from the runner's [`Sessions`] registry (the
//! process-wide [`Sessions::global`] unless [`Runner::with_sessions`]
//! names another) — a pooled machine in the scenario's exact cold start
//! state plus the shared calibration cache. Machine reuse and cached
//! calibrations are unobservable to the trials (a reset machine is bit-identical to a
//! fresh one, and calibrations are pure functions of their cache key), so
//! the parallel-equals-sequential guarantee carries over unchanged.
//!
//! The worker count comes from the `--threads N` CLI flag (threaded in by
//! the registry CLI via [`Runner::with_threads`]) or the
//! `SMACK_BENCH_THREADS` environment variable (set either to `1` to
//! benchmark the sequential baseline), and defaults to the machine's
//! available parallelism.
//!
//! Beyond threads, a runner carries a [`Shard`]: the `--shard K/N` slice
//! of the experiment *unit* space this process owns. Because every trial
//! seeds its RNG from its own index, the unit space is shard-stable —
//! shard `K/N` computes exactly the rows the unsharded run computes for
//! those units, and the per-shard CSVs reassemble bit-identically (see
//! `report::merge_csvs`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use smack::session::{Scenario, Session, Sessions};

/// A slice of the experiment unit space: the process owns units
/// `u ≡ index (mod count)` of the global unit numbering.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Shard {
    index: usize,
    count: usize,
}

impl Shard {
    /// The whole space (one shard of one).
    pub fn solo() -> Shard {
        Shard { index: 0, count: 1 }
    }

    /// Shard `index` of `count` (zero-based).
    ///
    /// # Panics
    ///
    /// Panics unless `index < count`.
    pub fn new(index: usize, count: usize) -> Shard {
        assert!(index < count, "shard index {index} out of range for {count} shards");
        Shard { index, count }
    }

    /// Parse the CLI spelling `K/N` (one-based `K`).
    pub fn parse(s: &str) -> Option<Shard> {
        let (k, n) = s.split_once('/')?;
        let k = k.parse::<usize>().ok()?;
        let n = n.parse::<usize>().ok()?;
        if k == 0 || n == 0 || k > n {
            return None;
        }
        Some(Shard::new(k - 1, n))
    }

    /// Zero-based shard index.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Total shard count.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Whether this is the whole space.
    pub fn is_solo(&self) -> bool {
        self.count == 1
    }

    /// Whether this shard owns global unit `unit`.
    pub fn owns(&self, unit: usize) -> bool {
        unit % self.count == self.index
    }
}

impl std::fmt::Display for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index + 1, self.count)
    }
}

/// Maps each trial index to the [`Scenario`] its session is checked out
/// for. Implemented by [`Scenario`] itself (every trial identical — the
/// common case) and by `Fn(usize) -> Scenario` closures (per-trial
/// microarchitectures or seeds).
pub trait ScenarioSpec: Sync {
    /// The scenario for trial `trial`.
    fn scenario(&self, trial: usize) -> Scenario;
}

impl ScenarioSpec for Scenario {
    fn scenario(&self, _trial: usize) -> Scenario {
        self.clone()
    }
}

impl<F> ScenarioSpec for F
where
    F: Fn(usize) -> Scenario + Sync,
{
    fn scenario(&self, trial: usize) -> Scenario {
        self(trial)
    }
}

/// A pool configuration for running independent trials, plus the
/// session registry its trials check machines out from.
#[derive(Copy, Clone, Debug)]
pub struct Runner {
    threads: usize,
    shard: Shard,
    sessions: &'static Sessions,
}

impl Runner {
    /// A runner with an explicit worker count (at least one), drawing
    /// sessions from [`Sessions::global`].
    pub fn with_threads(threads: usize) -> Runner {
        Runner { threads: threads.max(1), shard: Shard::solo(), sessions: Sessions::global() }
    }

    /// A sequential runner (one worker, running inline).
    pub fn sequential() -> Runner {
        Runner::with_threads(1)
    }

    /// The standard runner: `SMACK_BENCH_THREADS` when set, otherwise the
    /// machine's available parallelism. (The `--threads N` CLI flag builds
    /// its runner explicitly and wins over the environment.)
    ///
    /// # Errors
    ///
    /// A set but invalid value (`0`, `abc`, ...) is an error naming it,
    /// exactly as `--threads 0` is; unset or empty means the default.
    pub fn from_env() -> Result<Runner, String> {
        let var = std::env::var_os("SMACK_BENCH_THREADS");
        Runner::from_threads_var(var.as_deref().map(|v| v.to_string_lossy()).as_deref())
    }

    /// [`Runner::from_env`] over an explicit `SMACK_BENCH_THREADS` value.
    fn from_threads_var(value: Option<&str>) -> Result<Runner, String> {
        match value.filter(|v| !v.is_empty()) {
            None => Ok(Runner::with_threads(
                std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            )),
            Some(v) => v
                .parse::<usize>()
                .ok()
                .filter(|n| *n > 0)
                .map(Runner::with_threads)
                .ok_or_else(|| format!("bad SMACK_BENCH_THREADS value `{v}` (want N > 0)")),
        }
    }

    /// This runner restricted to one shard of the unit space.
    pub fn with_shard(mut self, shard: Shard) -> Runner {
        self.shard = shard;
        self
    }

    /// This runner drawing sessions from `sessions` instead of
    /// [`Sessions::global`] — e.g. a registry built with
    /// [`Sessions::with_exec`] to run experiments on another engine tier.
    pub fn with_sessions(mut self, sessions: &'static Sessions) -> Runner {
        self.sessions = sessions;
        self
    }

    /// The session registry every trial checks out from.
    pub fn sessions(&self) -> &'static Sessions {
        self.sessions
    }

    /// The unit-space shard this runner executes.
    pub fn shard(&self) -> Shard {
        self.shard
    }

    /// The unit indices in `0..total` this runner owns, given the global
    /// numbering offset `base` of the experiment's first unit (offsetting
    /// by experiment keeps single-unit experiments distributed round-robin
    /// across shards instead of all landing on shard one).
    pub fn owned_units(&self, base: usize, total: usize) -> Vec<usize> {
        (0..total).filter(|u| self.shard.owns(base + u)).collect()
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `f(0..n)` and collect the results in index order.
    ///
    /// `f` must derive any randomness from the trial index (or from data
    /// captured before the call), so the result for index `i` is the same
    /// no matter which worker runs it or in what order.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any trial.
    pub fn run<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        let workers = self.threads.min(n);
        if workers == 1 {
            return (0..n).map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let out = f(i);
                        slots.lock().expect("runner lock poisoned")[i] = Some(out);
                    })
                })
                .collect();
            for h in handles {
                if let Err(panic) = h.join() {
                    std::panic::resume_unwind(panic);
                }
            }
        });
        slots
            .into_inner()
            .expect("runner lock poisoned")
            .into_iter()
            .map(|s| s.expect("every trial index was visited"))
            .collect()
    }

    /// Run `n` session-backed trials and collect the results in index
    /// order — the single entry point for every `fig*`/`table*` harness.
    ///
    /// Each trial receives a [`Session`] checked out from this runner's
    /// [`Runner::sessions`] for `spec.scenario(i)`: a pooled machine in
    /// the exact `Machine::with_noise(profile, noise, seed)` cold start
    /// state, plus the registry's shared calibration cache. As with
    /// [`Runner::run`], `f` must derive any randomness from the trial
    /// index or the scenario, so parallel output is bit-identical to
    /// sequential output.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any trial.
    pub fn run_scenarios<S, T, F>(&self, spec: S, n: usize, f: F) -> Vec<T>
    where
        S: ScenarioSpec,
        T: Send,
        F: Fn(&mut Session<'_>, usize) -> T + Sync,
    {
        self.run(n, |i| {
            let mut session = self.sessions.session(&spec.scenario(i));
            f(&mut session, i)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_trial_order() {
        let r = Runner::with_threads(4);
        let out = r.run(100, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let f = |i: usize| (i as u64).wrapping_mul(0x9e37_79b9).rotate_left(13);
        let seq = Runner::sequential().run(257, f);
        let par = Runner::with_threads(8).run(257, f);
        assert_eq!(seq, par);
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let out = Runner::with_threads(3).run(50, |i| {
            counter.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(counter.load(Ordering::Relaxed), 50);
        assert_eq!(out.iter().copied().collect::<HashSet<_>>().len(), 50);
    }

    #[test]
    fn zero_trials_is_empty() {
        let runner = Runner::from_env().expect("SMACK_BENCH_THREADS unset or valid");
        assert!(runner.run(0, |i| i).is_empty());
    }

    #[test]
    fn threads_env_is_validated_not_ignored() {
        let default = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        assert_eq!(Runner::from_threads_var(None).unwrap().threads(), default);
        assert_eq!(Runner::from_threads_var(Some("")).unwrap().threads(), default);
        assert_eq!(Runner::from_threads_var(Some("3")).unwrap().threads(), 3);
        for bad in ["0", "abc", "-1", " 2"] {
            let err = Runner::from_threads_var(Some(bad)).expect_err(bad);
            assert!(
                err.contains("SMACK_BENCH_THREADS") && err.contains(&format!("`{bad}`")),
                "{err}"
            );
        }
    }

    #[test]
    fn thread_count_floors_at_one() {
        assert_eq!(Runner::with_threads(0).threads(), 1);
    }

    #[test]
    fn shard_parsing_is_one_based_and_strict() {
        assert_eq!(Shard::parse("1/1"), Some(Shard::solo()));
        assert_eq!(Shard::parse("2/4"), Some(Shard::new(1, 4)));
        assert_eq!(Shard::parse("4/4"), Some(Shard::new(3, 4)));
        for bad in ["0/4", "5/4", "0/0", "x/4", "2", "2/", "/4"] {
            assert_eq!(Shard::parse(bad), None, "{bad}");
        }
        assert_eq!(Shard::new(1, 4).to_string(), "2/4");
    }

    #[test]
    fn shards_partition_the_unit_space() {
        let n = 3;
        for unit in 0..50 {
            let owners: Vec<usize> = (0..n).filter(|k| Shard::new(*k, n).owns(unit)).collect();
            assert_eq!(owners.len(), 1, "unit {unit} owned exactly once");
        }
        // The union of owned_units over all shards is 0..total, disjoint.
        let total = 7;
        let base = 11;
        let mut seen = Vec::new();
        for k in 0..n {
            let owned = Runner::sequential().with_shard(Shard::new(k, n)).owned_units(base, total);
            assert!(owned.windows(2).all(|w| w[0] < w[1]), "ascending");
            seen.extend(owned);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..total).collect::<Vec<_>>());
        // Solo owns everything.
        assert_eq!(Runner::sequential().owned_units(5, 4), vec![0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "trial 7 exploded")]
    fn trial_panics_propagate() {
        Runner::with_threads(4).run(16, |i| {
            if i == 7 {
                panic!("trial 7 exploded");
            }
            i
        });
    }
}
