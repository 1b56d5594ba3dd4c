//! A deterministic parallel job harness for the experiment sweeps.
//!
//! The paper's evaluation is an embarrassingly parallel grid — (machine
//! config × workload) cells that never share mutable state — yet the seed
//! harness ran every cell on one core. [`JobSet`] fans a set of named
//! closures out over `std::thread::scope` workers (std only, no new
//! dependencies) while keeping the three properties a reproducible
//! artifact pipeline needs:
//!
//! 1. **Submission-order results.** `run` returns job results indexed by
//!    submission order no matter which worker finished first, so a JSON
//!    document assembled from them is **bit-identical at any worker
//!    count** (pinned by `crates/bench/tests/parallel.rs`).
//! 2. **Deterministic error precedence.** Every job runs to completion —
//!    a failure never cancels in-flight or pending work mid-simulation —
//!    and the error from the *lowest job index* wins, which is exactly
//!    the error a serial run would have reported first.
//! 3. **Panic containment.** A panicking job is caught at the job
//!    boundary and surfaces as [`SimError::Panic`] carrying the job's
//!    name; the pool is not poisoned and every other job still runs.
//!
//! On top of those, [`RunOptions`] adds the crash-safety policies of a
//! long campaign:
//!
//! - **Watchdog.** With a deadline set, a job whose wall-clock time
//!   exceeds it is deadlined to [`SimError::Timeout`]. The watchdog is
//!   cooperative — a worker thread cannot be preempted, so the deadline
//!   is enforced when the job returns; a job that never returns at all is
//!   bounded by the simulator's own instruction budget.
//! - **Retry.** Transient failures (timeouts, I/O) are retried up to a
//!   bound with deterministic exponential backoff — no clocks or RNG in
//!   the schedule, so retried runs stay reproducible. Deterministic
//!   failures (panics, simulation errors) are never retried: they would
//!   fail identically again.
//! - **Graceful degradation.** [`JobSet::run_each`] reports every job's
//!   individual outcome; [`strict`] collapses them with the classic
//!   lowest-index error precedence, while [`degrade`] renders failures as
//!   `null` lanes plus an error summary so one bad cell no longer sinks a
//!   whole campaign (`--keep-going`).
//! - **Resume.** [`JobSet::run_cached`] consults a [`Cache`]: the
//!   content-addressed [`Store`] at the `--resume` directory. Finished
//!   jobs are skipped and their stored results re-merged in submission
//!   order, so an interrupted campaign resumes byte-identically.
//!
//! The `Send` bounds this module leans on are audited at compile time in
//! [`send_audit`]: programs, workloads, machines, observers and reports
//! all cross (or are shared across) the worker threads.

use crate::serve::store::{Lookup, Store};
use crate::telemetry::Hist;
use fac_core::snap::{fnv1a, FNV_OFFSET};
use fac_sim::obs::Json;
use fac_sim::SimError;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Robustness policy for one [`JobSet`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunOptions {
    /// Per-job wall-clock deadline in seconds. A job that takes longer is
    /// deadlined to [`SimError::Timeout`] (its result, if any, is
    /// discarded — a cell that blew its budget must not be silently
    /// accepted). `None` disables the watchdog.
    pub timeout_secs: Option<u64>,
    /// How many times a transiently-failed job (timeout or I/O error) is
    /// re-run before its error stands. Zero retries nothing.
    pub retries: u32,
    /// Render failed cells as degraded artifact lanes instead of aborting
    /// the campaign on the first error (`--keep-going`).
    pub keep_going: bool,
}

/// Whether an error class is worth retrying: only failures that can
/// plausibly differ on a second attempt. Panics, simulation errors and
/// checkpoint rejections are deterministic and would fail identically.
fn transient(e: &SimError) -> bool {
    matches!(e, SimError::Timeout { .. } | SimError::Io { .. })
}

/// Deterministic exponential backoff: 50 ms doubling per attempt, capped
/// at 1.6 s. No jitter — retried campaigns must stay reproducible.
fn backoff_delay(attempt: u32) -> Duration {
    Duration::from_millis(50u64 << attempt.min(5))
}

/// One job's labelled outcome: `(name, result)` as returned by
/// [`JobSet::run_each`] and consumed by [`strict`] / [`degrade`].
pub type Outcome<T> = (String, Result<T, SimError>);

/// The default worker count: every hardware thread the host offers.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

/// One named unit of work. `Fn` rather than `FnOnce`: the retry policy
/// must be able to run a job again after a transient failure.
struct Job<'env, T> {
    name: String,
    work: Box<dyn Fn() -> Result<T, SimError> + Send + 'env>,
}

/// An ordered set of named jobs, executed across a scoped worker pool.
///
/// ```
/// use fac_bench::par::JobSet;
///
/// let mut jobs = JobSet::new();
/// for i in 0..8u64 {
///     jobs.push(format!("square:{i}"), move || Ok(i * i));
/// }
/// let squares = jobs.run(4).unwrap();
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
pub struct JobSet<'env, T> {
    jobs: Vec<Job<'env, T>>,
}

impl<'env, T: Send> Default for JobSet<'env, T> {
    fn default() -> Self {
        JobSet::new()
    }
}

impl<'env, T: Send> JobSet<'env, T> {
    /// An empty job set.
    pub fn new() -> Self {
        JobSet { jobs: Vec::new() }
    }

    /// Appends a job. The name identifies the job in panic and timeout
    /// reports and, chained with the campaign fingerprint, keys its
    /// [`Cache`] entry.
    pub fn push(
        &mut self,
        name: impl Into<String>,
        work: impl Fn() -> Result<T, SimError> + Send + 'env,
    ) {
        self.jobs.push(Job { name: name.into(), work: Box::new(work) });
    }

    /// Moves every job of `other` to the back of this set, preserving
    /// submission order (used to drain many experiments into one pool).
    pub fn append(&mut self, mut other: JobSet<'env, T>) {
        self.jobs.append(&mut other.jobs);
    }

    /// Number of jobs submitted so far.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// `true` when no job has been submitted.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Runs every job across `workers` threads and returns the results in
    /// submission order.
    ///
    /// All jobs run to completion even when one fails — a simulation is
    /// never dropped mid-flight — and with `workers == 1` the jobs run on
    /// the calling thread in submission order, byte-for-byte the old
    /// serial harness.
    ///
    /// # Errors
    ///
    /// If any jobs failed, returns the error of the lowest-indexed one
    /// (the same error a serial run reports first, whatever the worker
    /// count or finish order). A panicking job yields [`SimError::Panic`].
    pub fn run(self, workers: usize) -> Result<Vec<T>, SimError> {
        strict(self.run_each(workers, &RunOptions::default()))
    }

    /// Runs every job under `opts` and returns each job's individual
    /// `(name, outcome)` in submission order — nothing is collapsed, so
    /// the caller chooses between [`strict`] failure and [`degrade`]d
    /// artifacts.
    pub fn run_each(self, workers: usize, opts: &RunOptions) -> Vec<Outcome<T>> {
        run_engine(self.jobs, workers, opts, &|_, _, _| {})
    }

    /// [`JobSet::run_each`] plus a latency histogram: each job's
    /// wall-clock milliseconds (including any retries and backoff) land in
    /// a merged [`Hist`], so a sweep can report `cell_wall_ms` percentiles
    /// without threading timing through every result type. The histogram
    /// is a side channel — the outcomes themselves are byte-identical to
    /// `run_each`, so timing stays out of deterministic artifacts unless a
    /// caller explicitly exports it (`--timings`).
    pub fn run_each_timed(self, workers: usize, opts: &RunOptions) -> (Vec<Outcome<T>>, Hist) {
        let hist = Mutex::new(Hist::new());
        let record = |_: &str, _: &Result<T, SimError>, elapsed: Duration| {
            hist.lock().expect("timing hist").record(elapsed.as_millis() as u64);
        };
        let out = run_engine(self.jobs, workers, opts, &record);
        (out, hist.into_inner().expect("timing hist"))
    }
}

/// The `--resume` result cache: a content-addressed [`Store`] whose
/// key for a job is FNV-1a of the job's name chained with one campaign
/// fingerprint ([`crate::Args::fingerprint`]). A result is reused only
/// by a campaign whose result-shaping arguments match, so the worst a
/// changed flag can cost is a cache miss, never a wrong result.
///
/// Pool workers share one `&Cache`. A corrupt entry is quarantined by
/// [`Store::get`] and recomputed; a store failure never changes a result,
/// but it is latched and surfaced by [`Cache::error`] so the run cannot
/// claim durable success.
#[derive(Debug)]
pub struct Cache {
    store: Store,
    campaign: u64,
    error: OnceLock<SimError>,
}

impl Cache {
    /// A cache over `store` for the campaign with fingerprint `campaign`.
    pub(crate) fn new(store: Store, campaign: u64) -> Cache {
        Cache { store, campaign, error: OnceLock::new() }
    }

    /// The store key of job `name` in this campaign.
    fn key(&self, name: &str) -> u64 {
        fnv1a(fnv1a(FNV_OFFSET, name.as_bytes()), &self.campaign.to_le_bytes())
    }

    /// The verified stored result of job `name`, if any. A corrupt entry
    /// has been quarantined and reads as a miss.
    fn lookup(&self, name: &str) -> Option<Json> {
        match self.store.get(self.key(name)) {
            Ok(Lookup::Hit(result)) => Some(result),
            Ok(Lookup::Miss) => None,
            Ok(Lookup::Quarantined(fault)) => {
                eprintln!("resume: quarantined the stored result of {name} ({fault}); recomputing");
                None
            }
            Err(e) => {
                self.error.get_or_init(|| e);
                None
            }
        }
    }

    /// Commits a fresh result. Called from the worker the moment its job
    /// succeeds, so a kill right after costs nothing.
    fn record(&self, name: &str, result: &Json) {
        if let Err(e) = self.store.put(self.key(name), result) {
            self.error.get_or_init(|| e);
        }
    }

    /// The first store failure, if any — check after the campaign so a
    /// run whose cache is broken does not claim durable success.
    pub fn error(&self) -> Option<SimError> {
        self.error.get().cloned()
    }
}

impl<'env> JobSet<'env, Json> {
    /// [`JobSet::run_each`] backed by a [`Cache`]: jobs already stored are
    /// skipped and their results merged back in submission order; fresh
    /// successes are stored the moment they complete. With
    /// `cache == None` this is `run_each`.
    pub fn run_cached(
        self,
        workers: usize,
        opts: &RunOptions,
        cache: Option<&Cache>,
    ) -> Vec<Outcome<Json>> {
        self.run_cached_timed(workers, opts, cache).0
    }

    /// [`JobSet::run_cached`] plus the wall-clock [`Hist`] of
    /// [`JobSet::run_each_timed`]. Only cells that actually executed are
    /// timed — cached cells cost no simulation and would drown the
    /// distribution in near-zero samples.
    pub fn run_cached_timed(
        self,
        workers: usize,
        opts: &RunOptions,
        cache: Option<&Cache>,
    ) -> (Vec<Outcome<Json>>, Hist) {
        let n = self.jobs.len();
        let mut out: Vec<Option<Outcome<Json>>> = (0..n).map(|_| None).collect();
        let mut live = Vec::new();
        let mut live_slots = Vec::new();
        for (i, job) in self.jobs.into_iter().enumerate() {
            match cache.and_then(|c| c.lookup(&job.name)) {
                Some(cached) => out[i] = Some((job.name, Ok(cached))),
                None => {
                    live_slots.push(i);
                    live.push(job);
                }
            }
        }
        let hist = Mutex::new(Hist::new());
        let commit = |name: &str, result: &Result<Json, SimError>, elapsed: Duration| {
            if let (Some(c), Ok(value)) = (cache, result) {
                c.record(name, value);
            }
            hist.lock().expect("timing hist").record(elapsed.as_millis() as u64);
        };
        let fresh = run_engine(live, workers, opts, &commit);
        for (slot, result) in live_slots.into_iter().zip(fresh) {
            out[slot] = Some(result);
        }
        let out =
            out.into_iter().map(|slot| slot.expect("every slot filled")).collect::<Vec<_>>();
        (out, hist.into_inner().expect("timing hist"))
    }
}

/// Collapses per-job outcomes with the classic precedence: the error of
/// the lowest-indexed failed job wins (exactly what a serial run would
/// have reported first), otherwise all results in submission order.
///
/// # Errors
///
/// The lowest-indexed job failure, verbatim.
pub fn strict<T>(results: Vec<Outcome<T>>) -> Result<Vec<T>, SimError> {
    let mut out = Vec::with_capacity(results.len());
    for (_, result) in results {
        out.push(result?);
    }
    Ok(out)
}

/// Renders per-job outcomes as degraded artifact lanes: a failed job
/// becomes a `null` lane plus a `(job, error)` entry for the artifact's
/// error summary block. The lane vector keeps submission order and
/// length, so downstream table/figure assembly is position-stable.
pub fn degrade(results: Vec<Outcome<Json>>) -> (Vec<Json>, Vec<(String, SimError)>) {
    let mut lanes = Vec::with_capacity(results.len());
    let mut errors = Vec::new();
    for (name, result) in results {
        match result {
            Ok(value) => lanes.push(value),
            Err(e) => {
                lanes.push(Json::Null);
                errors.push((name, e));
            }
        }
    }
    (lanes, errors)
}

/// Renders an error summary block for a degraded artifact: an array of
/// `{"job": ..., "error": ...}` objects in submission order.
pub fn errors_json(errors: &[(String, SimError)]) -> Json {
    Json::Arr(
        errors
            .iter()
            .map(|(job, e)| {
                let mut entry = Json::obj();
                entry.set("job", Json::Str(job.clone()));
                entry.set("error", Json::Str(e.to_string()));
                entry
            })
            .collect(),
    )
}

/// Per-job completion callback: job name, outcome, wall-clock spent.
type OnDone<'a, T> = &'a (dyn Fn(&str, &Result<T, SimError>, Duration) + Sync);

/// The engine: serial fast path or scoped worker pool, with the watchdog
/// and retry policy applied per job and `on_done` invoked (from the
/// executing worker, the moment the outcome is known) for caching.
fn run_engine<'env, T: Send>(
    jobs: Vec<Job<'env, T>>,
    workers: usize,
    opts: &RunOptions,
    on_done: OnDone<'_, T>,
) -> Vec<Outcome<T>> {
    let n = jobs.len();
    let workers = workers.max(1).min(n.max(1));
    if workers == 1 {
        return jobs
            .into_iter()
            .map(|job| {
                let start = Instant::now();
                let result = run_with_policy(&job, opts);
                on_done(&job.name, &result, start.elapsed());
                (job.name, result)
            })
            .collect();
    }

    let jobs: Vec<Mutex<Option<Job<'env, T>>>> =
        jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let results: Vec<Mutex<Option<Outcome<T>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // Claim the job, run it unlocked (a slow simulation must
                // never serialize the pool on a mutex), file the result
                // under the job's own index.
                let job = jobs[i].lock().expect("job slot").take().expect("unclaimed job");
                let start = Instant::now();
                let result = run_with_policy(&job, opts);
                on_done(&job.name, &result, start.elapsed());
                *results[i].lock().expect("result slot") = Some((job.name, result));
            });
        }
    });
    results
        .into_iter()
        .map(|slot| slot.into_inner().expect("result slot").expect("pool completed every job"))
        .collect()
}

/// Runs one job under the watchdog + retry policy.
fn run_with_policy<T>(job: &Job<'_, T>, opts: &RunOptions) -> Result<T, SimError> {
    let mut attempt = 0u32;
    loop {
        let result = run_once(job, opts);
        match result {
            Err(e) if transient(&e) && attempt < opts.retries => {
                std::thread::sleep(backoff_delay(attempt));
                attempt += 1;
            }
            other => return other,
        }
    }
}

/// Executes one job attempt: panic containment plus the wall-clock
/// deadline check.
fn run_once<T>(job: &Job<'_, T>, opts: &RunOptions) -> Result<T, SimError> {
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(&job.work)).unwrap_or_else(|payload| {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        Err(SimError::Panic { job: job.name.clone(), message })
    });
    if let Some(secs) = opts.timeout_secs {
        // An overrun with a successful result is still deadlined: a cell
        // that blew its wall-clock budget must be flagged (and retried),
        // never silently accepted. A failed result keeps its own, more
        // specific error.
        if result.is_ok() && start.elapsed() >= Duration::from_secs(secs) {
            return Err(SimError::Timeout { job: job.name.clone(), secs });
        }
    }
    result
}

/// Compile-time inventory of the `Send`/`Sync` bounds the harness relies
/// on. Jobs *share* built programs and workload descriptors by reference
/// (`Sync`) and *move* machines, reports and errors between threads
/// (`Send`); an accidental `Rc` or thread-bound sink anywhere in those
/// types would stop this module compiling rather than deadlocking a sweep.
#[allow(dead_code)]
mod send_audit {
    fn assert_send<T: Send>() {}
    fn assert_sync<T: Sync>() {}

    fn audit() {
        // Shared across workers by reference.
        assert_sync::<fac_asm::Program>();
        assert_sync::<fac_workloads::Workload>();
        assert_sync::<crate::Bench>();
        // Created inside (or returned from) jobs and moved to the collector.
        assert_send::<fac_sim::Machine>();
        assert_send::<fac_sim::MachineConfig>();
        assert_send::<fac_sim::SimReport>();
        assert_send::<fac_sim::ProfileReport>();
        assert_send::<fac_sim::SimError>();
        assert_send::<fac_sim::obs::Json>();
        // The `--resume` cache is shared by every worker, lock-free.
        assert_sync::<super::Cache>();
        // Observers ride along with observed runs (`Observer: Send` is a
        // supertrait); the Recorder's JSONL sink is `Box<dyn Write + Send>`.
        assert_send::<fac_sim::obs::NullObserver>();
        assert_send::<fac_sim::obs::VecObserver>();
        assert_send::<fac_sim::obs::Recorder>();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fac_sim::obs::Json;
    use std::sync::atomic::AtomicU64;

    /// Results come back in submission order whatever the worker count,
    /// even when later jobs finish first.
    #[test]
    fn results_follow_submission_order() {
        for workers in [1, 2, 3, 8, 64] {
            let mut jobs = JobSet::new();
            for i in 0..37u64 {
                jobs.push(format!("cell:{i}"), move || {
                    // Early jobs sleep longest: finish order inverts
                    // submission order under real parallelism.
                    std::thread::sleep(std::time::Duration::from_micros(2 * (37 - i)));
                    Ok(Json::U64(i))
                });
            }
            let out = jobs.run(workers).unwrap();
            let expect: Vec<Json> = (0..37).map(Json::U64).collect();
            assert_eq!(out, expect, "workers={workers}");
        }
    }

    /// The lowest-indexed failure wins, not the first to finish — and
    /// every other job still runs (nothing is dropped mid-simulation).
    #[test]
    fn lowest_index_error_wins_and_all_jobs_drain() {
        for workers in [1, 2, 8] {
            let ran = AtomicU64::new(0);
            let mut jobs = JobSet::new();
            for i in 0..16u64 {
                let ran = &ran;
                jobs.push(format!("job:{i}"), move || {
                    ran.fetch_add(1, Ordering::Relaxed);
                    if i == 3 || i == 11 {
                        Err(SimError::Runaway(i))
                    } else {
                        Ok(i)
                    }
                });
            }
            let err = jobs.run(workers).unwrap_err();
            assert_eq!(err, SimError::Runaway(3), "workers={workers}");
            assert_eq!(ran.load(Ordering::Relaxed), 16, "workers={workers}: jobs were dropped");
        }
    }

    /// A panicking job becomes a typed `SimError::Panic` naming the job;
    /// the pool is not poisoned — the remaining jobs all complete.
    #[test]
    fn panic_surfaces_as_typed_error_not_poison() {
        for workers in [1, 4] {
            let ran = AtomicU64::new(0);
            let mut jobs = JobSet::new();
            for i in 0..8u64 {
                let ran = &ran;
                jobs.push(format!("job:{i}"), move || {
                    ran.fetch_add(1, Ordering::Relaxed);
                    if i == 2 {
                        panic!("cell exploded");
                    }
                    Ok(i)
                });
            }
            match jobs.run(workers) {
                Err(SimError::Panic { job, message }) => {
                    assert_eq!(job, "job:2");
                    assert!(message.contains("cell exploded"), "got: {message}");
                }
                other => panic!("expected SimError::Panic, got {other:?}"),
            }
            assert_eq!(ran.load(Ordering::Relaxed), 8, "workers={workers}: pool was poisoned");
        }
    }

    /// An erroring job beats a panicking one at a higher index, and vice
    /// versa — precedence is by index, not failure kind.
    #[test]
    fn error_precedence_ignores_failure_kind() {
        let mut jobs: JobSet<'_, u64> = JobSet::new();
        jobs.push("ok", || Ok(0));
        jobs.push("errs", || Err(SimError::Runaway(1)));
        jobs.push("panics", || panic!("later panic"));
        assert_eq!(jobs.run(8).unwrap_err(), SimError::Runaway(1));

        let mut jobs: JobSet<'_, u64> = JobSet::new();
        jobs.push("panics", || panic!("first panic"));
        jobs.push("errs", || Err(SimError::Runaway(1)));
        assert!(matches!(jobs.run(8).unwrap_err(), SimError::Panic { .. }));
    }

    /// Worker counts above the job count are harmless, as is an empty set.
    #[test]
    fn degenerate_shapes() {
        let empty: JobSet<'_, u64> = JobSet::new();
        assert!(empty.is_empty());
        assert_eq!(empty.run(8).unwrap(), Vec::<u64>::new());

        let mut one = JobSet::new();
        one.push("only", || Ok(7u64));
        assert_eq!(one.len(), 1);
        assert_eq!(one.run(64).unwrap(), vec![7]);
    }

    /// `append` preserves submission order across merged sets.
    #[test]
    fn append_preserves_order() {
        let mut a = JobSet::new();
        a.push("a0", || Ok(0u64));
        a.push("a1", || Ok(1u64));
        let mut b = JobSet::new();
        b.push("b0", || Ok(10u64));
        a.append(b);
        assert_eq!(a.run(2).unwrap(), vec![0, 1, 10]);
    }

    /// The watchdog deadlines a job that returns Ok past its budget — the
    /// result is discarded, not silently accepted.
    #[test]
    fn watchdog_deadlines_overrunning_jobs() {
        let mut jobs = JobSet::new();
        jobs.push("fast", || Ok(1u64));
        jobs.push("slow", || {
            std::thread::sleep(Duration::from_millis(1100));
            Ok(2u64)
        });
        let opts = RunOptions { timeout_secs: Some(1), ..RunOptions::default() };
        let out = jobs.run_each(1, &opts);
        assert_eq!(out[0].1, Ok(1));
        match &out[1].1 {
            Err(SimError::Timeout { job, secs }) => {
                assert_eq!(job, "slow");
                assert_eq!(*secs, 1);
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
    }

    /// A transient failure is retried up to the bound and the eventual
    /// success stands; with too few retries the transient error stands.
    #[test]
    fn transient_failures_are_retried() {
        let attempts = AtomicU64::new(0);
        let mut jobs = JobSet::new();
        jobs.push("flaky", || {
            if attempts.fetch_add(1, Ordering::Relaxed) < 2 {
                Err(SimError::Io { path: "net".to_string(), message: "transient".to_string() })
            } else {
                Ok(7u64)
            }
        });
        let opts = RunOptions { retries: 2, ..RunOptions::default() };
        assert_eq!(jobs.run_each(1, &opts)[0].1, Ok(7));
        assert_eq!(attempts.load(Ordering::Relaxed), 3);

        let attempts = AtomicU64::new(0);
        let mut jobs = JobSet::new();
        jobs.push("flaky", || {
            if attempts.fetch_add(1, Ordering::Relaxed) < 2 {
                Err(SimError::Io { path: "net".to_string(), message: "transient".to_string() })
            } else {
                Ok(7u64)
            }
        });
        let opts = RunOptions { retries: 1, ..RunOptions::default() };
        assert!(matches!(jobs.run_each(1, &opts)[0].1, Err(SimError::Io { .. })));
        assert_eq!(attempts.load(Ordering::Relaxed), 2, "retries must stop at the bound");
    }

    /// Deterministic failures (simulation errors, panics) are never
    /// retried — they would fail identically again.
    #[test]
    fn deterministic_failures_are_not_retried() {
        let attempts = AtomicU64::new(0);
        let mut jobs: JobSet<'_, u64> = JobSet::new();
        jobs.push("doomed", || {
            attempts.fetch_add(1, Ordering::Relaxed);
            Err(SimError::Runaway(9))
        });
        let opts = RunOptions { retries: 5, ..RunOptions::default() };
        assert_eq!(jobs.run_each(1, &opts)[0].1, Err(SimError::Runaway(9)));
        assert_eq!(attempts.load(Ordering::Relaxed), 1);
    }

    /// The backoff schedule is a pure function of the attempt number:
    /// doubling from 50 ms, capped at 1.6 s.
    #[test]
    fn backoff_schedule_is_deterministic_and_capped() {
        assert_eq!(backoff_delay(0), Duration::from_millis(50));
        assert_eq!(backoff_delay(1), Duration::from_millis(100));
        assert_eq!(backoff_delay(4), Duration::from_millis(800));
        assert_eq!(backoff_delay(5), Duration::from_millis(1600));
        for attempt in 6..100 {
            assert_eq!(backoff_delay(attempt), Duration::from_millis(1600));
        }
    }

    /// `degrade` keeps lanes position-stable (`null` where a job failed)
    /// and collects the errors for the artifact summary block.
    #[test]
    fn degrade_keeps_lanes_and_collects_errors() {
        for workers in [1, 4] {
            let mut jobs = JobSet::new();
            for i in 0..6u64 {
                jobs.push(format!("cell:{i}"), move || {
                    if i % 2 == 1 {
                        Err(SimError::Runaway(i))
                    } else {
                        Ok(Json::U64(i))
                    }
                });
            }
            let (lanes, errors) = degrade(jobs.run_each(workers, &RunOptions::default()));
            assert_eq!(lanes, vec![
                Json::U64(0),
                Json::Null,
                Json::U64(2),
                Json::Null,
                Json::U64(4),
                Json::Null,
            ]);
            let summary = errors_json(&errors).to_string();
            assert_eq!(
                summary,
                r#"[{"job":"cell:1","error":"no halt within 1 instructions"},{"job":"cell:3","error":"no halt within 3 instructions"},{"job":"cell:5","error":"no halt within 5 instructions"}]"#,
                "workers={workers}"
            );
        }
    }

    /// Timed runs record one wall-clock sample per executed job — and the
    /// outcomes themselves are identical to the untimed path, so timing
    /// can never leak into a deterministic artifact.
    #[test]
    fn timed_runs_sample_every_executed_job() {
        for workers in [1, 4] {
            let mut jobs = JobSet::new();
            for i in 0..9u64 {
                jobs.push(format!("cell:{i}"), move || {
                    std::thread::sleep(Duration::from_millis(2));
                    Ok(Json::U64(i))
                });
            }
            let (out, hist) = jobs.run_each_timed(workers, &RunOptions::default());
            assert_eq!(strict(out).unwrap(), (0..9).map(Json::U64).collect::<Vec<_>>());
            assert_eq!(hist.count(), 9, "workers={workers}");
            assert!(hist.min().unwrap() >= 1, "jobs slept 2ms, min {:?}", hist.min());
        }

        // Cached cells are not timed: only live execution counts.
        let dir = temp_dir("timed");
        let executed = AtomicU64::new(0);
        let opts = RunOptions::default();
        let cache = open_cache(&dir, 1);
        let (_, first) = squares(4, &executed).run_cached_timed(2, &opts, Some(&cache));
        assert_eq!(first.count(), 4);
        let cache = open_cache(&dir, 1);
        let (out, second) = squares(4, &executed).run_cached_timed(2, &opts, Some(&cache));
        assert_eq!(strict(out).unwrap().len(), 4);
        assert_eq!(second.count(), 0, "cached cells must not be timed");
        std::fs::remove_dir_all(&dir).ok();
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("fac_par_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn open_cache(dir: &std::path::Path, campaign: u64) -> Cache {
        Cache::new(Store::open(dir).unwrap(), campaign)
    }

    /// `count` jobs `cell:i -> i*i`, each bumping `executed` when it runs.
    fn squares(count: u64, executed: &AtomicU64) -> JobSet<'_, Json> {
        let mut jobs = JobSet::new();
        for i in 0..count {
            jobs.push(format!("cell:{i}"), move || {
                executed.fetch_add(1, Ordering::Relaxed);
                Ok(Json::U64(i * i))
            });
        }
        jobs
    }

    /// `run_cached` stores fresh results, skips stored jobs on the next
    /// run, and merges cached and live results in submission order.
    #[test]
    fn run_cached_skips_stored_jobs_and_merges_in_order() {
        let dir = temp_dir("cached");
        let executed = AtomicU64::new(0);
        let opts = RunOptions::default();

        // First run: half the campaign, all executed, all stored.
        let cache = open_cache(&dir, 7);
        let first = strict(squares(3, &executed).run_cached(2, &opts, Some(&cache))).unwrap();
        assert_eq!(first, vec![Json::U64(0), Json::U64(1), Json::U64(4)]);
        assert_eq!(executed.load(Ordering::Relaxed), 3);
        assert!(cache.error().is_none());

        // Resumed run: the full campaign. Stored cells are not re-run,
        // yet the merged results are the complete set in submission order.
        let cache = open_cache(&dir, 7);
        let second = strict(squares(5, &executed).run_cached(2, &opts, Some(&cache))).unwrap();
        assert_eq!(second, (0..5u64).map(|i| Json::U64(i * i)).collect::<Vec<_>>());
        assert_eq!(executed.load(Ordering::Relaxed), 3 + 2, "cached cells must not re-run");

        // A campaign with another fingerprint shares no entry with it.
        let other = open_cache(&dir, 8);
        strict(squares(5, &executed).run_cached(2, &opts, Some(&other))).unwrap();
        assert_eq!(executed.load(Ordering::Relaxed), 5 + 5, "fingerprints must not collide");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An [`crate::io::Fs`] whose writes all fail — a full disk.
    struct FailWrites;

    impl crate::io::Fs for FailWrites {
        fn read(&self, path: &std::path::Path) -> std::io::Result<Vec<u8>> {
            crate::io::RealFs.read(path)
        }
        fn write(&self, _path: &std::path::Path, _bytes: &[u8]) -> std::io::Result<()> {
            Err(std::io::Error::other("simulated ENOSPC"))
        }
        fn sync(&self, path: &std::path::Path) -> std::io::Result<()> {
            crate::io::RealFs.sync(path)
        }
        fn rename(&self, from: &std::path::Path, to: &std::path::Path) -> std::io::Result<()> {
            crate::io::RealFs.rename(from, to)
        }
        fn create_dir_all(&self, path: &std::path::Path) -> std::io::Result<()> {
            crate::io::RealFs.create_dir_all(path)
        }
    }

    /// A failed put leaves every result correct but is latched as a typed
    /// `SimError::Io` naming the entry, so the run cannot exit 0.
    #[test]
    fn failed_put_keeps_results_and_latches_a_typed_error() {
        let dir = temp_dir("failput");
        let cache = Cache::new(Store::open_with(&dir, Box::new(FailWrites)).unwrap(), 5);
        let executed = AtomicU64::new(0);
        let out = strict(squares(4, &executed).run_cached(2, &RunOptions::default(), Some(&cache)))
            .unwrap();
        assert_eq!(out, (0..4u64).map(|i| Json::U64(i * i)).collect::<Vec<_>>());
        match cache.error() {
            Some(SimError::Io { path, message }) => {
                assert!(path.ends_with(".cell"), "the error must name the entry: {path}");
                assert!(message.contains("simulated ENOSPC"), "{message}");
            }
            other => panic!("expected a latched SimError::Io, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
