//! # jepo-pool — deterministic parallel map
//!
//! The paper's evaluation is ten classifiers × two profiles × k CV
//! folds run back-to-back; every unit is independent, so the harness
//! fans them out over a scoped worker pool. The contract that makes
//! parallelism safe to put under a *measurement* harness is
//! determinism: [`parallel_map`] returns exactly what the sequential
//! loop would return, for any worker count and any scheduling, because
//! each slot's result is a pure function of `(index, item)` and results
//! are committed by index.
//!
//! Work distribution is self-scheduling (a shared atomic cursor), so a
//! slow item (Random Forest) doesn't leave workers idle the way static
//! chunking would.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

/// Resolve a requested job count: `0` means "use the `JEPO_JOBS`
/// environment variable if set, else one per available core". An
/// explicit request (CLI `--jobs`, API argument) always wins over the
/// environment.
pub fn effective_jobs(requested: usize) -> usize {
    effective_jobs_with(requested, std::env::var("JEPO_JOBS").ok().as_deref())
}

/// [`effective_jobs`] with the environment value passed explicitly
/// (testable without touching process-global state).
pub fn effective_jobs_with(requested: usize, env_jobs: Option<&str>) -> usize {
    if requested > 0 {
        return requested;
    }
    if let Some(s) = env_jobs {
        match parse_env_jobs(s) {
            Some(n) => return n,
            // A malformed or zero JEPO_JOBS silently autodetecting
            // looks exactly like the variable working — warn once so a
            // typo (`JEPO_JOBS=fourscore`) doesn't skew a measurement
            // run undetected.
            None => {
                static WARNED: std::sync::Once = std::sync::Once::new();
                WARNED.call_once(|| {
                    eprintln!(
                        "jepo-pool: ignoring JEPO_JOBS={s:?} \
                         (expected a positive integer); autodetecting cores"
                    );
                });
            }
        }
    }
    available_cores()
}

/// Cores this process may run on (1 when the platform cannot tell).
pub fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A worker count after [`clamp_to_cores`]: what was asked for, what
/// runs, and the cores that decided it.
#[derive(Debug, Clone, Copy)]
pub struct CoreClamp {
    /// The request after [`effective_jobs`] resolved `0`.
    pub requested: usize,
    /// `min(requested, cores)`: the worker count actually used.
    pub effective: usize,
    /// [`available_cores`] at the time of the clamp.
    pub cores: usize,
}

impl CoreClamp {
    /// Whether the request exceeded the available cores.
    pub fn clamped(&self) -> bool {
        self.effective < self.requested
    }

    /// One-line record of the clamp, as the bench artifacts store it.
    pub fn note(&self) -> String {
        if self.clamped() {
            format!(
                "requested {} worker(s) clamped to {} ({} core(s) available)",
                self.requested, self.effective, self.cores
            )
        } else {
            format!("{} worker(s) on {} core(s)", self.effective, self.cores)
        }
    }
}

/// Resolve `requested` with [`effective_jobs`] and cap it at the
/// available cores, warning on stderr when the cap engages. Timed work
/// on more workers than cores only measures the scheduler
/// time-slicing them, and a daemon gains nothing from it either.
pub fn clamp_to_cores(requested: usize) -> CoreClamp {
    let requested = effective_jobs(requested);
    let cores = available_cores();
    let clamp = CoreClamp {
        requested,
        effective: requested.min(cores),
        cores,
    };
    if clamp.clamped() {
        eprintln!(
            "warning: {} (oversubscription only adds scheduler noise)",
            clamp.note()
        );
    }
    clamp
}

/// `Some(n)` for a positive integer (surrounding whitespace allowed),
/// `None` for anything else.
fn parse_env_jobs(s: &str) -> Option<usize> {
    s.trim().parse::<usize>().ok().filter(|&n| n > 0)
}

/// Per-worker metric handles, resolved once per [`parallel_map`] call
/// (never per item) and only while the global `jepo-trace` registry is
/// collecting — the disabled-path cost of pool instrumentation is a
/// single atomic load per map call.
struct WorkerStats {
    items: jepo_trace::Counter,
    retries: jepo_trace::Counter,
    worker_items: jepo_trace::Histogram,
    busy_ns: jepo_trace::Histogram,
    idle_ns: jepo_trace::Histogram,
}

impl WorkerStats {
    /// `Some` while collecting; also counts the map invocation.
    fn handles() -> Option<WorkerStats> {
        let reg = jepo_trace::Registry::global();
        if !reg.is_enabled() {
            return None;
        }
        reg.counter("pool.runs").incr();
        Some(WorkerStats {
            items: reg.counter("pool.items"),
            retries: reg.counter("pool.cursor_retries"),
            worker_items: reg.histogram("pool.worker.items", &jepo_trace::COUNT_BUCKETS),
            busy_ns: reg.histogram("pool.worker.busy_ns", &jepo_trace::TIME_NS_BUCKETS),
            idle_ns: reg.histogram("pool.worker.idle_ns", &jepo_trace::TIME_NS_BUCKETS),
        })
    }

    /// One observation per worker per map call.
    fn record(&self, executed: u64, busy_ns: u64, idle_ns: u64, retries: u64) {
        self.items.add(executed);
        self.retries.add(retries);
        self.worker_items.observe(executed);
        self.busy_ns.observe(busy_ns);
        self.idle_ns.observe(idle_ns);
    }
}

/// Map `f` over `items` on up to `jobs` worker threads (`0` = one per
/// core), returning results in item order.
///
/// Determinism: the output is identical to
/// `items.iter().enumerate().map(|(i, t)| f(i, t)).collect()` provided
/// `f` itself depends only on its arguments (no shared mutable state
/// with ordering sensitivity — commutative accumulation like atomic
/// counters is fine).
///
/// Panics in `f` are propagated after all workers stop.
pub fn parallel_map<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let jobs = effective_jobs(jobs).min(items.len().max(1));
    let stats = WorkerStats::handles();
    if jobs <= 1 {
        let t0 = stats.as_ref().map(|_| Instant::now());
        let out = items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        if let (Some(s), Some(t0)) = (&stats, t0) {
            s.record(items.len() as u64, t0.elapsed().as_nanos() as u64, 0, 0);
        }
        return out;
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| {
                let started = stats.as_ref().map(|_| Instant::now());
                let mut executed = 0u64;
                let mut busy_ns = 0u64;
                let mut retries = 0u64;
                loop {
                    // Claim an item by CAS so contention is observable:
                    // each failed exchange is one cursor retry.
                    let mut cur = cursor.load(Ordering::Relaxed);
                    let claimed = loop {
                        if cur >= items.len() {
                            break None;
                        }
                        match cursor.compare_exchange_weak(
                            cur,
                            cur + 1,
                            Ordering::Relaxed,
                            Ordering::Relaxed,
                        ) {
                            Ok(_) => break Some(cur),
                            Err(actual) => {
                                retries += 1;
                                cur = actual;
                            }
                        }
                    };
                    let Some(i) = claimed else { break };
                    let t0 = started.map(|_| Instant::now());
                    let r = f(i, &items[i]);
                    if let Some(t0) = t0 {
                        busy_ns += t0.elapsed().as_nanos() as u64;
                    }
                    executed += 1;
                    *slots[i].lock().unwrap() = Some(r);
                }
                if let (Some(s), Some(started)) = (&stats, started) {
                    let total_ns = started.elapsed().as_nanos() as u64;
                    s.record(executed, busy_ns, total_ns.saturating_sub(busy_ns), retries);
                }
            });
        }
    });
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.into_inner()
                .unwrap()
                .unwrap_or_else(|| panic!("worker died before finishing item {i}"))
        })
        .collect()
}

/// [`parallel_map`] over a *subset* of item indices — the dirty-set
/// fan-out used by incremental analysis. `f` is called as
/// `f(original_index, &items[original_index])` for each index in
/// `indices`, on up to `jobs` workers, and results come back in
/// `indices` order. Determinism follows from [`parallel_map`]'s.
///
/// Out-of-bounds indices panic (they would in the sequential loop too).
pub fn parallel_map_subset<T, R, F>(items: &[T], indices: &[usize], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    parallel_map(indices, jobs, |_, &i| f(i, &items[i]))
}

/// [`parallel_map`] over owned results that may fail: first error *by
/// item index* wins (deterministic, unlike "whichever worker errored
/// first").
pub fn try_parallel_map<T, R, E, F>(items: &[T], jobs: usize, f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<R, E> + Sync,
{
    let results = parallel_map(items, jobs, f);
    results.into_iter().collect()
}

/// A job submitted to a [`TaskPool`].
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// Why a [`TaskPool::try_submit`] was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is at capacity and no worker is free —
    /// admission control says shed this job now rather than buffer
    /// unboundedly.
    Full,
    /// The pool is draining; no new work is accepted.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Full => write!(f, "job queue full"),
            SubmitError::ShuttingDown => write!(f, "pool shutting down"),
        }
    }
}

/// A long-lived worker pool with a *bounded* job queue — the execution
/// substrate of `jepo serve`.
///
/// Unlike [`parallel_map`] (scoped, batch, deterministic ordering),
/// a `TaskPool` accepts independent fire-and-forget jobs over time.
/// Two properties matter for a daemon:
///
/// * **Admission control.** At most `workers + queue_depth` jobs are
///   in flight (running or queued); [`TaskPool::try_submit`] returns
///   [`SubmitError::Full`] beyond that instead of blocking or buffering
///   without bound, so overload is shed at the front door. The count
///   is explicit, so an idle pool always admits a job.
/// * **Graceful drain.** [`TaskPool::shutdown_drain`] closes the
///   queue, lets workers finish every job already accepted, and joins
///   them — an accepted job is never dropped.
pub struct TaskPool {
    tx: Option<mpsc::Sender<Job>>,
    in_flight: Arc<AtomicUsize>,
    capacity: usize,
    workers: Vec<std::thread::JoinHandle<()>>,
}

/// One admitted job's share of the in-flight count, released when the
/// job finishes, unwinds, or is dropped unrun.
struct Slot(Arc<AtomicUsize>);

impl Drop for Slot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

impl TaskPool {
    /// Pool with `workers` threads (`0` = one per core via
    /// [`effective_jobs`]) and room for `queue_depth` pending jobs
    /// beyond the ones the workers are running. With `queue_depth` 0 a
    /// submit is admitted only while some worker is free.
    pub fn new(workers: usize, queue_depth: usize) -> TaskPool {
        let workers = effective_jobs(workers);
        let (tx, rx) = mpsc::channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let handles = (0..workers)
            .map(|_| {
                let rx = Arc::clone(&rx);
                std::thread::spawn(move || loop {
                    // Hold the lock only for the dequeue, never while
                    // running the job.
                    let job = match rx.lock() {
                        Ok(guard) => guard.recv(),
                        Err(_) => return, // a job panicked mid-recv elsewhere
                    };
                    match job {
                        Ok(job) => job(),
                        // Sender dropped and queue drained: clean exit.
                        Err(_) => return,
                    }
                })
            })
            .collect();
        TaskPool {
            tx: Some(tx),
            in_flight: Arc::new(AtomicUsize::new(0)),
            capacity: workers + queue_depth,
            workers: handles,
        }
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Submit a job without blocking. `Err(Full)` when
    /// `workers + queue_depth` jobs are already in flight,
    /// `Err(ShuttingDown)` after [`TaskPool::shutdown_drain`] began.
    pub fn try_submit<F: FnOnce() + Send + 'static>(&self, job: F) -> Result<(), SubmitError> {
        let Some(tx) = self.tx.as_ref() else {
            return Err(SubmitError::ShuttingDown);
        };
        // Reserve the slot before sending, so concurrent submitters
        // can never push the count past capacity.
        self.in_flight
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < self.capacity).then_some(n + 1)
            })
            .map_err(|_| SubmitError::Full)?;
        let slot = Slot(Arc::clone(&self.in_flight));
        tx.send(Box::new(move || {
            let _slot = slot;
            job();
        }))
        .map_err(|_| SubmitError::ShuttingDown)
    }

    /// Stop accepting work, let the workers drain every queued job,
    /// and join them. Every job accepted before this call runs to
    /// completion.
    pub fn shutdown_drain(mut self) {
        drop(self.tx.take());
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for TaskPool {
    fn drop(&mut self) {
        // Dropping without an explicit drain still drains: the workers
        // exit once the queue empties and the sender is gone. Detach
        // rather than join so a panicking test doesn't deadlock.
        drop(self.tx.take());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_sequential_map_for_any_job_count() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for jobs in [1, 2, 3, 8, 64] {
            let got = parallel_map(&items, jobs, |_, &x| x * x + 1);
            assert_eq!(got, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn zero_jobs_means_auto() {
        assert!(effective_jobs(0) >= 1);
        let got = parallel_map(&[1, 2, 3], 0, |i, &x| (i, x));
        assert_eq!(got, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn explicit_request_beats_env_which_beats_autodetect() {
        // CLI flag wins over JEPO_JOBS...
        assert_eq!(effective_jobs_with(3, Some("8")), 3);
        // ...JEPO_JOBS fills in for `0`...
        assert_eq!(effective_jobs_with(0, Some("8")), 8);
        assert_eq!(effective_jobs_with(0, Some(" 2 ")), 2);
        // ...and malformed/zero env values fall through to autodetect.
        let auto = effective_jobs_with(0, None);
        assert!(auto >= 1);
        assert_eq!(effective_jobs_with(0, Some("0")), auto);
        assert_eq!(effective_jobs_with(0, Some("lots")), auto);
    }

    #[test]
    fn env_jobs_parsing_accepts_only_positive_integers() {
        assert_eq!(parse_env_jobs("8"), Some(8));
        assert_eq!(parse_env_jobs(" 2 "), Some(2));
        assert_eq!(parse_env_jobs("0"), None);
        assert_eq!(parse_env_jobs("-4"), None);
        assert_eq!(parse_env_jobs("4.0"), None);
        assert_eq!(parse_env_jobs("lots"), None);
        assert_eq!(parse_env_jobs(""), None);
    }

    #[test]
    fn jepo_jobs_env_var_is_honored() {
        // The one test that touches the real environment.
        std::env::set_var("JEPO_JOBS", "5");
        assert_eq!(effective_jobs(0), 5);
        assert_eq!(effective_jobs(2), 2, "explicit request still wins");
        std::env::remove_var("JEPO_JOBS");
    }

    #[test]
    fn worker_stats_flow_into_the_registry_when_enabled() {
        let reg = jepo_trace::Registry::global();
        let before = reg.counter("pool.items").value();
        reg.enable();
        let items: Vec<u64> = (0..40).collect();
        let got = parallel_map(&items, 4, |_, &x| x * 2);
        reg.disable();
        assert_eq!(got[39], 78);
        // Other tests may run maps concurrently, so assert growth, not
        // exact deltas.
        assert!(
            reg.counter("pool.items").value() >= before + 40,
            "items counted"
        );
        assert!(reg.counter("pool.runs").value() >= 1);
        assert!(
            reg.histogram("pool.worker.items", &jepo_trace::COUNT_BUCKETS)
                .count()
                >= 1
        );
        assert!(
            reg.histogram("pool.worker.busy_ns", &jepo_trace::TIME_NS_BUCKETS)
                .count()
                >= 1
        );
        assert!(
            reg.histogram("pool.worker.idle_ns", &jepo_trace::TIME_NS_BUCKETS)
                .count()
                >= 1
        );
    }

    #[test]
    fn subset_map_visits_exactly_the_dirty_indices() {
        let items: Vec<u64> = (0..50).map(|x| x * 10).collect();
        let dirty = [3usize, 41, 7, 7, 0];
        for jobs in [1, 2, 4] {
            let got = parallel_map_subset(&items, &dirty, jobs, |i, &x| (i, x + 1));
            assert_eq!(
                got,
                vec![(3, 31), (41, 411), (7, 71), (7, 71), (0, 1)],
                "jobs={jobs}"
            );
        }
        let none: Vec<(usize, u64)> = parallel_map_subset(&items, &[], 4, |i, &x| (i, x));
        assert!(none.is_empty());
    }

    #[test]
    fn empty_input_is_fine() {
        let got: Vec<u32> = parallel_map(&[] as &[u32], 4, |_, &x| x);
        assert!(got.is_empty());
    }

    #[test]
    fn try_map_reports_first_error_by_index() {
        let items: Vec<u32> = (0..50).collect();
        let r: Result<Vec<u32>, String> = try_parallel_map(&items, 4, |_, &x| {
            if x == 7 || x == 33 {
                Err(format!("bad {x}"))
            } else {
                Ok(x)
            }
        });
        assert_eq!(r.unwrap_err(), "bad 7");
    }

    #[test]
    fn task_pool_runs_submitted_jobs() {
        use std::sync::atomic::AtomicU64;
        use std::sync::Arc;
        let pool = TaskPool::new(3, 16);
        assert_eq!(pool.worker_count(), 3);
        let sum = Arc::new(AtomicU64::new(0));
        for i in 1..=10u64 {
            let sum = Arc::clone(&sum);
            pool.try_submit(move || {
                sum.fetch_add(i, Ordering::SeqCst);
            })
            .unwrap();
        }
        pool.shutdown_drain();
        assert_eq!(sum.load(Ordering::SeqCst), 55);
    }

    #[test]
    fn task_pool_sheds_load_when_queue_full() {
        use std::sync::mpsc;
        // One worker, rendezvous queue: park the worker, then every
        // further submit must be refused with `Full`, not buffered.
        let pool = TaskPool::new(1, 0);
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (parked_tx, parked_rx) = mpsc::channel::<()>();
        pool.try_submit(move || {
            parked_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        })
        .unwrap();
        parked_rx.recv().unwrap(); // worker is now busy
        let mut saw_full = false;
        for _ in 0..50 {
            match pool.try_submit(|| {}) {
                Err(SubmitError::Full) => {
                    saw_full = true;
                    break;
                }
                Ok(()) => continue, // a rendezvous handoff won the race
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(saw_full, "a busy 1-worker rendezvous pool must shed load");
        release_tx.send(()).unwrap();
        pool.shutdown_drain();
    }

    #[test]
    fn task_pool_admits_exactly_workers_plus_queue_depth() {
        let pool = TaskPool::new(2, 3);
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let release_rx = Arc::new(Mutex::new(release_rx));
        let (parked_tx, parked_rx) = mpsc::channel::<()>();
        for _ in 0..2 {
            let (parked_tx, release_rx) = (parked_tx.clone(), Arc::clone(&release_rx));
            pool.try_submit(move || {
                parked_tx.send(()).unwrap();
                release_rx.lock().unwrap().recv().unwrap();
            })
            .unwrap();
        }
        parked_rx.recv().unwrap();
        parked_rx.recv().unwrap(); // both workers busy
        for _ in 0..3 {
            pool.try_submit(|| {}).expect("queue has room");
        }
        assert_eq!(pool.try_submit(|| {}), Err(SubmitError::Full));
        release_tx.send(()).unwrap();
        release_tx.send(()).unwrap();
        while pool.in_flight.load(Ordering::Acquire) > 0 {
            std::thread::yield_now();
        }
        for _ in 0..5 {
            pool.try_submit(|| {}).expect("a drained pool admits again");
        }
        pool.shutdown_drain();
    }

    #[test]
    fn core_clamp_caps_at_cores_and_records_why() {
        let cores = available_cores();
        let c = clamp_to_cores(cores + 3);
        assert_eq!(
            (c.requested, c.effective, c.cores),
            (cores + 3, cores, cores)
        );
        assert!(c.clamped());
        assert_eq!(
            c.note(),
            format!(
                "requested {} worker(s) clamped to {cores} ({cores} core(s) available)",
                cores + 3
            )
        );
        let c = clamp_to_cores(1);
        assert!(!c.clamped());
        assert_eq!(c.note(), format!("1 worker(s) on {cores} core(s)"));
    }

    #[test]
    fn task_pool_drain_runs_every_accepted_job() {
        use std::sync::atomic::AtomicU64;
        use std::sync::Arc;
        let pool = TaskPool::new(2, 64);
        let done = Arc::new(AtomicU64::new(0));
        let mut accepted = 0u64;
        for _ in 0..64 {
            let done = Arc::clone(&done);
            if pool
                .try_submit(move || {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    done.fetch_add(1, Ordering::SeqCst);
                })
                .is_ok()
            {
                accepted += 1;
            }
        }
        pool.shutdown_drain();
        assert_eq!(
            done.load(Ordering::SeqCst),
            accepted,
            "no accepted job dropped"
        );
    }

    #[test]
    fn self_scheduling_covers_unbalanced_work() {
        // Heavier early items must not serialize the tail.
        let items: Vec<u64> = (0..32).collect();
        let got = parallel_map(&items, 4, |_, &x| {
            if x < 2 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            x + 1
        });
        assert_eq!(got, (1..33).collect::<Vec<_>>());
    }
}
