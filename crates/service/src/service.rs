//! The multi-tenant SCF job queue.
//!
//! [`ScfService`] accepts many `(molecule, basis, ScfConfig)` jobs
//! concurrently. Admission control is two-stage: at most `queue_depth`
//! jobs wait in the backlog (excess submissions get a typed
//! [`Rejection::QueueFull`], never silent unbounded growth), and at most
//! `runners` jobs execute SCF loops at once. Executing jobs share one
//! [`ProblemCache`] — repeated molecules skip setup entirely — and, by
//! default, one [`SharedPool`], so their Fock builds interleave at
//! shell-pair-task granularity instead of queuing whole iterations.
//!
//! Per-job latency accounting goes to the service's [`Recorder`]:
//! `job_enqueued` / `job_started` / `job_completed` side events (rank 0
//! stream) carry the job id, and the [`metric`] histograms split
//! end-to-end latency into queue wait and execution, with per-iteration
//! Fock-build wall times recorded separately.

use crate::cache::{CacheStats, ProblemCache};
use crate::error::{Error, Rejection};
use crate::pool::SharedPool;
use chem::molecule::Molecule;
use chem::BasisSetKind;
use fock_core::{run_scf_on, ScfConfig, ScfResult};
use obs::{EventKind, Recorder};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Shell-pair tasks a pool worker claims from one build per quantum.
const POOL_BATCH: usize = 8;

/// Metric names the service records into its [`Recorder`].
pub mod metric {
    /// Counter: jobs accepted into the queue.
    pub const JOBS_SUBMITTED: &str = "service.jobs_submitted";
    /// Counter: jobs refused by admission control.
    pub const JOBS_REJECTED: &str = "service.jobs_rejected";
    /// Counter: jobs that finished with a successful SCF result.
    pub const JOBS_COMPLETED: &str = "service.jobs_completed";
    /// Counter: jobs that finished with an error.
    pub const JOBS_FAILED: &str = "service.jobs_failed";
    /// Counter: jobs whose problem setup was served from the cache.
    pub const CACHE_HIT: &str = "service.cache_hit";
    /// Counter: jobs whose problem setup had to be built.
    pub const CACHE_MISS: &str = "service.cache_miss";
    /// Histogram (ns): enqueue → start.
    pub const QUEUE_WAIT_NS: &str = "service.queue_wait_ns";
    /// Histogram (ns): start → completion.
    pub const EXEC_NS: &str = "service.exec_ns";
    /// Histogram (ns): enqueue → completion (end-to-end job latency).
    pub const LATENCY_NS: &str = "service.latency_ns";
    /// Histogram (ns): wall time of each SCF iteration's Fock build.
    pub const ITER_BUILD_NS: &str = "service.iter_build_ns";
}

/// Service sizing and behaviour. `#[non_exhaustive]` — construct with
/// [`ServiceConfig::default`] plus the `with_*` setters.
#[derive(Clone)]
#[non_exhaustive]
pub struct ServiceConfig {
    /// Threads in the shared Fock-build pool.
    pub workers: usize,
    /// Jobs executing SCF loops concurrently (max in-flight).
    pub runners: usize,
    /// Jobs allowed to wait in the backlog; submissions beyond this get
    /// [`Rejection::QueueFull`].
    pub queue_depth: usize,
    /// Telemetry sink for job events, latency histograms and cache
    /// counters. Disabled by default.
    pub recorder: Recorder,
    /// Route every job's Fock builds through the shared pool (the
    /// multiplexed default). When off, each job uses whatever builder its
    /// own [`ScfConfig`] carries — beware sharing one enabled recorder
    /// across concurrent lane-checking builders in that mode.
    pub shared_pool: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            runners: 4,
            queue_depth: 64,
            recorder: Recorder::disabled(),
            shared_pool: true,
        }
    }
}

impl ServiceConfig {
    pub fn with_workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    pub fn with_runners(mut self, n: usize) -> Self {
        self.runners = n;
        self
    }

    pub fn with_queue_depth(mut self, n: usize) -> Self {
        self.queue_depth = n;
        self
    }

    pub fn with_recorder(mut self, rec: Recorder) -> Self {
        self.recorder = rec;
        self
    }

    pub fn with_shared_pool(mut self, on: bool) -> Self {
        self.shared_pool = on;
        self
    }
}

/// One SCF job: what [`fock_core::run_scf`] takes, as a value.
#[derive(Clone)]
pub struct JobSpec {
    pub molecule: Molecule,
    pub kind: BasisSetKind,
    pub cfg: ScfConfig,
}

impl JobSpec {
    pub fn new(molecule: Molecule, kind: BasisSetKind, cfg: ScfConfig) -> JobSpec {
        JobSpec {
            molecule,
            kind,
            cfg,
        }
    }
}

/// A finished job: the SCF result plus its latency decomposition.
pub struct JobOutcome {
    /// Service-assigned job id (also carried by the job's obs events).
    pub job: u64,
    pub result: ScfResult,
    /// Whether the problem setup was served from the cache.
    pub cache_hit: bool,
    /// Seconds spent waiting in the queue (enqueue → start).
    pub queue_wait_secs: f64,
    /// Seconds spent executing (start → completion).
    pub exec_secs: f64,
    /// End-to-end seconds (enqueue → completion).
    pub total_secs: f64,
}

enum Slot {
    Pending,
    Ready(Box<Result<JobOutcome, Error>>),
    Taken,
}

struct JobState {
    slot: Mutex<Slot>,
    cv: Condvar,
}

/// Handle to a submitted job. [`JobHandle::wait`] blocks for and takes the
/// outcome; the outcome is delivered exactly once (a second `wait` after a
/// successful one returns [`Error::Closed`]).
pub struct JobHandle {
    id: u64,
    state: Arc<JobState>,
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("id", &self.id)
            .field("done", &self.is_done())
            .finish()
    }
}

impl JobHandle {
    pub fn id(&self) -> u64 {
        self.id
    }

    /// True once the outcome is ready (wait would not block).
    pub fn is_done(&self) -> bool {
        !matches!(*self.state.slot.lock().unwrap(), Slot::Pending)
    }

    /// Block until the job finishes and take its outcome.
    pub fn wait(&self) -> Result<JobOutcome, Error> {
        let mut slot = self.state.slot.lock().unwrap();
        loop {
            match std::mem::replace(&mut *slot, Slot::Taken) {
                Slot::Ready(out) => return *out,
                Slot::Taken => return Err(Error::Closed),
                Slot::Pending => {
                    *slot = Slot::Pending;
                    slot = self.state.cv.wait(slot).unwrap();
                }
            }
        }
    }

    /// Like [`wait`](Self::wait) but gives up after `timeout`, returning
    /// [`Error::Timeout`]. The outcome stays claimable by a later wait.
    pub fn wait_timeout(&self, timeout: Duration) -> Result<JobOutcome, Error> {
        let deadline = Instant::now() + timeout;
        let mut slot = self.state.slot.lock().unwrap();
        loop {
            match std::mem::replace(&mut *slot, Slot::Taken) {
                Slot::Ready(out) => return *out,
                Slot::Taken => return Err(Error::Closed),
                Slot::Pending => {
                    *slot = Slot::Pending;
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(Error::Timeout {
                            waited_secs: timeout.as_secs_f64(),
                        });
                    }
                    // A waiter that panicked while holding the slot lock
                    // poisons it; the slot state machine stays valid, so
                    // recover rather than cascade the panic.
                    let (guard, _) = self
                        .state
                        .cv
                        .wait_timeout(slot, deadline - now)
                        .unwrap_or_else(|e| e.into_inner());
                    slot = guard;
                }
            }
        }
    }
}

struct QueuedJob {
    id: u64,
    spec: JobSpec,
    state: Arc<JobState>,
    enqueued_at: Instant,
}

struct QueueState {
    backlog: VecDeque<QueuedJob>,
    open: bool,
}

struct ServiceInner {
    queue: Mutex<QueueState>,
    work_cv: Condvar,
    queue_depth: usize,
    shared_pool: bool,
    cache: ProblemCache,
    pool: SharedPool,
    rec: Recorder,
    next_id: AtomicU64,
}

impl ServiceInner {
    fn finish(&self, job: &QueuedJob, outcome: Result<JobOutcome, Error>) {
        match &outcome {
            Ok(out) => {
                self.rec.counter(metric::JOBS_COMPLETED).add(1);
                self.rec.side_event(
                    0,
                    EventKind::JobCompleted {
                        job: job.id as u32,
                        iters: out.result.iterations as u32,
                    },
                );
            }
            Err(_) => {
                self.rec.counter(metric::JOBS_FAILED).add(1);
            }
        }
        *job.state.slot.lock().unwrap() = Slot::Ready(Box::new(outcome));
        job.state.cv.notify_all();
    }

    /// Execute one job: panic isolation. A panic anywhere in job
    /// execution — cache setup, a hostile builder, the SCF driver — used
    /// to kill the runner thread with the job slot still `Pending`, so
    /// `JobHandle::wait()` deadlocked the client and the pool silently
    /// lost a runner. `catch_unwind` at the job boundary converts the
    /// panic into a typed [`Error::Panicked`] delivered through
    /// [`finish`](Self::finish) (counted in `service.jobs_failed`), and
    /// the runner goes on to the next job.
    fn run_job(&self, job: &QueuedJob) {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.execute(job)))
            .unwrap_or_else(|payload| {
                let message = if let Some(s) = payload.downcast_ref::<&str>() {
                    (*s).to_string()
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else {
                    "non-string panic payload".to_string()
                };
                Err(Error::Panicked { message })
            });
        self.finish(job, outcome);
    }

    fn execute(&self, job: &QueuedJob) -> Result<JobOutcome, Error> {
        let started_at = Instant::now();
        let queue_wait = (started_at - job.enqueued_at).as_secs_f64();
        self.rec
            .histogram(metric::QUEUE_WAIT_NS)
            .record_secs(queue_wait);
        self.rec
            .side_event(0, EventKind::JobStarted { job: job.id as u32 });

        let spec = &job.spec;
        let lookup = self.cache.get_with_aux(
            &spec.molecule,
            spec.kind,
            spec.cfg.tau,
            spec.cfg.ordering,
            spec.cfg.builder.aux_key(),
        )?;
        self.rec
            .counter(if lookup.hit {
                metric::CACHE_HIT
            } else {
                metric::CACHE_MISS
            })
            .add(1);

        let mut cfg = spec.cfg.clone();
        if self.shared_pool {
            cfg.builder = self.pool.builder_for(Arc::clone(&lookup.problem));
            // Fold the service recorder in only when the job brought none:
            // the pool builder is lane-free, so many concurrent jobs can
            // share it safely.
            if !cfg.recorder.is_enabled() {
                cfg.recorder = self.rec.clone();
            }
        }
        let result = run_scf_on(Arc::clone(&lookup.problem), cfg);
        let exec_secs = started_at.elapsed().as_secs_f64();
        let total_secs = job.enqueued_at.elapsed().as_secs_f64();
        self.rec.histogram(metric::EXEC_NS).record_secs(exec_secs);
        self.rec
            .histogram(metric::LATENCY_NS)
            .record_secs(total_secs);
        match result {
            Ok(res) => {
                let iter_hist = self.rec.histogram(metric::ITER_BUILD_NS);
                for rep in &res.reports {
                    let t = rep.t_fock.iter().copied().fold(0.0, f64::max);
                    iter_hist.record_secs(t);
                }
                Ok(JobOutcome {
                    job: job.id,
                    result: res,
                    cache_hit: lookup.hit,
                    queue_wait_secs: queue_wait,
                    exec_secs,
                    total_secs,
                })
            }
            Err(e) => Err(Error::Scf(e)),
        }
    }

    fn runner_loop(&self) {
        loop {
            let job = {
                let mut q = self.queue.lock().unwrap();
                loop {
                    if let Some(job) = q.backlog.pop_front() {
                        break job;
                    }
                    if !q.open {
                        return;
                    }
                    q = self.work_cv.wait(q).unwrap();
                }
            };
            self.run_job(&job);
        }
    }

    /// Close the queue: reject future submissions and fail still-queued
    /// jobs with [`Error::Closed`]. In-flight jobs run to completion.
    fn close(&self) {
        let drained: Vec<QueuedJob> = {
            let mut q = self.queue.lock().unwrap();
            q.open = false;
            q.backlog.drain(..).collect()
        };
        self.work_cv.notify_all();
        for job in drained {
            self.finish(&job, Err(Error::Closed));
        }
    }
}

/// The multi-tenant SCF service. Dropping it shuts down cleanly: new
/// submissions are rejected, queued jobs fail with [`Error::Closed`],
/// in-flight jobs finish, and all threads are joined.
pub struct ScfService {
    inner: Arc<ServiceInner>,
    runners: Vec<JoinHandle<()>>,
}

impl ScfService {
    pub fn new(cfg: ServiceConfig) -> ScfService {
        assert!(cfg.runners >= 1, "service needs at least one runner");
        let inner = Arc::new(ServiceInner {
            queue: Mutex::new(QueueState {
                backlog: VecDeque::new(),
                open: true,
            }),
            work_cv: Condvar::new(),
            queue_depth: cfg.queue_depth,
            shared_pool: cfg.shared_pool,
            cache: ProblemCache::new(),
            pool: SharedPool::new(cfg.workers, POOL_BATCH),
            rec: cfg.recorder.clone(),
            next_id: AtomicU64::new(0),
        });
        let runners = (0..cfg.runners)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("scf-runner-{i}"))
                    .spawn(move || inner.runner_loop())
                    .expect("spawn service runner")
            })
            .collect();
        ScfService { inner, runners }
    }

    /// Submit a job. Returns immediately: `Ok` with a handle once the job
    /// is queued, or the typed [`Rejection`] if admission control refuses
    /// it (backlog full, or the service is shutting down).
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle, Rejection> {
        let state = Arc::new(JobState {
            slot: Mutex::new(Slot::Pending),
            cv: Condvar::new(),
        });
        {
            let mut q = self.inner.queue.lock().unwrap();
            if !q.open {
                self.inner.rec.counter(metric::JOBS_REJECTED).add(1);
                return Err(Rejection::ShuttingDown);
            }
            if q.backlog.len() >= self.inner.queue_depth {
                self.inner.rec.counter(metric::JOBS_REJECTED).add(1);
                return Err(Rejection::QueueFull {
                    depth: q.backlog.len(),
                    limit: self.inner.queue_depth,
                });
            }
            let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
            q.backlog.push_back(QueuedJob {
                id,
                spec,
                state: Arc::clone(&state),
                enqueued_at: Instant::now(),
            });
            self.inner.rec.counter(metric::JOBS_SUBMITTED).add(1);
            self.inner
                .rec
                .side_event(0, EventKind::JobEnqueued { job: id as u32 });
            self.inner.work_cv.notify_one();
            Ok(JobHandle { id, state })
        }
    }

    /// Submit and block for the outcome (convenience for sequential use).
    pub fn run(&self, spec: JobSpec) -> Result<JobOutcome, Error> {
        let handle = self.submit(spec).map_err(Error::Rejected)?;
        handle.wait()
    }

    /// Problem-cache counters (hits, misses, resident entries).
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.cache.stats()
    }

    /// Jobs currently waiting in the backlog.
    pub fn queued(&self) -> usize {
        self.inner.queue.lock().unwrap().backlog.len()
    }

    /// Stop accepting work and fail queued jobs with [`Error::Closed`];
    /// blocks until in-flight jobs finish and every thread is joined.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        self.inner.close();
        for h in self.runners.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ScfService {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chem::generators;
    use fock_core::run_scf;

    fn quick_cfg() -> ScfConfig {
        ScfConfig::builder().max_iter(30).diis(true).build()
    }

    #[test]
    fn single_job_matches_standalone_run_scf() {
        let svc = ScfService::new(ServiceConfig::default().with_workers(2).with_runners(2));
        let out = svc
            .run(JobSpec::new(
                generators::water(),
                BasisSetKind::Sto3g,
                quick_cfg(),
            ))
            .unwrap();
        let standalone = run_scf(generators::water(), BasisSetKind::Sto3g, quick_cfg()).unwrap();
        assert!(out.result.converged);
        assert!(
            (out.result.energy - standalone.energy).abs() < 1e-10,
            "service energy {} vs standalone {}",
            out.result.energy,
            standalone.energy
        );
        assert!(!out.cache_hit);
        assert!(out.total_secs >= out.exec_secs);
    }

    #[test]
    fn repeated_molecules_share_setup() {
        let svc = ScfService::new(ServiceConfig::default().with_workers(2).with_runners(1));
        let spec = JobSpec::new(generators::water(), BasisSetKind::Sto3g, quick_cfg());
        let a = svc.run(spec.clone()).unwrap();
        let b = svc.run(spec).unwrap();
        assert!(!a.cache_hit);
        assert!(b.cache_hit);
        assert!(Arc::ptr_eq(&a.result.problem, &b.result.problem));
        let stats = svc.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn concurrent_jobs_all_converge_to_reference_energies() {
        let svc = ScfService::new(ServiceConfig::default().with_workers(4).with_runners(3));
        let molecules = [
            generators::water(),
            generators::hydrogen(1.4),
            generators::methane(),
            generators::water(), // repeat → cache hit
        ];
        let handles: Vec<JobHandle> = molecules
            .iter()
            .map(|m| {
                svc.submit(JobSpec::new(m.clone(), BasisSetKind::Sto3g, quick_cfg()))
                    .unwrap()
            })
            .collect();
        for (h, m) in handles.iter().zip(&molecules) {
            let out = h.wait().unwrap();
            let reference = run_scf(m.clone(), BasisSetKind::Sto3g, quick_cfg()).unwrap();
            assert!(out.result.converged);
            assert!((out.result.energy - reference.energy).abs() < 1e-10);
        }
        assert!(svc.cache_stats().hits >= 1);
    }

    #[test]
    fn zero_depth_queue_rejects_with_typed_error() {
        let svc = ScfService::new(ServiceConfig::default().with_queue_depth(0));
        let err = svc
            .submit(JobSpec::new(
                generators::water(),
                BasisSetKind::Sto3g,
                quick_cfg(),
            ))
            .unwrap_err();
        assert!(matches!(err, Rejection::QueueFull { limit: 0, .. }));
    }

    #[test]
    fn shutdown_fails_queued_jobs_with_closed() {
        // One runner, wedged behind a real job; the job queued after it is
        // drained by shutdown before any runner reaches it.
        let svc = ScfService::new(ServiceConfig::default().with_runners(1).with_workers(1));
        let first = svc
            .submit(JobSpec::new(
                generators::methane(),
                BasisSetKind::Sto3g,
                quick_cfg(),
            ))
            .unwrap();
        let queued: Vec<JobHandle> = (0..4)
            .map(|_| {
                svc.submit(JobSpec::new(
                    generators::water(),
                    BasisSetKind::Sto3g,
                    quick_cfg(),
                ))
                .unwrap()
            })
            .collect();
        svc.shutdown();
        // The first job either ran to completion (runner dequeued it
        // before close) or was drained with Closed (runner hadn't started
        // yet); either way at least the backlog's tail is Closed.
        assert!(matches!(first.wait(), Ok(_) | Err(Error::Closed)));
        let closed = queued
            .iter()
            .filter(|h| matches!(h.wait(), Err(Error::Closed)))
            .count();
        assert!(closed >= 1, "shutdown must drain the backlog");
    }

    #[test]
    fn submit_after_shutdown_is_rejected() {
        let svc = ScfService::new(ServiceConfig::default());
        let inner = Arc::clone(&svc.inner);
        svc.shutdown();
        // The service value is gone, but this mirrors a racing submitter
        // observing the closed queue.
        let q = inner.queue.lock().unwrap();
        assert!(!q.open);
    }

    #[test]
    fn telemetry_records_job_lifecycle_and_latency() {
        let rec = Recorder::enabled();
        let svc = ScfService::new(
            ServiceConfig::default()
                .with_workers(2)
                .with_runners(1)
                .with_recorder(rec.clone()),
        );
        let spec = JobSpec::new(generators::water(), BasisSetKind::Sto3g, quick_cfg());
        svc.run(spec.clone()).unwrap();
        svc.run(spec).unwrap();
        drop(svc);
        let snap = rec.metrics_snapshot();
        assert_eq!(snap.counter(metric::JOBS_SUBMITTED), 2);
        assert_eq!(snap.counter(metric::JOBS_COMPLETED), 2);
        assert_eq!(snap.counter(metric::CACHE_HIT), 1);
        assert_eq!(snap.counter(metric::CACHE_MISS), 1);
        let hist = |name: &str| {
            snap.histograms
                .get(name)
                .map(|h| h.count)
                .unwrap_or_default()
        };
        assert_eq!(hist(metric::LATENCY_NS), 2);
        assert_eq!(hist(metric::QUEUE_WAIT_NS), 2);
        assert_eq!(hist(metric::EXEC_NS), 2);
        assert!(hist(metric::ITER_BUILD_NS) >= 2);
        let recording = rec.recording().expect("enabled recorder");
        let names: Vec<&str> = recording.events(0).iter().map(|e| e.kind.name()).collect();
        assert!(names.contains(&"job_enqueued"));
        assert!(names.contains(&"job_started"));
        assert!(names.contains(&"job_completed"));
    }

    /// A hostile builder that panics mid-build — stand-in for any bug
    /// reachable from `run_scf_on` inside a runner thread.
    struct PanickingBuild;

    impl fock_core::FockBuild for PanickingBuild {
        fn name(&self) -> &'static str {
            "panicking-test-build"
        }

        fn build(
            &self,
            _prob: &fock_core::FockProblem,
            _d: &[f64],
            _rec: &Recorder,
        ) -> Result<fock_core::BuildOutcome, fock_core::BuildError> {
            panic!("engineered panic for runner isolation test");
        }
    }

    #[test]
    fn runner_survives_panicking_job() {
        // Regression: a panic inside run_job used to kill the runner with
        // the job slot still Pending — wait() deadlocked and the pool lost
        // a runner. With one runner, the service only stays usable at all
        // if that runner survives the panic.
        let rec = Recorder::enabled();
        let svc = ScfService::new(
            ServiceConfig::default()
                .with_runners(1)
                .with_workers(1)
                .with_shared_pool(false) // use the job's own (hostile) builder
                .with_recorder(rec.clone()),
        );
        let hostile_cfg = ScfConfig::builder()
            .max_iter(5)
            .fock_builder(Arc::new(PanickingBuild))
            .build();
        let h = svc
            .submit(JobSpec::new(
                generators::water(),
                BasisSetKind::Sto3g,
                hostile_cfg,
            ))
            .unwrap();
        // The client gets a typed error instead of hanging forever.
        match h.wait_timeout(Duration::from_secs(60)) {
            Err(Error::Panicked { message }) => {
                assert!(message.contains("engineered panic"), "message: {message}")
            }
            Err(other) => panic!("expected Error::Panicked, got {other:?}"),
            Ok(_) => panic!("expected Error::Panicked, got a successful outcome"),
        }
        // The sole runner is still alive: the next (well-formed) job runs
        // to completion on the same service.
        let ok = svc
            .run(JobSpec::new(
                generators::water(),
                BasisSetKind::Sto3g,
                quick_cfg(),
            ))
            .unwrap();
        assert!(ok.result.converged);
        let snap = rec.metrics_snapshot();
        assert_eq!(snap.counter(metric::JOBS_FAILED), 1);
        assert_eq!(snap.counter(metric::JOBS_COMPLETED), 1);
    }

    #[test]
    fn wait_timeout_times_out_then_delivers() {
        let svc = ScfService::new(ServiceConfig::default().with_runners(1).with_workers(2));
        let h = svc
            .submit(JobSpec::new(
                generators::methane(),
                BasisSetKind::Sto3g,
                quick_cfg(),
            ))
            .unwrap();
        // A zero timeout on a job that can't have finished yet.
        match h.wait_timeout(Duration::from_nanos(1)) {
            Err(Error::Timeout { .. }) => {}
            other => {
                // The machine may genuinely be that fast; accept a result.
                assert!(other.is_ok());
            }
        }
        // The outcome is still claimable afterwards.
        let out = h.wait().unwrap();
        assert!(out.result.converged);
    }
}
