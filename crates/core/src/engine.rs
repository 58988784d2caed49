//! Deterministic, fault-tolerant parallel corpus-evaluation engine.
//!
//! Clara's training pipeline spends nearly all of its time in two
//! embarrassingly parallel fan-outs: compiling a synthesized corpus with
//! the vendor compiler (`nfcc`) and profiling a corpus × workload matrix
//! on the simulator (`nic-sim`). This module provides the shared
//! machinery all of them run through:
//!
//! - **stages** ([`par_map`]/[`try_par_map`]) whose tasks run on
//!   [`tinyml::parallel`]'s scoped-thread pool, the one the LSTM's
//!   gradient lanes use: no work-stealing runtime, no dependency;
//! - **fault tolerance**: every task runs under `catch_unwind` with a
//!   bounded, deterministic retry schedule and an optional per-stage
//!   deadline; stages return the successes plus a structured
//!   [`TaskFailure`] list ([`StageOutcome`]) instead of aborting;
//! - **fault injection** ([`FaultPlan`], `CLARA_FAULTS`): seeded,
//!   deterministic panics/errors/stalls on chosen tasks — the test
//!   substrate for the machinery above;
//! - **two memo caches** behind the [`Engine`] handle
//!   ([`Engine::compile_cached`], [`Engine::profile_cached`]): each
//!   distinct module compiles at most once per process, and setup-free
//!   profiling runs are memoized on `(module, trace, port, NIC config)`
//!   fingerprints. With `CLARA_CACHE_DIR` set both are layered over a
//!   persistent content-addressed artifact store (the `diskcache`
//!   module) that survives the process;
//! - **[`EngineStats`]**: per-stage task counts and wall/CPU time plus
//!   cache hit rates, printed by the bench binaries.
//!
//! # Configuration
//!
//! The environment is the engine's one configuration channel, read
//! afresh by every stage: `CLARA_FAULTS` (`<seed>:<rate>[:<depth>]`) and
//! `CLARA_CACHE_DIR` are read here, and `CLARA_THREADS` by
//! [`tinyml::parallel::threads`], the one place the workspace decides its
//! worker count, which this module re-exports as [`threads`] together
//! with the [`set_threads`] override. A failing task is retried twice.
//! The one setting made in code is [`set_stage_deadline`], which the
//! serving daemon installs while it runs.
//!
//! # Determinism
//!
//! Parallel runs are bit-identical to serial runs. [`par_map`] assigns
//! tasks by index and returns results in input order; every task is a
//! pure function of its input, and all caches key on the full input
//! content, so a cache hit returns exactly what recomputation would —
//! including, for the disk cache, a replay of the deterministic
//! telemetry the original computation produced. Retries rerun the same
//! pure task, and fault-injection decisions hash `(seed, stage, index,
//! attempt)` — never wall-clock or scheduling — so a faulted run whose
//! failures stay within the retry budget is bit-identical to a fault-free
//! run. `tests/engine_determinism.rs` asserts all of this end to end.
//! The one escape hatch is [`set_stage_deadline`]: deadline expiry
//! depends on wall-clock time, so runs that hit a deadline are *not*
//! guaranteed deterministic (they are guaranteed to terminate).

use std::collections::{BTreeMap, HashMap};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use clara_obs as obs;
use nf_ir::Module;
use nfcc::NicModule;
use nic_sim::{
    module_fingerprint, trace_fingerprint, CoalesceSummary, NicConfig, PortConfig, WorkloadProfile,
};
use serde::Serialize;
use trafgen::{Trace, WorkloadSpec};

use crate::diskcache::{self, DiskCache};
use crate::error::ClaraError;

pub use crate::diskcache::CacheVerifySummary;
pub use crate::faults::{FaultKind, FaultPlan};

// ---- configuration -----------------------------------------------------

pub use tinyml::parallel::{set_threads, threads};

/// Extra attempts a failing task gets before it is reported as a
/// permanent [`TaskFailure`], so a task runs at most three times.
/// Retries are immediate: no backoff, no wall-clock randomness.
const RETRY_BUDGET: u32 = 2;

/// The budget [`set_stage_deadline`] installed.
static STAGE_DEADLINE: Mutex<Option<Duration>> = Mutex::new(None);

/// Sets the wall-clock budget of every engine stage in this process:
/// an attempt that would start after its stage has run this long fails
/// with [`TaskError::DeadlineExceeded`] instead. `None` removes it. The
/// serving daemon installs its request deadline here while it runs.
pub fn set_stage_deadline(deadline: Option<Duration>) {
    *STAGE_DEADLINE.lock().expect("deadline poisoned") = deadline;
}

/// What a stage runs under, read fresh per stage so that changes to the
/// environment in tests take effect immediately.
struct Resolved {
    deadline: Option<Duration>,
    faults: Option<FaultPlan>,
    cache: Option<DiskCache>,
}

fn resolved() -> Resolved {
    Resolved {
        deadline: *STAGE_DEADLINE.lock().expect("deadline poisoned"),
        faults: std::env::var("CLARA_FAULTS")
            .ok()
            .and_then(|s| FaultPlan::parse(&s)),
        cache: std::env::var("CLARA_CACHE_DIR")
            .ok()
            .filter(|s| !s.trim().is_empty())
            .map(|s| DiskCache::new(PathBuf::from(s))),
    }
}

// ---- task outcomes -----------------------------------------------------

/// Why one engine task failed permanently.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TaskError {
    /// The task panicked (caught; the worker pool survives).
    Panicked {
        /// The panic payload, when it was a string.
        detail: String,
    },
    /// A seeded [`FaultPlan`] injected this failure.
    Injected {
        /// What was injected.
        kind: FaultKind,
    },
    /// The stage's wall-clock deadline expired before the task could
    /// start (another) attempt.
    DeadlineExceeded,
}

impl std::fmt::Display for TaskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskError::Panicked { detail } => write!(f, "task panicked: {detail}"),
            TaskError::Injected { kind } => write!(f, "injected fault: {kind}"),
            TaskError::DeadlineExceeded => write!(f, "stage deadline exceeded"),
        }
    }
}

/// One task that exhausted its retry budget (or its stage's deadline).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskFailure {
    /// Stage label the task ran under.
    pub stage: &'static str,
    /// Task index within the stage.
    pub index: usize,
    /// Attempts actually executed (0 when the deadline expired before
    /// the first attempt).
    pub attempts: u32,
    /// The final attempt's error.
    pub error: TaskError,
}

/// A stage's partial result: per-task successes (input order, `None`
/// where the task failed) plus the structured failure list.
#[derive(Debug)]
pub struct StageOutcome<R> {
    /// One entry per input item, in input order.
    pub results: Vec<Option<R>>,
    /// Permanent failures, in task-index order.
    pub failures: Vec<TaskFailure>,
}

impl<R> StageOutcome<R> {
    /// Number of tasks the stage attempted.
    pub fn total(&self) -> usize {
        self.results.len()
    }

    /// Whether every task succeeded.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }

    /// The successful results, dropping failed slots.
    pub fn successes(self) -> Vec<R> {
        self.results.into_iter().flatten().collect()
    }
}

fn eng_ctr(cell: &'static OnceLock<obs::Counter>, name: &'static str) -> &'static obs::Counter {
    cell.get_or_init(|| obs::counter(name))
}

static RETRIES: OnceLock<obs::Counter> = OnceLock::new();
static TASK_FAILURES: OnceLock<obs::Counter> = OnceLock::new();
static FAULTS_INJECTED: OnceLock<obs::Counter> = OnceLock::new();

// Deterministic counters: retry and injection decisions are pure
// functions of (plan, stage, index, attempt), so their totals are
// worker-count invariant and belong in the deterministic run report.
fn retries_ctr() -> &'static obs::Counter {
    eng_ctr(&RETRIES, "engine.retries")
}
fn task_failures_ctr() -> &'static obs::Counter {
    eng_ctr(&TASK_FAILURES, "engine.task_failures")
}
fn faults_injected_ctr() -> &'static obs::Counter {
    eng_ctr(&FAULTS_INJECTED, "engine.faults_injected")
}

/// Registers the fault-tolerance counters up front so they appear (as
/// zeros) in every run report, faulted or not — keeping report shapes
/// identical across runs.
fn touch_fault_counters() {
    retries_ctr();
    task_failures_ctr();
    faults_injected_ctr();
}

fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one task with panic isolation, fault injection, the retry
/// schedule, and the stage deadline. `started` is the stage's start
/// instant (deadlines are per stage, not per task).
fn run_task<R>(
    stage: &'static str,
    index: usize,
    started: Instant,
    res: &Resolved,
    f: impl Fn() -> R,
) -> Result<R, TaskFailure> {
    let mut attempt: u32 = 0;
    loop {
        if let Some(deadline) = res.deadline {
            if started.elapsed() >= deadline {
                task_failures_ctr().incr();
                return Err(TaskFailure {
                    stage,
                    index,
                    attempts: attempt,
                    error: TaskError::DeadlineExceeded,
                });
            }
        }
        let injected = res
            .faults
            .as_ref()
            .and_then(|p| p.decide(stage, index, attempt));
        if injected.is_some() {
            faults_injected_ctr().incr();
        }
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            match injected {
                Some(FaultKind::Panic) => {
                    std::panic::panic_any(crate::faults::InjectedPanic);
                }
                Some(FaultKind::Error) => {
                    return Err(TaskError::Injected {
                        kind: FaultKind::Error,
                    })
                }
                Some(FaultKind::Stall) => std::thread::sleep(Duration::from_millis(
                    res.faults.as_ref().map_or(0, |p| p.stall_ms),
                )),
                None => {}
            }
            Ok(f())
        }));
        let error = match outcome {
            Ok(Ok(r)) => return Ok(r),
            Ok(Err(e)) => e,
            Err(payload) => {
                if payload
                    .downcast_ref::<crate::faults::InjectedPanic>()
                    .is_some()
                {
                    TaskError::Injected {
                        kind: FaultKind::Panic,
                    }
                } else {
                    TaskError::Panicked {
                        detail: panic_detail(payload.as_ref()),
                    }
                }
            }
        };
        if attempt < RETRY_BUDGET {
            attempt += 1;
            retries_ctr().incr();
            continue;
        }
        task_failures_ctr().incr();
        return Err(TaskFailure {
            stage,
            index,
            attempts: attempt + 1,
            error,
        });
    }
}

/// Maps `f` over `items` on the worker pool with full fault tolerance,
/// returning a [`StageOutcome`] (successes in input order plus the
/// failure list). Bit-identical to a serial map for the tasks that
/// succeed.
pub fn try_par_map<T, R, F>(stage: &'static str, items: &[T], f: F) -> StageOutcome<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_with(stage, items, &f, &resolved())
}

fn par_map_with<T, R, F>(stage: &'static str, items: &[T], f: &F, res: &Resolved) -> StageOutcome<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if res.faults.is_some() {
        crate::faults::install_quiet_hook();
    }
    touch_fault_counters();
    let _span = obs::span!(stage, "tasks={}", items.len());
    // Each task attaches its worker thread to this stage's span, so
    // task-opened spans (compiles, profiling runs, model fits) nest under
    // the stage exactly as they would on the calling thread.
    let span_parent = _span.handle();
    let started = Instant::now();
    let busy_ns = AtomicU64::new(0);
    let tasks: Vec<(usize, &T)> = items.iter().enumerate().collect();
    let outcomes = tinyml::parallel::map_ordered(&tasks, |w, &(i, t)| {
        let _ctx = obs::attach(span_parent);
        if obs::enabled() {
            obs::volatile_counter(&format!("engine.worker.{w}.tasks")).incr();
        }
        let t0 = Instant::now();
        let r = run_task(stage, i, started, res, || f(i, t));
        busy_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        r
    });

    let mut results = Vec::with_capacity(items.len());
    let mut failures = Vec::new();
    for r in outcomes {
        match r {
            Ok(v) => results.push(Some(v)),
            Err(failure) => {
                results.push(None);
                failures.push(failure);
            }
        }
    }

    record_stage(
        stage,
        items.len() as u64,
        started.elapsed(),
        Duration::from_nanos(busy_ns.into_inner()),
    );
    StageOutcome { results, failures }
}

/// Maps `f` over `items` on the worker pool, returning results in input
/// order (bit-identical to a serial map). `stage` labels the work in
/// [`EngineStats`].
///
/// # Panics
///
/// Panics if any task fails permanently (exhausts its retry budget).
/// Pipelines that must survive partial failure use [`try_par_map`].
pub fn par_map<T, R, F>(stage: &'static str, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let out = try_par_map(stage, items, f);
    assert!(
        out.failures.is_empty(),
        "stage `{stage}`: {} of {} task(s) failed permanently; first: {}",
        out.failures.len(),
        out.results.len(),
        out.failures[0].error
    );
    out.results
        .into_iter()
        .map(|r| r.expect("complete"))
        .collect()
}

/// Times a serial stage under a label in [`EngineStats`], with a span.
/// No fault machinery: the closure runs exactly once on this thread.
pub fn time_stage<R>(stage: &'static str, f: impl FnOnce() -> R) -> R {
    let _span = obs::span(stage);
    let started = Instant::now();
    let r = f();
    let wall = started.elapsed();
    record_stage(stage, 1, wall, wall);
    r
}

/// Fault-tolerant [`time_stage`]: runs `f` as a single protected task
/// (panic isolation, injection, retries, deadline). Requires `Fn`
/// because a faulted attempt reruns the closure.
///
/// # Errors
///
/// Returns the [`TaskFailure`] when the stage exhausts its retry budget
/// or deadline.
pub fn try_time_stage<R>(stage: &'static str, f: impl Fn() -> R) -> Result<R, TaskFailure> {
    let res = resolved();
    if res.faults.is_some() {
        crate::faults::install_quiet_hook();
    }
    touch_fault_counters();
    let _span = obs::span(stage);
    let started = Instant::now();
    let r = run_task(stage, 0, started, &res, &f);
    let wall = started.elapsed();
    record_stage(stage, 1, wall, wall);
    r
}

// ---- caches ------------------------------------------------------------

/// Each entry is a single-flight slot: the map lock is only held to look
/// the slot up, and the slot's `OnceLock` guarantees exactly one thread
/// runs the expensive computation while racing threads block on it —
/// which both avoids duplicate work and keeps the hit/miss counters a
/// pure function of the work requested (a property the deterministic
/// run-report test relies on). A panicked computation (e.g. an injected
/// fault) leaves the slot uninitialized, so the retry recomputes cleanly.
type Slot<V> = Arc<OnceLock<V>>;
static COMPILE_CACHE: OnceLock<Mutex<HashMap<u64, Slot<Arc<NicModule>>>>> = OnceLock::new();
/// (module fp, trace fp, port fp, nic-config fp, backend fp) → profile.
///
/// The backend fingerprint is the device-manifest component: callers
/// profiling through a HAL backend pass its manifest fingerprint, and
/// the legacy cfg-only surface passes the cfg fingerprint again. Either
/// way, two devices never share a cache entry — in memory or on disk.
type ProfileKey = (u64, u64, u64, u64, u64);
static PROFILE_CACHE: OnceLock<Mutex<HashMap<ProfileKey, Slot<WorkloadProfile>>>> = OnceLock::new();

/// Most entries the in-process profile cache holds. A miss on a full
/// cache empties it before inserting, so a stream of never-repeating
/// traces — a daemon re-planning under traffic drift — cannot grow the
/// cache without bound, while a key inserted after the cap filled still
/// hits on its next lookup (a repeated `analyze` or `place` reuses its
/// profiles). Training stays far below the cap.
pub const PROFILE_CACHE_CAP: usize = 4096;

static COMPILE_HITS: OnceLock<obs::Counter> = OnceLock::new();
static COMPILE_MISSES: OnceLock<obs::Counter> = OnceLock::new();
static PROFILE_HITS: OnceLock<obs::Counter> = OnceLock::new();
static PROFILE_MISSES: OnceLock<obs::Counter> = OnceLock::new();

fn compile_hits() -> &'static obs::Counter {
    eng_ctr(&COMPILE_HITS, "engine.compile_cache.hits")
}
fn compile_misses() -> &'static obs::Counter {
    eng_ctr(&COMPILE_MISSES, "engine.compile_cache.misses")
}
fn profile_hits() -> &'static obs::Counter {
    eng_ctr(&PROFILE_HITS, "engine.profile_cache.hits")
}
fn profile_misses() -> &'static obs::Counter {
    eng_ctr(&PROFILE_MISSES, "engine.profile_cache.misses")
}

/// Registers all four memo-cache counters together, as
/// [`touch_fault_counters`] does for its three: otherwise which of them
/// exist in a run report depends on which cache outcomes the process
/// happened to see first, and the report shape would depend on history.
fn touch_cache_counters() {
    compile_hits();
    compile_misses();
    profile_hits();
    profile_misses();
}

/// Content fingerprint of any serializable value (for cache keys).
pub fn value_fingerprint<T: Serialize>(v: &T) -> u64 {
    let json = serde_json::to_string(v).unwrap_or_default();
    nic_sim::fingerprint_bytes(json.as_bytes())
}

/// Handle on the process-global engine: the cache surface plus stats and
/// integrity checks. The handle is zero-sized — it exists so the cache
/// API has a receiver that can grow state later without another surface
/// change — and honours whatever the environment says at each call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Engine {
    _priv: (),
}

impl Engine {
    /// A handle on the process-global engine.
    pub fn new() -> Engine {
        Engine { _priv: () }
    }

    /// Memoized [`nfcc::compile_module`]: each distinct module compiles
    /// exactly once per process; repeat calls share the compiled result,
    /// and with a cache directory configured the compiled module
    /// persists across processes.
    ///
    /// Compilation runs outside the cache lock, so concurrent misses on
    /// *different* modules still compile in parallel. Threads racing on
    /// the *same* module single-flight on the entry's `OnceLock`: one
    /// compiles (counted as the miss), the rest block and count as hits.
    pub fn compile_cached(&self, module: &Module) -> Arc<NicModule> {
        self.compile_cached_fp(module, module_fingerprint(module))
    }

    /// [`Engine::compile_cached`] with the module's [`module_fingerprint`]
    /// supplied by a caller that already computed it.
    pub(crate) fn compile_cached_fp(&self, module: &Module, module_fp: u64) -> Arc<NicModule> {
        compile_cached_impl(module, module_fp, &resolved())
    }

    /// Memoized setup-free profiling: [`nic_sim::profile_workload`] with
    /// the result cached on `(module, trace, port, cfg)` content
    /// fingerprints (in-process and, when configured, on disk), and the
    /// vendor compile shared through [`Engine::compile_cached`].
    ///
    /// Only profiling runs with **no machine setup** are cacheable this
    /// way; callers that install state first (LPM rules, firewall
    /// entries) must keep calling [`nic_sim::profile_workload`] with
    /// their setup closure.
    pub fn profile_cached(
        &self,
        module: &Module,
        trace: &Trace,
        port: &PortConfig,
        cfg: &NicConfig,
    ) -> WorkloadProfile {
        self.profile_cached_for(module, trace, port, cfg, value_fingerprint(cfg))
    }

    /// [`Engine::profile_cached`] for a specific device backend: the
    /// cache key incorporates `backend_fp` (a HAL manifest fingerprint),
    /// so the disk cache never serves one device's profile to another —
    /// even for devices whose lowered `NicConfig`s happen to collide.
    pub fn profile_cached_for(
        &self,
        module: &Module,
        trace: &Trace,
        port: &PortConfig,
        cfg: &NicConfig,
        backend_fp: u64,
    ) -> WorkloadProfile {
        ProfileScope::new(port, cfg, backend_fp).profile(
            module,
            module_fingerprint(module),
            trace,
            trace_fingerprint(trace),
        )
    }

    /// Drops both in-process memo caches (tests use this to exercise
    /// cold paths). The persistent disk cache, if configured, is left
    /// intact — delete the directory to clear it.
    pub fn clear_caches(&self) {
        if let Some(c) = COMPILE_CACHE.get() {
            c.lock().expect("cache poisoned").clear();
        }
        if let Some(c) = PROFILE_CACHE.get() {
            c.lock().expect("cache poisoned").clear();
        }
    }

    /// Reads the current [`EngineStats`].
    pub fn stats(&self) -> EngineStats {
        EngineStats::snapshot()
    }

    /// Checks every artifact in the resolved cache directory against its
    /// header and checksum. Returns `Ok(None)` when no cache directory
    /// is configured.
    ///
    /// # Errors
    ///
    /// Returns [`ClaraError::Io`] when the directory exists but cannot
    /// be read.
    pub fn verify_disk_cache(&self) -> Result<Option<CacheVerifySummary>, ClaraError> {
        match resolved().cache {
            Some(dc) => dc.verify().map(Some),
            None => Ok(None),
        }
    }
}

/// `fp` is `module`'s [`module_fingerprint`].
fn compile_cached_impl(module: &Module, fp: u64, res: &Resolved) -> Arc<NicModule> {
    touch_cache_counters();
    let cache = COMPILE_CACHE.get_or_init(Mutex::default);
    let slot = {
        let mut guard = cache.lock().expect("cache poisoned");
        Arc::clone(guard.entry(fp).or_default())
    };
    let mut compiled = false;
    let nic = Arc::clone(slot.get_or_init(|| {
        compiled = true;
        compile_artifact(module, fp, res.cache.as_ref())
    }));
    if compiled {
        compile_misses().incr();
    } else {
        compile_hits().incr();
    }
    nic
}

/// The compile path below the in-process slot: consult the disk cache,
/// else compile while capturing the deterministic telemetry and persist
/// both. Replaying the captured telemetry on a warm hit keeps the
/// deterministic run report byte-identical to a cold run's.
fn compile_artifact(module: &Module, fp: u64, disk: Option<&DiskCache>) -> Arc<NicModule> {
    let Some(dc) = disk else {
        return nfcc::compile_module_shared(module);
    };
    if let Some((nic, tel)) = dc.load::<NicModule>("compile", fp) {
        obs::replay_telemetry(&tel);
        return Arc::new(nic);
    }
    diskcache::recomputes().incr();
    let (nic, tel) = obs::capture_telemetry("cache-compile", &format!("{fp:016x}"), || {
        nfcc::compile_module_shared(module)
    });
    dc.store("compile", fp, nic.as_ref(), &tel);
    nic
}

/// A port and a device with their fingerprints, hashed once for every
/// module and trace a caller profiles under them: the module-independent
/// part of a profile-cache key. Placement profiles each NF of a request
/// on each epoch's trace, and a batch predicts many items on one device.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ProfileScope<'a> {
    port: &'a PortConfig,
    cfg: &'a NicConfig,
    port_fp: u64,
    cfg_fp: u64,
    backend_fp: u64,
}

impl<'a> ProfileScope<'a> {
    /// `backend_fp` keys the device as in [`Engine::profile_cached_for`].
    pub(crate) fn new(port: &'a PortConfig, cfg: &'a NicConfig, backend_fp: u64) -> Self {
        ProfileScope {
            port,
            cfg,
            port_fp: value_fingerprint(port),
            cfg_fp: value_fingerprint(cfg),
            backend_fp,
        }
    }

    /// [`ProfileScope::new`] of the naive port, hashing nothing: the
    /// port's fingerprint is computed once per process, and `cfg_fp` is
    /// `cfg`'s [`value_fingerprint`], which a device backend holds as its
    /// [`clara_hal::Backend::nic_fingerprint`]. Every predict batch,
    /// `analyze` and `place` profiles under one of these.
    pub(crate) fn naive(cfg: &'a NicConfig, cfg_fp: u64, backend_fp: u64) -> Self {
        static NAIVE: OnceLock<(PortConfig, u64)> = OnceLock::new();
        let (port, port_fp) = NAIVE.get_or_init(|| {
            let port = PortConfig::naive();
            let fp = value_fingerprint(&port);
            (port, fp)
        });
        debug_assert_eq!(cfg_fp, value_fingerprint(cfg), "cfg_fp keys cfg");
        ProfileScope {
            port,
            cfg,
            port_fp: *port_fp,
            cfg_fp,
            backend_fp,
        }
    }

    /// [`Engine::profile_cached_for`] under this scope, for a module whose
    /// [`module_fingerprint`] is `module_fp` and a trace whose
    /// [`trace_fingerprint`] is `trace_fp`: the same cache entry, without
    /// hashing any input a second time.
    pub(crate) fn profile(
        &self,
        module: &Module,
        module_fp: u64,
        trace: &Trace,
        trace_fp: u64,
    ) -> WorkloadProfile {
        profile_cached_impl(module, module_fp, trace, trace_fp, self, &resolved(), None)
    }

    /// [`ProfileScope::profile`] of a naive scope, with the
    /// [`nic_sim::CoalesceSummary`] of the profiling pass when this call
    /// ran one: `None` when the profile came from the memory cache. A
    /// disk artifact is not read, since the pass has to run anyway; the
    /// profile, its cache entries and its telemetry are those of a cold
    /// [`ProfileScope::profile`].
    pub(crate) fn profile_summarized(
        &self,
        module: &Module,
        module_fp: u64,
        trace: &Trace,
        trace_fp: u64,
    ) -> (WorkloadProfile, Option<CoalesceSummary>) {
        debug_assert_eq!(
            *self.port,
            PortConfig::naive(),
            "summaries ride naive passes"
        );
        let mut summary = None;
        let wp = profile_cached_impl(
            module,
            module_fp,
            trace,
            trace_fp,
            self,
            &resolved(),
            Some(&mut summary),
        );
        (wp, summary)
    }
}

/// `module_fp` and `trace_fp` are `module`'s [`module_fingerprint`] and
/// `trace`'s [`trace_fingerprint`]. With `summary`, a profiling pass that
/// runs here also leaves its [`CoalesceSummary`] there.
fn profile_cached_impl(
    module: &Module,
    module_fp: u64,
    trace: &Trace,
    trace_fp: u64,
    scope: &ProfileScope<'_>,
    res: &Resolved,
    summary: Option<&mut Option<CoalesceSummary>>,
) -> WorkloadProfile {
    touch_cache_counters();
    let key = (
        module_fp,
        trace_fp,
        scope.port_fp,
        scope.cfg_fp,
        scope.backend_fp,
    );
    let cache = PROFILE_CACHE.get_or_init(Mutex::default);
    let slot = {
        let mut guard = cache.lock().expect("cache poisoned");
        if guard.len() >= PROFILE_CACHE_CAP && !guard.contains_key(&key) {
            guard.clear();
        }
        Arc::clone(guard.entry(key).or_default())
    };
    let mut profiled = false;
    let wp = slot
        .get_or_init(|| {
            profiled = true;
            // The vendor compile is hoisted ahead of the disk lookup —
            // and kept OUT of the profile's capture frame. It maintains
            // its own disk artifact; nesting it here would double-count
            // its telemetry on replay and make a warm run's in-memory
            // compile hit/miss pattern diverge from a cold run's.
            let nic = compile_cached_impl(module, module_fp, res);
            profile_artifact(module, &nic, trace, scope, key, res.cache.as_ref(), summary)
        })
        .clone();
    if profiled {
        profile_misses().incr();
    } else {
        profile_hits().incr();
    }
    wp
}

/// Folds the 5-part profile key into the single content address the
/// disk cache files use.
fn profile_disk_key(key: ProfileKey) -> u64 {
    let mut buf = [0u8; 40];
    buf[..8].copy_from_slice(&key.0.to_le_bytes());
    buf[8..16].copy_from_slice(&key.1.to_le_bytes());
    buf[16..24].copy_from_slice(&key.2.to_le_bytes());
    buf[24..32].copy_from_slice(&key.3.to_le_bytes());
    buf[32..].copy_from_slice(&key.4.to_le_bytes());
    nic_sim::fingerprint_bytes(&buf)
}

fn profile_artifact(
    module: &Module,
    nic: &NicModule,
    trace: &Trace,
    scope: &ProfileScope<'_>,
    key: ProfileKey,
    disk: Option<&DiskCache>,
    summary: Option<&mut Option<CoalesceSummary>>,
) -> WorkloadProfile {
    // A pass that also summarizes has to run whatever the disk holds, so
    // it does not load the artifact: its telemetry, and with it the
    // deterministic run report, stay those of a cold run.
    let load = summary.is_none();
    let compute = || match summary {
        Some(out) => {
            let (wp, s) = nic_sim::profile_summarized(module, nic, trace, scope.cfg);
            *out = Some(s);
            wp
        }
        None => nic_sim::profile_workload_compiled(module, nic, trace, scope.port, scope.cfg),
    };
    let Some(dc) = disk else { return compute() };
    let dkey = profile_disk_key(key);
    if load {
        if let Some((wp, tel)) = dc.load::<WorkloadProfile>("profile", dkey) {
            obs::replay_telemetry(&tel);
            return wp;
        }
    }
    diskcache::recomputes().incr();
    let (wp, tel) = obs::capture_telemetry("cache-profile", &format!("{dkey:016x}"), compute);
    dc.store("profile", dkey, &wp, &tel);
    wp
}

// ---- corpus × workload matrix ------------------------------------------

/// Profiles every `(module, workload)` pair of a corpus × workload
/// matrix on the worker pool, returning profiles in row-major order
/// (module-major, workload-minor).
///
/// Each cell gets a deterministic trace seed `seed ^ (i * W + j)` (`i`
/// module index, `j` workload index, `W` workload count), so the matrix
/// is a pure function of `(modules, workloads, pkts, seed, port, cfg)`
/// regardless of worker count or schedule.
///
/// # Panics
///
/// Panics if any cell fails permanently; [`try_profile_matrix`] is the
/// fault-tolerant form.
pub fn profile_matrix(
    modules: &[Module],
    workloads: &[WorkloadSpec],
    pkts: usize,
    seed: u64,
    port: &PortConfig,
    cfg: &NicConfig,
) -> Vec<WorkloadProfile> {
    let out = try_profile_matrix(modules, workloads, pkts, seed, port, cfg);
    assert!(
        out.failures.is_empty(),
        "profile-matrix: {} of {} cell(s) failed permanently; first: {}",
        out.failures.len(),
        out.results.len(),
        out.failures[0].error
    );
    out.results
        .into_iter()
        .map(|r| r.expect("complete"))
        .collect()
}

/// Fault-tolerant [`profile_matrix`]: cells whose profiling fails
/// permanently come back as `None` in [`StageOutcome::results`] (still
/// row-major) with the failures listed alongside.
pub fn try_profile_matrix(
    modules: &[Module],
    workloads: &[WorkloadSpec],
    pkts: usize,
    seed: u64,
    port: &PortConfig,
    cfg: &NicConfig,
) -> StageOutcome<WorkloadProfile> {
    let res = resolved();
    let scope = ProfileScope::new(port, cfg, value_fingerprint(cfg));
    let w = workloads.len();
    let cells: Vec<(usize, usize)> = (0..modules.len())
        .flat_map(|i| (0..w).map(move |j| (i, j)))
        .collect();
    par_map_with(
        "profile-matrix",
        &cells,
        &|_, &(i, j)| {
            let trace = Trace::generate(&workloads[j], pkts, seed ^ ((i * w + j) as u64));
            let module_fp = module_fingerprint(&modules[i]);
            let trace_fp = trace_fingerprint(&trace);
            profile_cached_impl(&modules[i], module_fp, &trace, trace_fp, &scope, &res, None)
        },
        &res,
    )
}

// ---- statistics --------------------------------------------------------

/// Accumulated cost of one engine stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageStat {
    /// Tasks executed under this label.
    pub tasks: u64,
    /// Wall-clock time spent in the stage.
    pub wall: Duration,
    /// Summed task execution time across workers (≈ CPU time; exceeds
    /// `wall` when the stage ran in parallel).
    pub cpu: Duration,
}

static STAGES: OnceLock<Mutex<BTreeMap<&'static str, StageStat>>> = OnceLock::new();

fn record_stage(stage: &'static str, tasks: u64, wall: Duration, cpu: Duration) {
    {
        let mut guard = STAGES
            .get_or_init(Mutex::default)
            .lock()
            .expect("stats poisoned");
        let s = guard.entry(stage).or_default();
        s.tasks += tasks;
        s.wall += wall;
        s.cpu += cpu;
    }
    // Mirror into the obs registry only while recording: the formatted
    // names allocate, and a disabled layer must stay allocation-free.
    if obs::enabled() {
        obs::counter(&format!("engine.stage.{stage}.tasks")).add(tasks);
        obs::volatile_counter(&format!("engine.stage.{stage}.wall_ns")).add(wall.as_nanos() as u64);
        obs::volatile_counter(&format!("engine.stage.{stage}.cpu_ns")).add(cpu.as_nanos() as u64);
    }
}

/// A snapshot of the engine's counters, printable via `Display`.
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// Worker count the engine is configured for.
    pub threads: usize,
    /// Compile-cache hits.
    pub compile_hits: u64,
    /// Compile-cache misses (actual vendor compiles run).
    pub compile_misses: u64,
    /// Profile-cache hits.
    pub profile_hits: u64,
    /// Profile-cache misses (actual profiling runs).
    pub profile_misses: u64,
    /// Retries performed by the fault-tolerance machinery.
    pub retries: u64,
    /// Tasks that failed permanently.
    pub task_failures: u64,
    /// Faults injected by a configured [`FaultPlan`].
    pub faults_injected: u64,
    /// Persistent-cache artifacts loaded and verified.
    pub disk_hits: u64,
    /// Computations performed because no valid artifact existed.
    pub disk_recomputes: u64,
    /// Artifacts rejected on read (bad header/checksum/body).
    pub disk_corrupt: u64,
    /// Per-stage task counts and times, sorted by stage name.
    pub stages: Vec<(&'static str, StageStat)>,
}

impl EngineStats {
    /// Reads the current counters.
    pub fn snapshot() -> EngineStats {
        let stages = STAGES
            .get_or_init(Mutex::default)
            .lock()
            .expect("stats poisoned")
            .iter()
            .map(|(&k, &v)| (k, v))
            .collect();
        EngineStats {
            threads: threads(),
            compile_hits: compile_hits().value(),
            compile_misses: compile_misses().value(),
            profile_hits: profile_hits().value(),
            profile_misses: profile_misses().value(),
            retries: retries_ctr().value(),
            task_failures: task_failures_ctr().value(),
            faults_injected: faults_injected_ctr().value(),
            disk_hits: diskcache::hits().value(),
            disk_recomputes: diskcache::recomputes().value(),
            disk_corrupt: diskcache::corrupt().value(),
            stages,
        }
    }

    /// Zeroes all counters and stage records (caches stay warm). This
    /// also resets the whole [`clara_obs`] registry — spans and every
    /// metric across the workspace — so one reset yields one clean run
    /// report.
    pub fn reset() {
        obs::reset();
        if let Some(s) = STAGES.get() {
            s.lock().expect("stats poisoned").clear();
        }
    }
}

impl std::fmt::Display for EngineStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "engine: {} thread(s); compile cache {} hit / {} miss; profile cache {} hit / {} miss",
            self.threads,
            self.compile_hits,
            self.compile_misses,
            self.profile_hits,
            self.profile_misses
        )?;
        if self.disk_hits + self.disk_recomputes + self.disk_corrupt > 0 {
            writeln!(
                f,
                "  disk cache: {} hit / {} recompute / {} corrupt",
                self.disk_hits, self.disk_recomputes, self.disk_corrupt
            )?;
        }
        if self.retries + self.task_failures + self.faults_injected > 0 {
            writeln!(
                f,
                "  fault tolerance: {} retries / {} permanent failures / {} faults injected",
                self.retries, self.task_failures, self.faults_injected
            )?;
        }
        for (name, s) in &self.stages {
            writeln!(
                f,
                "  stage {name:<18} {:>6} tasks  wall {:>9.3?}  cpu {:>9.3?}",
                s.tasks, s.wall, s.cpu
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Explicit faults and no deadline or disk cache, for exercising the
    /// task machinery without touching the process environment (other
    /// unit tests train and profile concurrently).
    fn local(faults: Option<FaultPlan>) -> Resolved {
        Resolved {
            deadline: None,
            faults,
            cache: None,
        }
    }

    #[test]
    fn par_map_matches_serial_order() {
        let items: Vec<u64> = (0..103).collect();
        set_threads(1);
        let serial = par_map("test-order", &items, |i, &x| x * 3 + i as u64);
        set_threads(4);
        let parallel = par_map("test-order", &items, |i, &x| x * 3 + i as u64);
        set_threads(0);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn compile_cache_hits_on_repeat() {
        let m = click_model::elements::udpcount().module;
        let engine = Engine::new();
        let a = engine.compile_cached(&m);
        let before = compile_hits().value();
        let b = engine.compile_cached(&m);
        assert!(compile_hits().value() > before);
        assert_eq!(a.handler().total_compute(), b.handler().total_compute());
    }

    #[test]
    fn profile_cache_returns_identical_profile() {
        let m = click_model::elements::udpcount().module;
        let trace = Trace::generate(&WorkloadSpec::large_flows(), 60, 9);
        let port = PortConfig::naive();
        let cfg = NicConfig::default();
        let engine = Engine::new();
        let direct = nic_sim::profile_workload(&m, &trace, &port, &cfg, |_| {});
        let cold = engine.profile_cached(&m, &trace, &port, &cfg);
        let warm = engine.profile_cached(&m, &trace, &port, &cfg);
        assert_eq!(direct, cold);
        assert_eq!(cold, warm);
    }

    #[test]
    fn naive_scopes_key_profiles_as_hashing_does() {
        // Precomputed fingerprints must give the keys that hashing the
        // port and each device per request gave: disk-cache keys and run
        // reports depend on them.
        let naive = PortConfig::naive();
        for b in clara_hal::builtins() {
            use clara_hal::Backend;
            assert_eq!(
                b.nic_fingerprint(),
                value_fingerprint(b.nic()),
                "{}",
                b.name()
            );
            let hashed = ProfileScope::new(&naive, b.nic(), b.fingerprint());
            let held = ProfileScope::naive(b.nic(), b.nic_fingerprint(), b.fingerprint());
            assert_eq!(
                (held.port, held.port_fp, held.cfg_fp, held.backend_fp),
                (&naive, hashed.port_fp, hashed.cfg_fp, hashed.backend_fp)
            );
        }
    }

    #[test]
    fn stats_snapshot_accumulates_stages() {
        par_map("test-stat", &[1, 2, 3], |_, x| x + 1);
        let stats = EngineStats::snapshot();
        let (_, s) = stats
            .stages
            .iter()
            .find(|(n, _)| *n == "test-stat")
            .expect("stage recorded");
        assert!(s.tasks >= 3);
    }

    #[test]
    fn faults_within_retry_budget_are_invisible_in_results() {
        let items: Vec<u64> = (0..60).collect();
        let plan = FaultPlan {
            depth: 2,
            ..FaultPlan::new(11, 0.5)
        };
        let clean = par_map_with(
            "test-fault-budget",
            &items,
            &|i, &x| x * 7 + i as u64,
            &local(None),
        );
        for workers in [1, 4] {
            set_threads(workers);
            let faulted = par_map_with(
                "test-fault-budget",
                &items,
                &|i, &x| x * 7 + i as u64,
                &local(Some(plan.clone())),
            );
            set_threads(0);
            assert!(
                faulted.is_complete(),
                "within-budget faults must all retry out"
            );
            assert_eq!(
                faulted.successes(),
                clean.results.iter().map(|r| r.unwrap()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn faults_beyond_retry_budget_become_structured_failures() {
        let items: Vec<u64> = (0..40).collect();
        let plan = FaultPlan {
            depth: 9,
            ..FaultPlan::new(23, 0.4)
        };
        let before = task_failures_ctr().value();
        set_threads(4);
        let out = par_map_with("test-fault-perm", &items, &|_, &x| x, &local(Some(plan)));
        set_threads(0);
        assert!(
            !out.failures.is_empty(),
            "a 40% plan over 40 tasks must select some"
        );
        assert_eq!(out.results.len(), items.len());
        for failure in &out.failures {
            assert_eq!(failure.stage, "test-fault-perm");
            assert_eq!(failure.attempts, 3, "two retries mean exactly 3 attempts");
            assert!(out.results[failure.index].is_none());
            assert!(matches!(failure.error, TaskError::Injected { .. }));
        }
        // Non-selected tasks still succeeded with correct values.
        for (i, r) in out.results.iter().enumerate() {
            if let Some(v) = r {
                assert_eq!(*v, items[i]);
            }
        }
        assert_eq!(
            task_failures_ctr().value(),
            before + out.failures.len() as u64
        );
    }

    #[test]
    fn expired_deadline_fails_tasks_without_running_them() {
        let ran = AtomicUsize::new(0);
        let res = Resolved {
            deadline: Some(Duration::ZERO),
            ..local(None)
        };
        let out = par_map_with(
            "test-deadline",
            &[1u32, 2, 3],
            &|_, &x| {
                ran.fetch_add(1, Ordering::Relaxed);
                x
            },
            &res,
        );
        assert_eq!(ran.load(Ordering::Relaxed), 0);
        assert_eq!(out.failures.len(), 3);
        assert!(out
            .failures
            .iter()
            .all(|f| f.error == TaskError::DeadlineExceeded && f.attempts == 0));
    }

    #[test]
    fn genuine_panics_are_isolated_and_reported() {
        set_threads(2);
        let out = par_map_with(
            "test-panic",
            &[0u32, 1, 2, 3],
            &|_, &x| {
                assert!(x != 2, "task two explodes");
                x * 10
            },
            &local(None),
        );
        set_threads(0);
        assert_eq!(out.failures.len(), 1);
        let f = &out.failures[0];
        assert_eq!(f.index, 2);
        assert_eq!(f.attempts, 3);
        assert!(matches!(&f.error, TaskError::Panicked { detail } if detail.contains("explodes")));
        assert_eq!(out.results[3], Some(30));
    }
}
