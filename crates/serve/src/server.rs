//! The daemon: one acceptor for TCP and UDS, per-tenant work queues,
//! sharded worker pool.
//!
//! Life of a request: a connection thread reads one request (a line or
//! a frame — see [`crate::transport`]; either is capped at
//! [`transport::MAX_REQUEST_LEN`], and an over-long or non-UTF-8 request
//! is answered `bad_request` and the connection closed), parses it,
//! resolves the tenant it runs as, and validates the NF and backend.
//! A `predict` is then looked up in the prediction cache **on the
//! connection thread**: a hit is rendered and answered right there, with
//! no queue slot, no worker and no channel; it takes the queue lock only
//! to check the drain flag and count itself in flight. Every other work
//! op, and every cache miss, tries to enqueue a job. Admission is
//! decided **under the queue lock** in one linearized step: draining
//! servers answer `draining`, a full shared queue answers `overloaded`,
//! and a tenant that filled its own quota answers `quota_exceeded` while
//! everyone else keeps being admitted. Both bounds count queued work
//! only, so cache hits are never refused for load. Admitted jobs go onto
//! the tenant's sub-queue; the connection thread parks on a channel
//! while a worker picks the job up.
//!
//! Dispatch is **deficit round-robin across tenants**: tenants with
//! pending jobs form a ring, each visit grants a quantum of
//! `batch_max` jobs, and unused credit carries (bounded) to the next
//! visit. A visit coalesces runs of adjacent `predict` jobs (each a
//! prediction-cache miss) bound for
//! the *same device backend at the same precision* into one
//! [`Clara::predict_batch_on_prec_cached`] call — coalescing never crosses
//! tenants. Workers are **sharded**: tenant *k* (registration order) is
//! pinned to shard `k % workers` and worker *i* serves shard
//! `i % min(workers, tenants)`, so a single tenant's burst occupies its
//! own slice of the pool while a lone-tenant workload still uses every
//! worker. `stats` is answered inline without queueing so it stays
//! responsive under load, and now carries per-tenant counters, the
//! `errors` total, and pairwise colocation-interference predictions.
//!
//! The server holds every backend in [`ServeOptions::backends`] warm
//! and routes each request by its `backend` field, falling back to the
//! tenant's registered default and then the server default; a name that
//! is not loaded is rejected before queueing with a typed
//! `unknown_backend` error.
//!
//! Drain (the `drain` op, [`ServerHandle::drain`], or SIGTERM via
//! [`install_sigterm_drain`]) flips the drain flag **while holding the
//! queue lock**, so it linearizes against admission: every job admitted
//! before the flip is answered by the worker pool, every cache hit
//! admitted before it is answered by its connection thread (drain waits
//! for both, so its report counts them), every request after it gets the
//! typed `draining` error, and drain always terminates.
//! (Checking the flag outside the lock used to leave a window where a
//! job could be pushed onto a queue whose workers had already observed
//! empty-and-draining and exited — `await_quiesce` then spun forever.)

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use clara_core::{
    difftest, engine, Clara, ClaraError, DifftestConfig, NicConfig, PlacementFailure,
    PlacementRequest, Precision, Prediction,
};
use clara_hal::{Backend as _, DeviceBackend};
use clara_obs as obs;
use nf_ir::Module;
use serde::Value;

use crate::protocol::{self, Envelope, ErrorKind, RegisterSpec, Request, WorkSpec};
use crate::tenant::{Registry, Tenant};
use crate::transport;

/// How the daemon is sized. Plain struct: every field has a sensible
/// default, override what you need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeOptions {
    /// Bind address; use port 0 to let the OS pick (tests do).
    pub addr: String,
    /// Also listen on a Unix-domain socket at this path, speaking
    /// length-prefixed frames (the `uds` transport). `None`: TCP only.
    pub uds_path: Option<String>,
    /// Worker threads executing queued jobs.
    pub workers: usize,
    /// Bounded queue capacity; beyond it requests get `overloaded`.
    /// Only queued work counts: prediction-cache hits never queue.
    pub queue_cap: usize,
    /// Most `predict` jobs coalesced into one batched engine stage;
    /// also the deficit-round-robin quantum.
    pub batch_max: usize,
    /// Per-request budget measured from enqueue. Also installed as the
    /// engine's stage deadline until [`ServerHandle::join`], so a wedged
    /// stage is cut short too.
    pub deadline: Option<Duration>,
    /// Built-in device backends held warm for per-request routing. The
    /// first entry serves requests that name no backend. Empty: the
    /// default device only.
    pub backends: Vec<String>,
    /// Inference precision for requests that do not name one.
    pub precision: Precision,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            addr: "127.0.0.1:4117".to_string(),
            uds_path: None,
            workers: 2,
            queue_cap: 64,
            batch_max: 8,
            deadline: None,
            backends: vec![clara_hal::DEFAULT_BACKEND.to_string()],
            precision: Precision::F64,
        }
    }
}

/// What the server did over its lifetime (returned by
/// [`ServerHandle::join`]). Summed per-tenant counters (wire `stats`)
/// reconcile exactly with these totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeSummary {
    /// Work requests answered successfully.
    pub served: u64,
    /// Requests rejected by shared-queue admission control.
    pub overloaded: u64,
    /// Requests rejected by their tenant's own admission quota.
    pub quota_exceeded: u64,
    /// Requests that failed for any other reason.
    pub errors: u64,
}

enum JobKind {
    Predict(WorkSpec),
    Analyze(WorkSpec),
    Difftest { seeds: u64, start: u64, pkts: usize },
    Place(PlacementRequest),
}

struct Job {
    id: Option<u64>,
    tenant: Arc<Tenant>,
    kind: JobKind,
    enqueued: Instant,
    resp: mpsc::Sender<String>,
}

/// One tenant's sub-queue plus its deficit-round-robin credit.
struct TenantQueue {
    /// Latest registration of the owning tenant (refreshed at enqueue).
    tenant: Arc<Tenant>,
    jobs: VecDeque<Job>,
    deficit: u64,
}

/// Everything admission and dispatch agree on, under one lock: the
/// per-tenant sub-queues, the DRR ring of tenants with pending jobs,
/// the shared-capacity total, and the drain flag (in here precisely so
/// drain linearizes against admission).
struct QueueState {
    queues: BTreeMap<String, TenantQueue>,
    ring: VecDeque<String>,
    total: usize,
    draining: bool,
}

/// A served prediction's identity: the materialized work spec plus the
/// route (device, precision) that executed it. The trained model is
/// fixed for the server's lifetime, so this key fully determines the
/// prediction — and it hashes in nanoseconds, unlike the engine's
/// serialize-and-FNV content fingerprints.
type PredictKey = (String, usize, u64, bool, &'static str, Precision);

/// Wire op names, in [`op_index`] order.
const OPS: [&str; 7] = [
    "predict", "analyze", "difftest", "place", "register", "stats", "drain",
];

fn op_index(req: &Request) -> usize {
    match req {
        Request::Predict(_) => 0,
        Request::Analyze(_) => 1,
        Request::Difftest { .. } => 2,
        Request::Place(_) => 3,
        Request::Register(_) => 4,
        Request::Stats => 5,
        Request::Drain => 6,
    }
}

/// The obs handles every request or predict batch updates, resolved once
/// at start: a registry lookup takes a process-global lock (and, for the
/// per-op histograms, a `format!`), which a cache hit would otherwise pay
/// several times over.
struct Meters {
    /// `serve.op.<op>.latency_us`, indexed like [`OPS`].
    op_latency: [obs::Histogram; 7],
    batch_size: obs::Histogram,
    queue_depth: obs::Gauge,
    predict_ops: obs::Counter,
    predict_hits: obs::Counter,
    predict_misses: obs::Counter,
    draining_rejected: obs::Counter,
    overloaded: obs::Counter,
    quota_exceeded: obs::Counter,
}

impl Meters {
    fn resolve() -> Meters {
        Meters {
            op_latency: OPS.map(|op| obs::volatile_histogram(&format!("serve.op.{op}.latency_us"))),
            batch_size: obs::volatile_histogram("serve.batch.size"),
            queue_depth: obs::volatile_gauge("serve.queue.depth"),
            predict_ops: obs::counter("serve.ops.predict"),
            predict_hits: obs::counter("serve.cache.predict_hits"),
            predict_misses: obs::counter("serve.cache.predict_misses"),
            draining_rejected: obs::volatile_counter("serve.draining.rejected"),
            overloaded: obs::volatile_counter("serve.overloaded"),
            quota_exceeded: obs::volatile_counter("serve.quota_exceeded"),
        }
    }
}

/// Most entries the completed-prediction memo holds. Inserts past the
/// cap are dropped (never evicted), so a burst of distinctly-seeded
/// one-off requests cannot wash out the steady-state working set.
const PREDICT_CACHE_CAP: usize = 8192;

struct Shared {
    clara: Arc<Clara>,
    /// Predictor-weights fingerprint, hashed once at startup: computing
    /// it per batch costs milliseconds, which would dominate every warm
    /// sub-millisecond predict this daemon exists to serve.
    predictor_fp: u64,
    /// Completed predictions by spec + route, probed by the connection
    /// thread before anything is queued: a hit is answered there and
    /// never reaches a worker. The engine's own caches make the second
    /// identical request recompute nothing; this layer makes it
    /// *re-hash* nothing (the engine keys its caches by content
    /// fingerprints that serialize the module and trace on every
    /// lookup, ~100us per request).
    predict_cache: RwLock<HashMap<PredictKey, Prediction>>,
    corpus: BTreeMap<String, Module>,
    /// Warm device backends, default (request names none) first.
    backends: Vec<&'static DeviceBackend>,
    registry: Registry,
    /// NIC model used for colocation-interference predictions.
    nic: NicConfig,
    queue: Mutex<QueueState>,
    cv: Condvar,
    stopped: AtomicBool,
    in_flight: AtomicUsize,
    served: AtomicU64,
    overloaded: AtomicU64,
    quota_exceeded: AtomicU64,
    errors: AtomicU64,
    meters: Meters,
    opts: ServeOptions,
    root: obs::SpanHandle,
}

impl Shared {
    /// Resolves the backend a request routes to: the named warm device,
    /// or the default (first) one when the request names none. `None`
    /// means the name is not loaded. (Tenant defaults are already
    /// materialized into the spec at dispatch.)
    fn backend_of(&self, w: &WorkSpec) -> Option<&'static DeviceBackend> {
        match &w.backend {
            None => Some(self.backends[0]),
            Some(name) => self.backends.iter().copied().find(|b| b.name() == name),
        }
    }

    /// The backend name a spec effectively runs under (for coalescing).
    fn effective_backend<'a>(&self, w: &'a WorkSpec) -> &'a str {
        w.backend
            .as_deref()
            .unwrap_or_else(|| self.backends[0].name())
    }

    /// The precision a spec effectively runs at: its own request field,
    /// or the server's configured default.
    fn effective_precision(&self, w: &WorkSpec) -> Precision {
        w.precision.unwrap_or(self.opts.precision)
    }

    /// The prediction-cache key of a validated predict spec.
    fn predict_key(&self, w: &WorkSpec) -> PredictKey {
        let backend = self.backend_of(w).expect("validated at admission");
        (
            w.nf.clone(),
            w.packets,
            w.seed,
            w.small_flows,
            backend.name(),
            self.effective_precision(w),
        )
    }

    fn queue_gauge(&self, depth: usize) {
        self.meters.queue_depth.set(depth as f64);
    }

    /// Counts one failed request against the global total and exactly
    /// one tenant (the invariant that keeps per-tenant counters summing
    /// to [`ServeSummary`]).
    fn count_error(&self, tenant: &Tenant) {
        self.errors.fetch_add(1, Ordering::SeqCst);
        tenant.stats.errors.fetch_add(1, Ordering::SeqCst);
    }

    /// The tenant to charge a failure to when the request's own tenant
    /// may not exist: the named one if registered, else the default.
    fn charge_tenant(&self, name: Option<&str>) -> Arc<Tenant> {
        self.registry
            .resolve(name)
            .unwrap_or_else(|| self.registry.default_tenant())
    }

    /// Stops admission — under the queue lock, so it linearizes against
    /// [`enqueue_and_wait`] — and wakes everyone who might be waiting.
    fn begin_drain(&self) {
        self.queue.lock().expect("queue poisoned").draining = true;
        self.cv.notify_all();
    }

    /// Blocks until the queue is empty and nothing is in flight.
    fn await_quiesce(&self) {
        loop {
            let empty = self.queue.lock().expect("queue poisoned").total == 0;
            if empty && self.in_flight.load(Ordering::SeqCst) == 0 {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

/// The `clara serve` daemon.
pub struct Server;

/// A running server. Dropping the handle does not stop it; drain it
/// (wire op, [`ServerHandle::drain`], or SIGTERM) and [`ServerHandle::join`].
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
    uds_path: Option<String>,
    /// Root span kept open for the server's lifetime so every request's
    /// spans parent under it; closed in [`ServerHandle::join`] right
    /// before the final report capture.
    root_guard: Option<obs::SpanGuard>,
}

impl Server {
    /// Binds, installs `opts.deadline` (`None` included) as the engine's
    /// stage deadline, spawns the worker pool and the acceptor, and
    /// returns immediately.
    ///
    /// # Errors
    ///
    /// [`ClaraError::Serve`] when the TCP address or UDS path cannot be
    /// bound (CLI exit code 7); [`ClaraError::Manifest`] when
    /// `opts.backends` names a device that is not built in (exit code 8).
    pub fn start(opts: ServeOptions, clara: Arc<Clara>) -> Result<ServerHandle, ClaraError> {
        let backend_names = if opts.backends.is_empty() {
            vec![clara_hal::DEFAULT_BACKEND.to_string()]
        } else {
            opts.backends.clone()
        };
        let backends = difftest::resolve_backends(&backend_names)?;
        let listener = TcpListener::bind(&opts.addr).map_err(|e| ClaraError::Serve {
            detail: format!("cannot bind {}: {e}", opts.addr),
        })?;
        let addr = listener.local_addr().map_err(|e| ClaraError::Serve {
            detail: format!("cannot read bound address: {e}"),
        })?;
        listener
            .set_nonblocking(true)
            .map_err(|e| ClaraError::Serve {
                detail: format!("cannot set nonblocking accept: {e}"),
            })?;
        #[cfg(unix)]
        let uds_listener = match &opts.uds_path {
            Some(path) => Some(bind_uds(path)?),
            None => None,
        };
        #[cfg(not(unix))]
        if let Some(path) = &opts.uds_path {
            return Err(ClaraError::Serve {
                detail: format!("unix-domain sockets are not available on this platform ({path})"),
            });
        }

        engine::set_stage_deadline(opts.deadline);

        obs::enable();
        let root_guard = obs::span("clara-serve");
        let root = root_guard.handle();

        let corpus = click_model::extended_corpus()
            .into_iter()
            .map(|e| (e.name().to_string(), e.module))
            .collect();

        let workers = opts.workers.max(1);
        let predictor_fp = clara.predictor_fingerprint();
        let shared = Arc::new(Shared {
            clara,
            predictor_fp,
            predict_cache: RwLock::new(HashMap::new()),
            corpus,
            backends,
            registry: Registry::new(workers, opts.queue_cap),
            nic: NicConfig::default(),
            queue: Mutex::new(QueueState {
                queues: BTreeMap::new(),
                ring: VecDeque::new(),
                total: 0,
                draining: false,
            }),
            cv: Condvar::new(),
            stopped: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            served: AtomicU64::new(0),
            overloaded: AtomicU64::new(0),
            quota_exceeded: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            meters: Meters::resolve(),
            opts: opts.clone(),
            root,
        });

        let workers = (0..workers)
            .map(|i| {
                let s = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("clara-serve-worker-{i}"))
                    .spawn(move || worker_loop(&s, i))
                    .expect("spawn worker thread")
            })
            .collect();

        let listeners = Listeners {
            tcp: listener,
            #[cfg(unix)]
            uds: uds_listener,
        };
        let acceptor = {
            let s = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("clara-serve-accept".to_string())
                .spawn(move || accept_loop(&listeners, &s))
                .expect("spawn acceptor thread")
        };

        Ok(ServerHandle {
            addr,
            shared,
            acceptor,
            workers,
            uds_path: opts.uds_path.clone(),
            root_guard: Some(root_guard),
        })
    }
}

#[cfg(unix)]
fn bind_uds(path: &str) -> Result<UnixListener, ClaraError> {
    // A previous daemon's socket file would make bind fail; it is dead
    // by definition (we are about to own the path), so clear it.
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path).map_err(|e| ClaraError::Serve {
        detail: format!("cannot bind unix socket {path}: {e}"),
    })?;
    listener
        .set_nonblocking(true)
        .map_err(|e| ClaraError::Serve {
            detail: format!("cannot set nonblocking UDS accept: {e}"),
        })?;
    Ok(listener)
}

impl ServerHandle {
    /// The actual bound TCP address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The Unix-socket path, when the `uds` transport is enabled.
    pub fn uds_path(&self) -> Option<&str> {
        self.uds_path.as_deref()
    }

    /// Programmatic drain: stop admission and (once quiesced) the
    /// acceptor. Equivalent to the wire `drain` op minus the report
    /// response.
    pub fn drain(&self) {
        self.shared.begin_drain();
        self.shared.await_quiesce();
        self.shared.stopped.store(true, Ordering::SeqCst);
    }

    /// Waits for the acceptor and workers to exit (i.e. for a drain to
    /// complete), clears the engine stage deadline the server installed,
    /// closes the root span, writes a final run report when a
    /// `CLARA_REPORT` sink is configured, and returns the lifetime
    /// summary.
    pub fn join(mut self) -> ServeSummary {
        self.acceptor.join().expect("acceptor thread panicked");
        for w in self.workers.drain(..) {
            w.join().expect("worker thread panicked");
        }
        engine::set_stage_deadline(None);
        if let Some(path) = &self.uds_path {
            let _ = std::fs::remove_file(path);
        }
        drop(self.root_guard.take());
        if let Some(raw) = obs::sink_from_env() {
            let path = obs::resolve_sink(&raw, "clara_serve.json");
            if let Err(e) = obs::RunReport::capture().write(&path) {
                eprintln!("warning: could not write report to {}: {e}", path.display());
            }
        }
        ServeSummary {
            served: self.shared.served.load(Ordering::SeqCst),
            overloaded: self.shared.overloaded.load(Ordering::SeqCst),
            quota_exceeded: self.shared.quota_exceeded.load(Ordering::SeqCst),
            errors: self.shared.errors.load(Ordering::SeqCst),
        }
    }
}

// ---- acceptor ----------------------------------------------------------

/// The daemon's non-blocking listeners: TCP lines always, UDS frames
/// when [`ServeOptions::uds_path`] is set.
struct Listeners {
    tcp: TcpListener,
    #[cfg(unix)]
    uds: Option<UnixListener>,
}

/// The one acceptor. std cannot wait on two listeners and the SIGTERM
/// flag at once, so it polls: each pass takes at most one connection
/// from each listener, sleeps 10 ms only when neither yielded one, and
/// checks SIGTERM and the stop flag once.
fn accept_loop(l: &Listeners, s: &Arc<Shared>) {
    loop {
        let mut idle = true;
        if let Ok((stream, _)) = l.tcp.accept() {
            idle = false;
            let s = Arc::clone(s);
            let thread = std::thread::Builder::new().name("clara-serve-conn".to_string());
            spawn_detached(thread, move || handle_conn(stream, &s));
        }
        #[cfg(unix)]
        if let Some(Ok((stream, _))) = l.uds.as_ref().map(UnixListener::accept) {
            idle = false;
            let s = Arc::clone(s);
            let thread = std::thread::Builder::new().name("clara-serve-conn-uds".to_string());
            spawn_detached(thread, move || handle_conn_framed(stream, &s));
        }
        if idle {
            std::thread::sleep(Duration::from_millis(10));
        }
        if term::signaled() && !s.stopped.load(Ordering::SeqCst) {
            s.begin_drain();
            s.await_quiesce();
            s.stopped.store(true, Ordering::SeqCst);
        }
        if s.stopped.load(Ordering::SeqCst) {
            return;
        }
    }
}

/// Runs one connection on a detached thread: it parks on blocking reads
/// for as long as the client keeps the connection open, so joining it
/// would hand shutdown latency to the slowest client. `spawn` fails
/// only when the process is at its thread or pid limit; it then drops
/// `conn`, and with it the stream, which closes that one connection
/// while the acceptor keeps accepting.
fn spawn_detached(thread: std::thread::Builder, conn: impl FnOnce() + Send + 'static) {
    let _ = thread.spawn(conn);
}

// ---- connection threads ------------------------------------------------

/// How long one write of a `drain` reply may block before the daemon
/// stops anyway: a slow reader still gets the whole report, while a
/// client that never reads cannot hold shutdown forever.
const DRAIN_WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// One connection's framing: how a request is read off it and a reply
/// written back. Everything else about a connection is
/// [`serve_conn`]'s, shared by both transports.
trait Codec {
    /// Reads one request into `buf` (reused for the whole connection),
    /// borrowed from it. `Ok(None)` is a clean close; `InvalidData` is a
    /// request over [`transport::MAX_REQUEST_LEN`] or not UTF-8.
    fn read<'a>(&mut self, buf: &'a mut Vec<u8>) -> io::Result<Option<&'a str>>;

    /// Writes one reply as a single write.
    fn write(&mut self, reply: String) -> io::Result<()>;

    /// Bounds how long a write may block.
    fn set_write_timeout(&self, timeout: Duration);
}

/// JSON lines over TCP.
struct Lines {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Codec for Lines {
    fn read<'a>(&mut self, buf: &'a mut Vec<u8>) -> io::Result<Option<&'a str>> {
        transport::read_request_line(&mut self.reader, buf)
    }

    fn write(&mut self, mut reply: String) -> io::Result<()> {
        reply.push('\n');
        self.writer.write_all(reply.as_bytes())?;
        self.writer.flush()
    }

    fn set_write_timeout(&self, timeout: Duration) {
        let _ = self.writer.set_write_timeout(Some(timeout));
    }
}

/// Length-prefixed frames over a Unix-domain socket.
#[cfg(unix)]
struct Frames {
    reader: UnixStream,
    writer: UnixStream,
    /// Lives for the whole connection: no allocation per frame written.
    write_buf: Vec<u8>,
}

#[cfg(unix)]
impl Codec for Frames {
    fn read<'a>(&mut self, buf: &'a mut Vec<u8>) -> io::Result<Option<&'a str>> {
        transport::read_request_frame(&mut self.reader, buf)
    }

    fn write(&mut self, reply: String) -> io::Result<()> {
        transport::write_frame(&mut self.writer, &mut self.write_buf, &reply)
    }

    fn set_write_timeout(&self, timeout: Duration) {
        let _ = self.writer.set_write_timeout(Some(timeout));
    }
}

fn handle_conn(stream: TcpStream, s: &Arc<Shared>) {
    // One write per response and no Nagle buffering: a request/response
    // protocol of small frames would otherwise serialize on ~40ms
    // delayed-ACK stalls.
    let _ = stream.set_nodelay(true);
    let Ok(writer) = stream.try_clone() else {
        return;
    };
    let reader = BufReader::new(stream);
    serve_conn(Lines { reader, writer }, s);
}

#[cfg(unix)]
fn handle_conn_framed(stream: UnixStream, s: &Arc<Shared>) {
    let Ok(writer) = stream.try_clone() else {
        return;
    };
    serve_conn(
        Frames {
            reader: stream,
            writer,
            write_buf: Vec::with_capacity(4096),
        },
        s,
    );
}

/// Answers one connection's requests in order until the client closes,
/// a write fails, the request cannot be read, or the daemon stops.
fn serve_conn(mut codec: impl Codec, s: &Arc<Shared>) {
    // Lives for the whole connection: no allocation per request read.
    let mut read_buf = Vec::with_capacity(4096);
    loop {
        let (reply, is_drain, close) = match codec.read(&mut read_buf) {
            Ok(Some(req)) if req.trim().is_empty() => continue,
            Ok(Some(req)) => {
                let (reply, is_drain) = handle_line(req, s);
                (reply, is_drain, false)
            }
            // Over the size cap or not UTF-8: answered, then closed, since
            // the rest of the stream can no longer be framed. Like a
            // parse failure it has no attributable tenant.
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                s.count_error(&s.registry.default_tenant());
                let reply = protocol::error_response(None, ErrorKind::BadRequest, &e.to_string());
                (reply, false, true)
            }
            Ok(None) | Err(_) => return,
        };
        if is_drain {
            codec.set_write_timeout(DRAIN_WRITE_TIMEOUT);
        }
        let wrote = codec.write(reply);
        if is_drain {
            // Stop only once the report is written (or cannot be): the
            // acceptors exit on this flag, and the process with them.
            s.stopped.store(true, Ordering::SeqCst);
        }
        if wrote.is_err() || close || s.stopped.load(Ordering::SeqCst) {
            return;
        }
    }
}

/// Answers one request line; the flag is set for a `drain`, whose
/// connection stops the daemon once the reply is written.
fn handle_line(line: &str, s: &Arc<Shared>) -> (String, bool) {
    let started = Instant::now();
    let env = match protocol::parse_request(line) {
        Ok(env) => env,
        Err(detail) => {
            // Parse failures have no attributable tenant; they count
            // against `default` so totals still reconcile.
            s.count_error(&s.registry.default_tenant());
            return (
                protocol::error_response(None, ErrorKind::BadRequest, &detail),
                false,
            );
        }
    };
    let op = op_index(&env.req);
    let response = dispatch(env, s);
    s.meters.op_latency[op].observe(started.elapsed().as_micros() as f64);
    (response, OPS[op] == "drain")
}

fn dispatch(env: Envelope, s: &Arc<Shared>) -> String {
    let Envelope { id, tenant, req } = env;
    match req {
        Request::Stats => stats_inline(id, s),
        Request::Drain => drain_inline(id, s),
        Request::Register(spec) => register_inline(id, tenant.as_deref(), spec, s),
        req => match s.registry.resolve(tenant.as_deref()) {
            Some(t) => dispatch_work(id, t, req, s),
            None => {
                s.count_error(&s.charge_tenant(None));
                protocol::error_response(
                    id,
                    ErrorKind::UnknownTenant,
                    &format!(
                        "`{}` is not a registered tenant (send op:\"register\" first)",
                        tenant.as_deref().unwrap_or("?")
                    ),
                )
            }
        },
    }
}

/// Checks an NF name against the tenant's registered set (empty set:
/// whole corpus admitted).
fn tenant_admits(t: &Tenant, nf: &str) -> bool {
    t.nfs.is_empty() || t.nfs.iter().any(|n| n == nf)
}

fn dispatch_work(id: Option<u64>, t: Arc<Tenant>, req: Request, s: &Arc<Shared>) -> String {
    // Materialize the tenant's registered defaults into the spec before
    // validation so coalescing and routing see one resolved value.
    let req = match req {
        Request::Predict(mut w) => {
            w.backend = w.backend.or_else(|| t.backend.clone());
            w.precision = w.precision.or(t.precision);
            Request::Predict(w)
        }
        Request::Analyze(mut w) => {
            w.backend = w.backend.or_else(|| t.backend.clone());
            w.precision = w.precision.or(t.precision);
            Request::Analyze(w)
        }
        Request::Place(mut r) => {
            r.backend = r.backend.or_else(|| t.backend.clone());
            r.precision = r.precision.or(t.precision);
            Request::Place(r)
        }
        other => other,
    };
    match req {
        Request::Predict(w) | Request::Analyze(w) if !s.corpus.contains_key(&w.nf) => {
            s.count_error(&t);
            protocol::error_response(
                id,
                ErrorKind::UnknownNf,
                &format!("`{}` is not in the corpus (see `clara list`)", w.nf),
            )
        }
        Request::Predict(w) | Request::Analyze(w) if !tenant_admits(&t, &w.nf) => {
            s.count_error(&t);
            protocol::error_response(
                id,
                ErrorKind::UnknownNf,
                &format!(
                    "`{}` is not in tenant `{}`'s registered NF set",
                    w.nf, t.name
                ),
            )
        }
        Request::Predict(w) | Request::Analyze(w) if s.backend_of(&w).is_none() => {
            s.count_error(&t);
            let loaded: Vec<&str> = s.backends.iter().map(|b| b.name()).collect();
            protocol::error_response(
                id,
                ErrorKind::UnknownBackend,
                &format!(
                    "`{}` is not a warm backend (loaded: {})",
                    w.backend.as_deref().unwrap_or("?"),
                    loaded.join(", ")
                ),
            )
        }
        Request::Place(r) if r.nfs.iter().any(|nf| !s.corpus.contains_key(nf)) => {
            s.count_error(&t);
            let unknown = r
                .nfs
                .iter()
                .find(|nf| !s.corpus.contains_key(*nf))
                .expect("guard found one");
            protocol::error_response(
                id,
                ErrorKind::UnknownNf,
                &format!("`{unknown}` is not in the corpus (see `clara list`)"),
            )
        }
        Request::Place(r) if r.nfs.iter().any(|nf| !tenant_admits(&t, nf)) => {
            s.count_error(&t);
            let outside = r
                .nfs
                .iter()
                .find(|nf| !tenant_admits(&t, nf))
                .expect("guard found one");
            protocol::error_response(
                id,
                ErrorKind::UnknownNf,
                &format!(
                    "`{outside}` is not in tenant `{}`'s registered NF set",
                    t.name
                ),
            )
        }
        Request::Place(r)
            if r.backend
                .as_deref()
                .is_some_and(|n| !s.backends.iter().any(|b| b.name() == n)) =>
        {
            s.count_error(&t);
            let loaded: Vec<&str> = s.backends.iter().map(|b| b.name()).collect();
            protocol::error_response(
                id,
                ErrorKind::UnknownBackend,
                &format!(
                    "`{}` is not a warm backend (loaded: {})",
                    r.backend.as_deref().unwrap_or("?"),
                    loaded.join(", ")
                ),
            )
        }
        Request::Predict(w) => {
            let key = s.predict_key(&w);
            let hit = s
                .predict_cache
                .read()
                .expect("predict cache lock")
                .get(&key)
                .cloned();
            match hit {
                Some(p) => answer_hit(id, &t, &key, &p, s),
                None => enqueue_and_wait(id, t, JobKind::Predict(w), s),
            }
        }
        Request::Analyze(w) => enqueue_and_wait(id, t, JobKind::Analyze(w), s),
        Request::Difftest { seeds, start, pkts } => {
            enqueue_and_wait(id, t, JobKind::Difftest { seeds, start, pkts }, s)
        }
        Request::Place(r) => enqueue_and_wait(id, t, JobKind::Place(r), s),
        Request::Register(_) | Request::Stats | Request::Drain => {
            unreachable!("inline ops handled before dispatch_work")
        }
    }
}

/// The refusal every work request gets once drain has begun. A
/// lifecycle refusal, not a failure: like `overloaded` and
/// `quota_exceeded` it stays out of `errors`, which tallies client
/// mistakes and internal faults only.
fn refuse_draining(id: Option<u64>, s: &Shared) -> String {
    s.meters.draining_rejected.incr();
    protocol::error_response(
        id,
        ErrorKind::Draining,
        "server is draining and no longer admits work",
    )
}

/// Answers a prediction-cache hit on the connection thread. It takes no
/// queue slot and never wakes a worker; the queue lock is taken only to
/// check the drain flag and count the hit in flight, so drain stays
/// linearized: a hit admitted before the flip is answered and counted in
/// the drain report's `served`, every hit after it gets `draining`.
fn answer_hit(id: Option<u64>, t: &Tenant, key: &PredictKey, p: &Prediction, s: &Shared) -> String {
    {
        let qs = s.queue.lock().expect("queue poisoned");
        if qs.draining {
            drop(qs);
            return refuse_draining(id, s);
        }
        s.in_flight.fetch_add(1, Ordering::SeqCst);
    }
    s.meters.predict_ops.incr();
    s.meters.predict_hits.incr();
    let (nf, _, _, _, backend, precision) = key;
    let response = protocol::predict_response(id, nf, backend, *precision, p);
    s.served.fetch_add(1, Ordering::SeqCst);
    t.stats.served.fetch_add(1, Ordering::SeqCst);
    s.in_flight.fetch_sub(1, Ordering::SeqCst);
    response
}

fn enqueue_and_wait(
    id: Option<u64>,
    tenant: Arc<Tenant>,
    kind: JobKind,
    s: &Arc<Shared>,
) -> String {
    let (tx, rx) = mpsc::channel();
    {
        let mut qs = s.queue.lock().expect("queue poisoned");
        // Admission is one linearized decision under the lock: the
        // drain flag, the shared capacity, and the tenant quota are all
        // judged against the same queue state. In particular a job
        // admitted here is *guaranteed* a live worker pool — workers
        // only exit after observing `draining && total == 0` under this
        // same lock.
        if qs.draining {
            drop(qs);
            return refuse_draining(id, s);
        }
        if qs.total >= s.opts.queue_cap {
            drop(qs);
            s.overloaded.fetch_add(1, Ordering::SeqCst);
            tenant.stats.overloaded.fetch_add(1, Ordering::SeqCst);
            s.meters.overloaded.incr();
            return protocol::error_response(
                id,
                ErrorKind::Overloaded,
                &format!("queue at capacity ({})", s.opts.queue_cap),
            );
        }
        let tq = qs
            .queues
            .entry(tenant.name.clone())
            .or_insert_with(|| TenantQueue {
                tenant: Arc::clone(&tenant),
                jobs: VecDeque::new(),
                deficit: 0,
            });
        if tq.jobs.len() >= tenant.quota {
            drop(qs);
            s.quota_exceeded.fetch_add(1, Ordering::SeqCst);
            tenant.stats.quota_exceeded.fetch_add(1, Ordering::SeqCst);
            s.meters.quota_exceeded.incr();
            return protocol::error_response(
                id,
                ErrorKind::QuotaExceeded,
                &format!(
                    "tenant `{}` is at its quota ({})",
                    tenant.name, tenant.quota
                ),
            );
        }
        let was_empty = tq.jobs.is_empty();
        // Refresh the queue's view of the tenant so a re-registration's
        // new quota/defaults apply from the next admission on.
        tq.tenant = Arc::clone(&tenant);
        tq.jobs.push_back(Job {
            id,
            tenant: Arc::clone(&tenant),
            kind,
            enqueued: Instant::now(),
            resp: tx,
        });
        qs.total += 1;
        if was_empty {
            qs.ring.push_back(tenant.name.clone());
        }
        s.queue_gauge(qs.total);
    }
    // notify_all, not notify_one: with sharded workers the one woken
    // thread may serve a different shard and go straight back to sleep.
    s.cv.notify_all();
    // The worker pool always answers every admitted job — including
    // during drain, which finishes the queue before workers exit.
    rx.recv().unwrap_or_else(|_| {
        protocol::error_response(id, ErrorKind::Internal, "worker dropped the request")
    })
}

fn register_inline(
    id: Option<u64>,
    tenant_name: Option<&str>,
    spec: RegisterSpec,
    s: &Arc<Shared>,
) -> String {
    let Some(name) = tenant_name else {
        s.count_error(&s.charge_tenant(None));
        return protocol::error_response(
            id,
            ErrorKind::BadRequest,
            "op \"register\" requires a `tenant` name",
        );
    };
    // No registration during drain: the shard layout must stay frozen
    // while workers finish the queue.
    if s.queue.lock().expect("queue poisoned").draining {
        s.count_error(&s.charge_tenant(Some(name)));
        return protocol::error_response(
            id,
            ErrorKind::Draining,
            "server is draining and no longer accepts registrations",
        );
    }
    if let Some(unknown) = spec.nfs.iter().find(|nf| !s.corpus.contains_key(*nf)) {
        s.count_error(&s.charge_tenant(Some(name)));
        return protocol::error_response(
            id,
            ErrorKind::UnknownNf,
            &format!("`{unknown}` is not in the corpus (see `clara list`)"),
        );
    }
    if let Some(b) = &spec.backend {
        if !s.backends.iter().any(|w| w.name() == b.as_str()) {
            s.count_error(&s.charge_tenant(Some(name)));
            let loaded: Vec<&str> = s.backends.iter().map(|w| w.name()).collect();
            return protocol::error_response(
                id,
                ErrorKind::UnknownBackend,
                &format!(
                    "`{b}` is not a warm backend (loaded: {})",
                    loaded.join(", ")
                ),
            );
        }
    }
    let cap = s.opts.queue_cap as u64;
    let quota = spec.quota.unwrap_or(cap).clamp(1, cap) as usize;
    let profile = if spec.nfs.is_empty() {
        None
    } else {
        let modules: Vec<&Module> = spec
            .nfs
            .iter()
            .map(|nf| s.corpus.get(nf).expect("validated above"))
            .collect();
        clara_core::representative_profile(&modules, &s.nic)
    };
    let t = s
        .registry
        .register(name, spec.nfs, spec.backend, spec.precision, quota, profile);
    obs::counter("serve.ops.register").incr();
    publish_coloc_gauges(s);
    protocol::register_response(id, name, t.shard, t.quota, &t.nfs)
}

/// Publishes the pairwise interference predictions as deterministic
/// gauges (`serve.coloc.<a>~<b>.loss_pct` = what `a` loses when
/// colocated with `b`), so the drain report carries the fleet's
/// interference map. Pure model outputs — safe for byte-identical
/// deterministic reports.
fn publish_coloc_gauges(s: &Arc<Shared>) {
    for p in s.registry.coloc_pairs(&s.nic) {
        obs::gauge(&format!("serve.coloc.{}~{}.loss_pct", p.a, p.b)).set(p.interference.a_loss_pct);
        obs::gauge(&format!("serve.coloc.{}~{}.loss_pct", p.b, p.a)).set(p.interference.b_loss_pct);
    }
}

fn stats_inline(id: Option<u64>, s: &Arc<Shared>) -> String {
    let (depth, draining, queued_by_tenant) = {
        let qs = s.queue.lock().expect("queue poisoned");
        let queued: BTreeMap<String, u64> = qs
            .queues
            .iter()
            .map(|(name, tq)| (name.clone(), tq.jobs.len() as u64))
            .collect();
        (qs.total, qs.draining, queued)
    };
    let es = engine::EngineStats::snapshot();
    let tenants = s
        .registry
        .snapshot()
        .iter()
        .map(|t| {
            let (served, overloaded, quota_exceeded, errors) = t.stats.snapshot();
            Value::Map(vec![
                ("name".to_string(), Value::Str(t.name.clone())),
                ("shard".to_string(), Value::UInt(t.shard as u64)),
                ("quota".to_string(), Value::UInt(t.quota as u64)),
                (
                    "queued".to_string(),
                    Value::UInt(queued_by_tenant.get(&t.name).copied().unwrap_or(0)),
                ),
                ("served".to_string(), Value::UInt(served)),
                ("overloaded".to_string(), Value::UInt(overloaded)),
                ("quota_exceeded".to_string(), Value::UInt(quota_exceeded)),
                ("errors".to_string(), Value::UInt(errors)),
            ])
        })
        .collect();
    let coloc = s
        .registry
        .coloc_pairs(&s.nic)
        .iter()
        .map(|p| {
            Value::Map(vec![
                ("a".to_string(), Value::Str(p.a.clone())),
                ("b".to_string(), Value::Str(p.b.clone())),
                (
                    "a_loss_pct".to_string(),
                    Value::Float(p.interference.a_loss_pct),
                ),
                (
                    "b_loss_pct".to_string(),
                    Value::Float(p.interference.b_loss_pct),
                ),
            ])
        })
        .collect();
    let fields = vec![
        ("queue_depth".to_string(), Value::UInt(depth as u64)),
        (
            "in_flight".to_string(),
            Value::UInt(s.in_flight.load(Ordering::SeqCst) as u64),
        ),
        (
            "served".to_string(),
            Value::UInt(s.served.load(Ordering::SeqCst)),
        ),
        (
            "overloaded".to_string(),
            Value::UInt(s.overloaded.load(Ordering::SeqCst)),
        ),
        (
            "quota_exceeded".to_string(),
            Value::UInt(s.quota_exceeded.load(Ordering::SeqCst)),
        ),
        (
            "errors".to_string(),
            Value::UInt(s.errors.load(Ordering::SeqCst)),
        ),
        ("draining".to_string(), Value::Bool(draining)),
        (
            "workers".to_string(),
            Value::UInt(s.opts.workers.max(1) as u64),
        ),
        (
            "shards".to_string(),
            Value::UInt(s.registry.shard_count() as u64),
        ),
        (
            "queue_cap".to_string(),
            Value::UInt(s.opts.queue_cap as u64),
        ),
        (
            "batch_max".to_string(),
            Value::UInt(s.opts.batch_max as u64),
        ),
        (
            "precision".to_string(),
            Value::Str(s.opts.precision.as_str().to_string()),
        ),
        (
            "backends".to_string(),
            Value::Seq(
                s.backends
                    .iter()
                    .map(|b| Value::Str(b.name().to_string()))
                    .collect(),
            ),
        ),
        ("tenants".to_string(), Value::Seq(tenants)),
        ("coloc".to_string(), Value::Seq(coloc)),
        ("compile_hits".to_string(), Value::UInt(es.compile_hits)),
        ("compile_misses".to_string(), Value::UInt(es.compile_misses)),
        ("profile_hits".to_string(), Value::UInt(es.profile_hits)),
        ("profile_misses".to_string(), Value::UInt(es.profile_misses)),
        ("disk_hits".to_string(), Value::UInt(es.disk_hits)),
        (
            "disk_recomputes".to_string(),
            Value::UInt(es.disk_recomputes),
        ),
    ];
    protocol::stats_response(id, fields)
}

fn drain_inline(id: Option<u64>, s: &Arc<Shared>) -> String {
    s.begin_drain();
    s.await_quiesce();
    let served = s.served.load(Ordering::SeqCst);
    // Open spans snapshot with zero length, so capturing while the root
    // span is still open is well-defined; the deterministic rendering
    // strips timestamps anyway.
    let report_json = obs::RunReport::capture().to_json_deterministic();
    let report = serde_json::parse_value(&report_json).unwrap_or(Value::Str(report_json));
    // The connection thread sets `stopped` once this reply is written;
    // setting it here would let the daemon exit mid-write.
    protocol::drain_response(id, served, report)
}

// ---- workers -----------------------------------------------------------

/// One deficit-round-robin visit for the given worker: scan the ring
/// for the first tenant on this worker's shard, grant it a quantum of
/// credit, and take one coalescible batch from its sub-queue. `None`
/// when no ring tenant belongs to this shard.
fn pop_batch(
    qs: &mut MutexGuard<'_, QueueState>,
    worker: usize,
    s: &Arc<Shared>,
) -> Option<Vec<Job>> {
    // Live shard layout: grows as tenants register (capped at the
    // worker count), so a lone tenant is served by every worker while a
    // full fleet gets disjoint worker groups.
    let shard_count = s.registry.shard_count();
    let my_shard = worker % shard_count;
    let quantum = s.opts.batch_max.max(1) as u64;
    let pos = (0..qs.ring.len()).find(|&i| {
        let name = &qs.ring[i];
        qs.queues
            .get(name)
            .is_some_and(|tq| tq.tenant.shard % shard_count == my_shard)
    })?;
    let name = qs.ring.remove(pos).expect("index in bounds");
    let tq = qs.queues.get_mut(&name).expect("ring names a live queue");
    // Unused credit carries to the next visit (bounded to one extra
    // quantum) so a tenant whose batch was cut short by a backend
    // boundary is not perpetually shortchanged.
    tq.deficit = (tq.deficit + quantum).min(2 * quantum);
    let mut batch = vec![tq.jobs.pop_front().expect("ring tenants have jobs")];
    // Only predicts routed to the *same* device at the *same* precision
    // coalesce — one batch, one backend, one inference path, one engine
    // stage. Coalescing never crosses tenant sub-queues.
    if let JobKind::Predict(w0) = &batch[0].kind {
        let backend = s.effective_backend(w0).to_string();
        let precision = s.effective_precision(w0);
        while (batch.len() as u64) < tq.deficit && batch.len() < s.opts.batch_max.max(1) {
            match tq.jobs.front() {
                Some(j)
                    if matches!(
                        &j.kind,
                        JobKind::Predict(w) if s.effective_backend(w) == backend
                            && s.effective_precision(w) == precision
                    ) =>
                {
                    batch.push(tq.jobs.pop_front().expect("front exists"));
                }
                _ => break,
            }
        }
    }
    tq.deficit = tq.deficit.saturating_sub(batch.len() as u64);
    if tq.jobs.is_empty() {
        tq.deficit = 0;
    } else {
        qs.ring.push_back(name);
    }
    qs.total -= batch.len();
    Some(batch)
}

fn worker_loop(s: &Arc<Shared>, worker: usize) {
    loop {
        let batch = {
            let mut qs = s.queue.lock().expect("queue poisoned");
            let batch = loop {
                // The drain flag lives under this lock, so a worker can
                // only exit when no admitted job remains anywhere — the
                // admission path holding the same lock makes
                // "admitted but never served" impossible.
                if qs.draining && qs.total == 0 {
                    return;
                }
                if let Some(batch) = pop_batch(&mut qs, worker, s) {
                    break batch;
                }
                qs =
                    s.cv.wait_timeout(qs, Duration::from_millis(50))
                        .expect("queue poisoned")
                        .0;
            };
            s.in_flight.fetch_add(batch.len(), Ordering::SeqCst);
            s.queue_gauge(qs.total);
            batch
        };
        run_batch(batch, s);
        s.cv.notify_all();
    }
}

/// Splits expired jobs out, answers them with `deadline`, and returns
/// the still-live remainder.
fn reap_expired(batch: Vec<Job>, s: &Arc<Shared>) -> Vec<Job> {
    let Some(deadline) = s.opts.deadline else {
        return batch;
    };
    let mut live = Vec::with_capacity(batch.len());
    for job in batch {
        if job.enqueued.elapsed() > deadline {
            s.count_error(&job.tenant);
            let _ = job.resp.send(protocol::error_response(
                job.id,
                ErrorKind::Deadline,
                &format!("request exceeded its {deadline:?} budget while queued"),
            ));
            s.in_flight.fetch_sub(1, Ordering::SeqCst);
        } else {
            live.push(job);
        }
    }
    live
}

fn run_batch(batch: Vec<Job>, s: &Arc<Shared>) {
    let batch = reap_expired(batch, s);
    if batch.is_empty() {
        return;
    }
    let n = batch.len();
    s.meters.batch_size.observe(n as f64);
    if n > 1 || matches!(batch[0].kind, JobKind::Predict(_)) {
        run_predict_batch(batch, s);
    } else {
        let job = batch.into_iter().next().expect("checked non-empty");
        run_single(job, s);
        s.in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Runs a batch of predicts, every one a prediction-cache miss (hits are
/// answered on the connection thread and never queued), and caches what
/// it computes.
fn run_predict_batch(batch: Vec<Job>, s: &Arc<Shared>) {
    let n = batch.len();
    s.meters.predict_ops.add(n as u64);
    s.meters.predict_misses.add(n as u64);
    let specs: Vec<&WorkSpec> = batch
        .iter()
        .map(|j| match &j.kind {
            JobKind::Predict(w) => w,
            _ => unreachable!("predict batches contain only predict jobs"),
        })
        .collect();
    // Coalescing admits only same-backend, same-precision predicts, so
    // the whole batch routes to the first spec's device and path.
    let backend = s.backend_of(specs[0]).expect("validated at admission");
    let precision = s.effective_precision(specs[0]);
    let traces: Vec<_> = specs.iter().map(|w| w.trace()).collect();
    let items: Vec<(&Module, &trafgen::Trace)> = specs
        .iter()
        .zip(&traces)
        .map(|(w, t)| (s.corpus.get(&w.nf).expect("validated at admission"), t))
        .collect();
    let results = {
        let span = obs::span_under(s.root, "serve-predict-batch");
        let _ctx = obs::attach(span.handle());
        s.clara
            .predict_batch_on_prec_cached(&items, backend, precision, s.predictor_fp)
    };
    {
        let mut cache = s.predict_cache.write().expect("predict cache lock");
        for (w, result) in specs.iter().zip(&results) {
            if let Ok(p) = result {
                if cache.len() < PREDICT_CACHE_CAP {
                    cache.insert(s.predict_key(w), p.clone());
                }
            }
        }
    }
    for ((job, spec), result) in batch.iter().zip(&specs).zip(results) {
        let response = match result {
            Ok(p) => {
                s.served.fetch_add(1, Ordering::SeqCst);
                job.tenant.stats.served.fetch_add(1, Ordering::SeqCst);
                protocol::predict_response(job.id, &spec.nf, backend.name(), precision, &p)
            }
            Err(e) => {
                s.count_error(&job.tenant);
                protocol::error_response(job.id, ErrorKind::Internal, &e.to_string())
            }
        };
        let _ = job.resp.send(response);
    }
    s.in_flight.fetch_sub(n, Ordering::SeqCst);
}

fn run_single(job: Job, s: &Arc<Shared>) {
    let response = match &job.kind {
        JobKind::Predict(_) => unreachable!("predict jobs go through the batch path"),
        JobKind::Analyze(w) => {
            obs::counter("serve.ops.analyze").incr();
            let module = s.corpus.get(&w.nf).expect("validated at admission");
            let backend = s.backend_of(w).expect("validated at admission");
            let precision = s.effective_precision(w);
            let trace = w.trace();
            let outcome = {
                let span = obs::span_under(s.root, "serve-analyze");
                let _ctx = obs::attach(span.handle());
                s.clara.analyze_on_prec(module, &trace, backend, precision)
            };
            match outcome {
                Ok(ins) => {
                    s.served.fetch_add(1, Ordering::SeqCst);
                    job.tenant.stats.served.fetch_add(1, Ordering::SeqCst);
                    protocol::analyze_response(
                        job.id,
                        &w.nf,
                        backend.name(),
                        precision,
                        module,
                        &ins,
                    )
                }
                Err(e) => {
                    s.count_error(&job.tenant);
                    protocol::error_response(job.id, ErrorKind::Internal, &e.to_string())
                }
            }
        }
        JobKind::Place(r) => {
            obs::counter("serve.ops.place").incr();
            let backend = match &r.backend {
                None => s.backends[0],
                Some(name) => s
                    .backends
                    .iter()
                    .copied()
                    .find(|b| b.name() == name.as_str())
                    .expect("validated at admission"),
            };
            let precision = r.precision.unwrap_or(s.opts.precision);
            let outcome = {
                let span = obs::span_under(s.root, "serve-place");
                let _ctx = obs::attach(span.handle());
                s.clara.place_on_prec(r, backend, precision)
            };
            match outcome {
                Ok(plan) => {
                    s.served.fetch_add(1, Ordering::SeqCst);
                    job.tenant.stats.served.fetch_add(1, Ordering::SeqCst);
                    protocol::place_response(job.id, &plan)
                }
                Err(e) => {
                    s.count_error(&job.tenant);
                    let kind = match &e {
                        ClaraError::Placement {
                            kind: PlacementFailure::Infeasible,
                            ..
                        } => ErrorKind::Infeasible,
                        ClaraError::Placement {
                            kind: PlacementFailure::UnknownNf,
                            ..
                        } => ErrorKind::UnknownNf,
                        _ => ErrorKind::Internal,
                    };
                    protocol::error_response(job.id, kind, &e.to_string())
                }
            }
        }
        JobKind::Difftest { seeds, start, pkts } => {
            obs::counter("serve.ops.difftest").incr();
            let cfg = DifftestConfig {
                seeds: *seeds,
                start_seed: *start,
                pkts: *pkts,
                shrink: false,
                artifact_dir: None,
                inject: None,
                ..DifftestConfig::default()
            };
            let outcome = {
                let span = obs::span_under(s.root, "serve-difftest");
                let _ctx = obs::attach(span.handle());
                difftest::run(&cfg)
            };
            match outcome {
                Ok(report) => {
                    s.served.fetch_add(1, Ordering::SeqCst);
                    job.tenant.stats.served.fetch_add(1, Ordering::SeqCst);
                    protocol::difftest_response(
                        job.id,
                        report.checked as u64,
                        report.divergent.len() as u64,
                        report.engine_failures as u64,
                    )
                }
                Err(e) => {
                    s.count_error(&job.tenant);
                    protocol::error_response(job.id, ErrorKind::Internal, &e.to_string())
                }
            }
        }
    };
    let _ = job.resp.send(response);
}

// ---- SIGTERM -----------------------------------------------------------

#[cfg(unix)]
mod term {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TERM: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_term(_sig: i32) {
        TERM.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> isize;
    }

    pub fn install() {
        const SIGTERM: i32 = 15;
        unsafe {
            let _ = signal(SIGTERM, on_term);
        }
    }

    pub fn signaled() -> bool {
        TERM.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod term {
    pub fn install() {}

    pub fn signaled() -> bool {
        false
    }
}

/// Installs a SIGTERM handler that triggers a graceful drain (the
/// acceptor polls it). No-op on non-unix platforms.
pub fn install_sigterm_drain() {
    term::install();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    #[test]
    fn a_connection_whose_thread_cannot_spawn_is_closed() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (stream, _) = listener.accept().expect("accept");
        // No address space holds a 1 EiB stack: this spawn fails the way
        // one at the thread limit does, without creating any thread.
        let doomed = std::thread::Builder::new().stack_size(1 << 60);
        spawn_detached(doomed, move || {
            let _held = stream;
            loop {
                std::thread::park();
            }
        });
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("set timeout");
        let mut buf = [0u8; 1];
        assert_eq!(client.read(&mut buf).expect("closed, not timed out"), 0);
    }
}
