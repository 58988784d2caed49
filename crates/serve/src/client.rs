//! The load generator behind `clara bench-serve`.
//!
//! Drives a running daemon over N persistent connections, measures
//! request throughput and latency percentiles client-side, optionally
//! fires an over-capacity burst (to exercise admission control) and a
//! sequential one-shot-CLI baseline (to quantify what warm state buys),
//! and lands everything in the standard `BENCH_*.json` report shape.
//!
//! Latency accounting is **per-op**: interleaved `op:"place"` round
//! trips (`--place-every`) land in their own percentile pool, so
//! predict p50/p95/p99 and the `--require-speedup` floor never mix
//! ILP-solver calls with cached predicts.
//!
//! Three extra modes ride on the same machinery:
//!
//! - `--tenants N` registers `tenant-0..N-1` and spreads the
//!   steady-state connections across them, exercising the server's
//!   per-tenant queues and worker shards;
//! - `--fairness` runs the two-tenant isolation experiment: a victim's
//!   steady state is measured solo, then again while a burster floods
//!   past its quota — the victim must keep its latency (and see zero
//!   rejections) while the burster absorbs typed `quota_exceeded`;
//! - `--matrix` sweeps tenants × transport (TCP JSON-lines vs UDS
//!   frames) × backend over the same workload and writes the grid to
//!   `BENCH_serve_tenants.json`, optionally enforcing that the UDS
//!   transport out-serves TCP (`--require-uds-win`).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use clara_core::{ClaraError, Precision};
use clara_obs as obs;
use serde::Value;

use crate::protocol::{self, RegisterSpec, Request, WorkSpec};
use crate::transport::{self, Transport};

/// What to throw at the server.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchOptions {
    /// Daemon TCP address.
    pub addr: String,
    /// Daemon Unix-socket path (required for the `uds` transport and
    /// for `--matrix`).
    pub uds_path: Option<String>,
    /// Transport the bench connections dial (`--matrix` uses both).
    pub transport: Transport,
    /// Total steady-state requests (split across `conns`).
    pub requests: usize,
    /// Concurrent persistent connections.
    pub conns: usize,
    /// Corpus element every steady-state request predicts.
    pub nf: String,
    /// Packets per steady-state request trace.
    pub packets: usize,
    /// Trace seed (fixed, so the warm cache can do its job).
    pub seed: u64,
    /// Over-capacity burst size (0 skips the burst phase). Each burst
    /// request uses a distinct seed and `burst_packets`, so none of them
    /// can be served from cache.
    pub burst: usize,
    /// Packets per burst request (heavy on purpose).
    pub burst_packets: usize,
    /// One-shot CLI invocations to time as the baseline (0 skips).
    pub baseline: usize,
    /// Model file for the baseline subprocesses (required when
    /// `baseline > 0`, so the baseline measures process startup + load,
    /// not training).
    pub model: Option<String>,
    /// Fail (exit 7) unless predict `rps / baseline_rps` reaches this.
    pub require_speedup: Option<f64>,
    /// Send a `drain` op after measuring and verify it succeeds.
    pub drain: bool,
    /// Report sink; defaults to `BENCH_serve.json` (`BENCH_serve_tenants.json`
    /// in matrix mode; a `CLARA_REPORT` env sink is honoured when unset).
    pub report: Option<String>,
    /// Device backend every request names (None: the server's default).
    pub backend: Option<String>,
    /// Inference precision every request names (None: the server's
    /// default). Also forwarded to the baseline subprocesses.
    pub precision: Option<Precision>,
    /// Interleave an `op:"place"` request for `nf` every N steady-state
    /// requests per connection (0 disables), so the bench also exercises
    /// the placement path against warm backend state.
    pub place_every: usize,
    /// Register this many tenants (`tenant-0..N-1`, NF set = `nf`) and
    /// spread the steady-state connections across them (0: anonymous).
    pub tenants: usize,
    /// Admission quota passed to each registered tenant (None: the
    /// server's full queue capacity).
    pub quota: Option<u64>,
    /// Run the two-tenant fairness experiment instead of the plain
    /// steady state.
    pub fairness: bool,
    /// Sweep tenants × transport × backend and write the grid report.
    pub matrix: bool,
    /// Backends the matrix sweeps (empty: the server default only).
    pub backends: Vec<String>,
    /// Fail (exit 7) unless the matrix measures UDS rps above TCP rps.
    pub require_uds_win: bool,
}

impl Default for BenchOptions {
    fn default() -> BenchOptions {
        BenchOptions {
            addr: "127.0.0.1:4117".to_string(),
            uds_path: None,
            transport: Transport::Tcp,
            requests: 200,
            conns: 4,
            nf: "cmsketch".to_string(),
            packets: 400,
            seed: 42,
            burst: 0,
            burst_packets: 3000,
            baseline: 0,
            model: None,
            require_speedup: None,
            drain: false,
            report: None,
            backend: None,
            precision: None,
            place_every: 0,
            tenants: 0,
            quota: None,
            fairness: false,
            matrix: false,
            backends: Vec::new(),
            require_uds_win: false,
        }
    }
}

/// The two-tenant isolation experiment's result.
#[derive(Debug, Clone, PartialEq)]
pub struct FairnessReport {
    /// Victim predict p95 with the server to itself, microseconds.
    pub solo_p95_us: f64,
    /// Victim predict p95 while the burster floods, microseconds.
    pub contended_p95_us: f64,
    /// Victim requests rejected or failed under contention (must be 0).
    pub victim_rejections: u64,
    /// Burster requests answered with typed `quota_exceeded`/`overloaded`
    /// (must be > 0 — the quota has to actually bite).
    pub burster_rejections: u64,
}

/// One cell of the tenants × transport × backend matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixCell {
    /// Tenant the cell ran as (`default` when anonymous).
    pub tenant: String,
    /// Transport the cell dialed.
    pub transport: Transport,
    /// Backend the cell named (`default` when none).
    pub backend: String,
    /// Successful predicts per second.
    pub rps: f64,
    /// Predict latency percentiles, microseconds.
    pub p50_us: f64,
    /// 95th percentile, microseconds.
    pub p95_us: f64,
}

/// What the run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSummary {
    /// Requests sent (steady state + burst).
    pub sent: u64,
    /// Successful responses.
    pub ok: u64,
    /// Typed `overloaded` rejections (expected under burst; not failures).
    pub overloaded: u64,
    /// Typed per-tenant `quota_exceeded` rejections (also not failures).
    pub quota_exceeded: u64,
    /// Anything else that went wrong.
    pub failed: u64,
    /// Steady-state successful *predicts* per second.
    pub rps: f64,
    /// Steady-state predict latency percentiles, microseconds
    /// (nearest rank; interleaved `place` round trips excluded).
    pub p50_us: f64,
    /// 95th percentile predict latency, microseconds.
    pub p95_us: f64,
    /// 99th percentile predict latency, microseconds.
    pub p99_us: f64,
    /// Successful interleaved `place` round trips.
    pub place_ok: u64,
    /// Interleaved `place` latency percentiles, microseconds.
    pub place_p50_us: f64,
    /// 95th percentile place latency, microseconds.
    pub place_p95_us: f64,
    /// 99th percentile place latency, microseconds.
    pub place_p99_us: f64,
    /// One-shot CLI requests per second (when a baseline ran).
    pub baseline_rps: Option<f64>,
    /// Predict `rps / baseline_rps` (when a baseline ran).
    pub speedup: Option<f64>,
    /// The fairness experiment's result (when `--fairness` ran).
    pub fairness: Option<FairnessReport>,
    /// Matrix aggregate: successful predicts per second over TCP.
    pub tcp_rps: Option<f64>,
    /// Matrix aggregate: successful predicts per second over UDS.
    pub uds_rps: Option<f64>,
    /// Whether the post-run drain completed successfully.
    pub drained: bool,
}

impl BenchSummary {
    fn empty() -> BenchSummary {
        BenchSummary {
            sent: 0,
            ok: 0,
            overloaded: 0,
            quota_exceeded: 0,
            failed: 0,
            rps: 0.0,
            p50_us: 0.0,
            p95_us: 0.0,
            p99_us: 0.0,
            place_ok: 0,
            place_p50_us: 0.0,
            place_p95_us: 0.0,
            place_p99_us: 0.0,
            baseline_rps: None,
            speedup: None,
            fairness: None,
            tcp_rps: None,
            uds_rps: None,
            drained: false,
        }
    }
}

fn serve_err(detail: String) -> ClaraError {
    ClaraError::Serve { detail }
}

// ---- connections -------------------------------------------------------

/// One bench connection: TCP JSON-lines or UDS length-prefixed frames,
/// same protocol bytes either way.
enum BenchConn {
    Tcp {
        stream: TcpStream,
        reader: BufReader<TcpStream>,
    },
    #[cfg(unix)]
    Uds {
        stream: UnixStream,
        read_buf: Vec<u8>,
        write_buf: Vec<u8>,
    },
}

impl BenchConn {
    /// Connects with retries (the daemon may still be starting up).
    fn connect(
        transport: Transport,
        addr: &str,
        uds_path: Option<&str>,
    ) -> Result<BenchConn, ClaraError> {
        let deadline = Instant::now() + Duration::from_secs(10);
        match transport {
            Transport::Tcp => loop {
                match TcpStream::connect(addr) {
                    Ok(s) => {
                        s.set_read_timeout(Some(Duration::from_secs(120)))
                            .map_err(|e| serve_err(format!("cannot set read timeout: {e}")))?;
                        // Small request frames; Nagle would stall them
                        // behind delayed ACKs.
                        let _ = s.set_nodelay(true);
                        let reader = BufReader::new(
                            s.try_clone()
                                .map_err(|e| serve_err(format!("cannot clone stream: {e}")))?,
                        );
                        return Ok(BenchConn::Tcp { stream: s, reader });
                    }
                    Err(e) if Instant::now() < deadline => {
                        let _ = e;
                        std::thread::sleep(Duration::from_millis(100));
                    }
                    Err(e) => return Err(serve_err(format!("cannot connect to {addr}: {e}"))),
                }
            },
            #[cfg(unix)]
            Transport::Uds => {
                let path = uds_path
                    .ok_or_else(|| serve_err("the uds transport needs --uds <path>".to_string()))?;
                loop {
                    match UnixStream::connect(path) {
                        Ok(s) => {
                            s.set_read_timeout(Some(Duration::from_secs(120)))
                                .map_err(|e| serve_err(format!("cannot set read timeout: {e}")))?;
                            return Ok(BenchConn::Uds {
                                stream: s,
                                read_buf: Vec::with_capacity(4096),
                                write_buf: Vec::with_capacity(4096),
                            });
                        }
                        Err(e) if Instant::now() < deadline => {
                            let _ = e;
                            std::thread::sleep(Duration::from_millis(100));
                        }
                        Err(e) => return Err(serve_err(format!("cannot connect to {path}: {e}"))),
                    }
                }
            }
            #[cfg(not(unix))]
            Transport::Uds => {
                let _ = uds_path;
                Err(serve_err(
                    "unix-domain sockets are not available on this platform".to_string(),
                ))
            }
        }
    }

    /// One request/response round trip.
    fn round_trip(&mut self, line: &str) -> Result<String, String> {
        match self {
            BenchConn::Tcp { stream, reader } => {
                let mut framed = String::with_capacity(line.len() + 1);
                framed.push_str(line);
                framed.push('\n');
                stream
                    .write_all(framed.as_bytes())
                    .and_then(|()| stream.flush())
                    .map_err(|e| format!("write failed: {e}"))?;
                let mut resp = String::new();
                match reader.read_line(&mut resp) {
                    Ok(0) => Err("server closed the connection".to_string()),
                    Ok(_) => Ok(resp.trim_end().to_string()),
                    Err(e) => Err(format!("read failed: {e}")),
                }
            }
            #[cfg(unix)]
            BenchConn::Uds {
                stream,
                read_buf,
                write_buf,
            } => {
                transport::write_frame(stream, write_buf, line)
                    .map_err(|e| format!("write failed: {e}"))?;
                match transport::read_frame(stream, read_buf) {
                    Ok(Some(resp)) => Ok(resp),
                    Ok(None) => Err("server closed the connection".to_string()),
                    Err(e) => Err(format!("read failed: {e}")),
                }
            }
        }
    }
}

/// How one response counts toward the tallies.
enum Outcome {
    Ok,
    Overloaded,
    QuotaExceeded,
    Failed(String),
}

fn classify(resp: &str) -> Outcome {
    match serde_json::parse_value(resp) {
        Ok(v) => {
            if v.get("ok") == Some(&Value::Bool(true)) {
                Outcome::Ok
            } else if v.get("error") == Some(&Value::Str("overloaded".to_string())) {
                Outcome::Overloaded
            } else if v.get("error") == Some(&Value::Str("quota_exceeded".to_string())) {
                Outcome::QuotaExceeded
            } else {
                Outcome::Failed(resp.to_string())
            }
        }
        Err(e) => Outcome::Failed(format!("unparseable response ({e}): {resp}")),
    }
}

/// Which latency pool a round trip lands in (the percentile fix: place
/// round trips never pollute predict percentiles).
#[derive(Clone, Copy, PartialEq, Eq)]
enum BenchOp {
    Predict,
    Place,
}

#[derive(Default)]
struct Tally {
    sent: u64,
    ok: u64,
    overloaded: u64,
    quota_exceeded: u64,
    failed: u64,
    first_failure: Option<String>,
    predict_ok: u64,
    place_ok: u64,
    predict_lat_us: Vec<f64>,
    place_lat_us: Vec<f64>,
}

impl Tally {
    fn absorb(&mut self, other: Tally) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.overloaded += other.overloaded;
        self.quota_exceeded += other.quota_exceeded;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
        self.predict_ok += other.predict_ok;
        self.place_ok += other.place_ok;
        self.predict_lat_us.extend(other.predict_lat_us);
        self.place_lat_us.extend(other.place_lat_us);
    }

    fn record(&mut self, op: BenchOp, outcome: Outcome, latency: Duration) {
        self.sent += 1;
        let lat = latency.as_micros() as f64;
        match op {
            BenchOp::Predict => self.predict_lat_us.push(lat),
            BenchOp::Place => self.place_lat_us.push(lat),
        }
        match outcome {
            Outcome::Ok => {
                self.ok += 1;
                match op {
                    BenchOp::Predict => self.predict_ok += 1,
                    BenchOp::Place => self.place_ok += 1,
                }
            }
            Outcome::Overloaded => self.overloaded += 1,
            Outcome::QuotaExceeded => self.quota_exceeded += 1,
            Outcome::Failed(detail) => {
                self.failed += 1;
                if self.first_failure.is_none() {
                    self.first_failure = Some(detail);
                }
            }
        }
    }

    /// Rejections of any typed kind plus outright failures.
    fn rejections(&self) -> u64 {
        self.overloaded + self.quota_exceeded + self.failed
    }

    fn sorted_predict_lat(&self) -> Vec<f64> {
        let mut lat = self.predict_lat_us.clone();
        lat.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        lat
    }

    fn sorted_place_lat(&self) -> Vec<f64> {
        let mut lat = self.place_lat_us.clone();
        lat.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        lat
    }
}

/// Nearest-rank percentile over a sorted sample set.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

// ---- steady state ------------------------------------------------------

/// One steady-state slice: who sends, over what, against which backend.
struct Slice<'a> {
    /// Tenants cycled across connections (empty: anonymous).
    tenants: Vec<&'a str>,
    transport: Transport,
    backend: Option<String>,
    requests: usize,
    place_every: usize,
}

fn steady_state(o: &BenchOptions, slice: &Slice<'_>) -> Result<(Tally, f64), ClaraError> {
    let conns = o.conns.max(1);
    let per_conn = slice.requests / conns;
    let extra = slice.requests % conns;
    let started = Instant::now();
    let mut total = Tally::default();
    let tallies: Vec<Result<Tally, ClaraError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let count = per_conn + usize::from(c < extra);
                let tenant = if slice.tenants.is_empty() {
                    None
                } else {
                    Some(slice.tenants[c % slice.tenants.len()])
                };
                scope.spawn(move || -> Result<Tally, ClaraError> {
                    let mut tally = Tally::default();
                    if count == 0 {
                        return Ok(tally);
                    }
                    let mut conn =
                        BenchConn::connect(slice.transport, &o.addr, o.uds_path.as_deref())?;
                    for i in 0..count {
                        let id = (c * slice.requests + i) as u64;
                        let (op, req) = if slice.place_every > 0
                            && i % slice.place_every == slice.place_every - 1
                        {
                            let mut b = clara_core::PlacementRequest::builder([o.nf.as_str()])
                                .packets(o.packets)
                                .seed(o.seed);
                            if let Some(backend) = &slice.backend {
                                b = b.backend(backend.as_str());
                            }
                            if let Some(p) = o.precision {
                                b = b.precision(p);
                            }
                            (BenchOp::Place, Request::Place(b.build()))
                        } else {
                            (
                                BenchOp::Predict,
                                Request::Predict(WorkSpec {
                                    nf: o.nf.clone(),
                                    packets: o.packets,
                                    seed: o.seed,
                                    small_flows: false,
                                    backend: slice.backend.clone(),
                                    precision: o.precision,
                                }),
                            )
                        };
                        let line = protocol::render_request_as(Some(id), tenant, &req);
                        let t0 = Instant::now();
                        match conn.round_trip(&line) {
                            Ok(resp) => tally.record(op, classify(&resp), t0.elapsed()),
                            Err(e) => tally.record(op, Outcome::Failed(e), t0.elapsed()),
                        }
                    }
                    Ok(tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("bench connection thread panicked"))
            .collect()
    });
    for t in tallies {
        total.absorb(t?);
    }
    Ok((total, started.elapsed().as_secs_f64()))
}

/// Fires `burst` one-shot connections at once, each with a heavy,
/// distinctly-seeded predict, to push the queue past capacity.
fn burst_phase(o: &BenchOptions, tenant: Option<&str>) -> Tally {
    let mut total = Tally::default();
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..o.burst)
            .map(|i| {
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    let t0 = Instant::now();
                    let outcome = (|| -> Result<Outcome, String> {
                        let mut conn =
                            BenchConn::connect(o.transport, &o.addr, o.uds_path.as_deref())
                                .map_err(|e| format!("burst connect: {e}"))?;
                        let line = protocol::render_request_as(
                            Some(1_000_000 + i as u64),
                            tenant,
                            &Request::Predict(WorkSpec {
                                nf: o.nf.clone(),
                                packets: o.burst_packets,
                                seed: 1_000_000 + i as u64,
                                small_flows: false,
                                backend: o.backend.clone(),
                                precision: o.precision,
                            }),
                        );
                        conn.round_trip(&line).map(|r| classify(&r))
                    })();
                    match outcome {
                        Ok(oc) => tally.record(BenchOp::Predict, oc, t0.elapsed()),
                        Err(e) => tally.record(BenchOp::Predict, Outcome::Failed(e), t0.elapsed()),
                    }
                    tally
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("burst thread panicked"))
            .collect()
    });
    for t in tallies {
        total.absorb(t);
    }
    total
}

/// Times `baseline` sequential one-shot `clara predict` subprocesses.
fn baseline_phase(o: &BenchOptions) -> Result<f64, ClaraError> {
    let model = o.model.as_ref().ok_or_else(|| {
        serve_err("--baseline needs --model so one-shot runs load instead of train".to_string())
    })?;
    let exe = std::env::current_exe()
        .map_err(|e| serve_err(format!("cannot locate own executable: {e}")))?;
    let started = Instant::now();
    for _ in 0..o.baseline {
        let mut cmd = Command::new(&exe);
        cmd.arg("predict")
            .arg(&o.nf)
            .arg("--model")
            .arg(model)
            .arg("--packets")
            .arg(o.packets.to_string())
            .arg("--seed")
            .arg(o.seed.to_string());
        if let Some(p) = o.precision {
            cmd.arg("--precision").arg(p.as_str());
        }
        let status = cmd
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .map_err(|e| serve_err(format!("cannot spawn baseline subprocess: {e}")))?;
        if !status.success() {
            return Err(serve_err(format!(
                "baseline `clara predict` run failed with {status}"
            )));
        }
    }
    let secs = started.elapsed().as_secs_f64();
    Ok(o.baseline as f64 / secs.max(1e-9))
}

fn drain_phase(o: &BenchOptions) -> Result<(), ClaraError> {
    let mut conn = BenchConn::connect(o.transport, &o.addr, o.uds_path.as_deref())?;
    let line = protocol::render_request(None, &Request::Drain);
    let resp = conn.round_trip(&line).map_err(serve_err)?;
    match classify(&resp) {
        Outcome::Ok => Ok(()),
        _ => Err(serve_err(format!("drain did not succeed: {resp}"))),
    }
}

/// Registers a tenant (NF set = the bench NF) and checks the ack.
fn register_tenant(o: &BenchOptions, name: &str, quota: Option<u64>) -> Result<(), ClaraError> {
    let mut conn = BenchConn::connect(o.transport, &o.addr, o.uds_path.as_deref())?;
    let line = protocol::render_request_as(
        None,
        Some(name),
        &Request::Register(RegisterSpec {
            nfs: vec![o.nf.clone()],
            backend: None,
            precision: None,
            quota,
        }),
    );
    let resp = conn.round_trip(&line).map_err(serve_err)?;
    match classify(&resp) {
        Outcome::Ok => Ok(()),
        _ => Err(serve_err(format!("register `{name}` failed: {resp}"))),
    }
}

// ---- reporting ---------------------------------------------------------

fn write_report(o: &BenchOptions, s: &BenchSummary, default_name: &str) {
    obs::enable();
    obs::volatile_gauge("serve.bench.rps").set(s.rps);
    obs::volatile_gauge("serve.bench.p50_us").set(s.p50_us);
    obs::volatile_gauge("serve.bench.p95_us").set(s.p95_us);
    obs::volatile_gauge("serve.bench.p99_us").set(s.p99_us);
    obs::volatile_gauge("serve.bench.sent").set(s.sent as f64);
    obs::volatile_gauge("serve.bench.ok").set(s.ok as f64);
    obs::volatile_gauge("serve.bench.overloaded").set(s.overloaded as f64);
    obs::volatile_gauge("serve.bench.quota_exceeded").set(s.quota_exceeded as f64);
    if s.place_ok > 0 {
        obs::volatile_gauge("serve.bench.place.ok").set(s.place_ok as f64);
        obs::volatile_gauge("serve.bench.place.p50_us").set(s.place_p50_us);
        obs::volatile_gauge("serve.bench.place.p95_us").set(s.place_p95_us);
        obs::volatile_gauge("serve.bench.place.p99_us").set(s.place_p99_us);
    }
    if let Some(b) = s.baseline_rps {
        obs::volatile_gauge("serve.bench.baseline_rps").set(b);
    }
    if let Some(x) = s.speedup {
        obs::volatile_gauge("serve.bench.speedup").set(x);
    }
    if let Some(f) = &s.fairness {
        obs::volatile_gauge("serve.bench.fairness.solo_p95_us").set(f.solo_p95_us);
        obs::volatile_gauge("serve.bench.fairness.contended_p95_us").set(f.contended_p95_us);
        obs::volatile_gauge("serve.bench.fairness.victim_rejections")
            .set(f.victim_rejections as f64);
        obs::volatile_gauge("serve.bench.fairness.burster_rejections")
            .set(f.burster_rejections as f64);
    }
    if let Some(r) = s.tcp_rps {
        obs::volatile_gauge("serve.bench.matrix.tcp.rps").set(r);
    }
    if let Some(r) = s.uds_rps {
        obs::volatile_gauge("serve.bench.matrix.uds.rps").set(r);
    }
    let raw = o
        .report
        .clone()
        .or_else(obs::sink_from_env)
        .unwrap_or_else(|| default_name.to_string());
    let path = obs::resolve_sink(&raw, default_name);
    if let Err(e) = obs::RunReport::capture().write(&path) {
        eprintln!("warning: could not write report to {}: {e}", path.display());
    } else {
        eprintln!("wrote report to {}", path.display());
    }
}

fn summarize(tally: &Tally, steady_secs: f64) -> BenchSummary {
    let predict_lat = tally.sorted_predict_lat();
    let place_lat = tally.sorted_place_lat();
    BenchSummary {
        sent: tally.sent,
        ok: tally.ok,
        overloaded: tally.overloaded,
        quota_exceeded: tally.quota_exceeded,
        failed: tally.failed,
        rps: tally.predict_ok as f64 / steady_secs.max(1e-9),
        p50_us: percentile(&predict_lat, 0.50),
        p95_us: percentile(&predict_lat, 0.95),
        p99_us: percentile(&predict_lat, 0.99),
        place_ok: tally.place_ok,
        place_p50_us: percentile(&place_lat, 0.50),
        place_p95_us: percentile(&place_lat, 0.95),
        place_p99_us: percentile(&place_lat, 0.99),
        ..BenchSummary::empty()
    }
}

// ---- modes -------------------------------------------------------------

/// The plain benchmark: steady state (optionally spread over registered
/// tenants), optional burst, optional baseline, report, optional drain.
fn run_plain(o: &BenchOptions) -> Result<BenchSummary, ClaraError> {
    let tenant_names: Vec<String> = (0..o.tenants).map(|i| format!("tenant-{i}")).collect();
    for name in &tenant_names {
        register_tenant(o, name, o.quota)?;
    }
    let slice = Slice {
        tenants: tenant_names.iter().map(String::as_str).collect(),
        transport: o.transport,
        backend: o.backend.clone(),
        requests: o.requests,
        place_every: o.place_every,
    };
    let (mut tally, steady_secs) = steady_state(o, &slice)?;
    let steady = summarize(&tally, steady_secs);
    if o.burst > 0 {
        tally.absorb(burst_phase(o, tenant_names.first().map(String::as_str)));
    }
    let baseline_rps = if o.baseline > 0 {
        Some(baseline_phase(o)?)
    } else {
        None
    };
    // The speedup floor compares predicts only: place round trips have
    // their own pool and never dilute (or inflate) the warm-path claim.
    let speedup = baseline_rps.map(|b| steady.rps / b.max(1e-9));
    let mut summary = BenchSummary {
        sent: tally.sent,
        ok: tally.ok,
        overloaded: tally.overloaded,
        quota_exceeded: tally.quota_exceeded,
        failed: tally.failed,
        baseline_rps,
        speedup,
        ..steady
    };
    if o.drain {
        drain_phase(o)?;
        summary.drained = true;
    }
    write_report(o, &summary, "BENCH_serve.json");
    if summary.failed > 0 {
        return Err(serve_err(format!(
            "{} of {} requests failed (first: {})",
            summary.failed,
            summary.sent,
            tally.first_failure.as_deref().unwrap_or("unknown"),
        )));
    }
    if let Some(min) = o.require_speedup {
        match summary.speedup {
            Some(x) if x >= min => {}
            Some(x) => {
                return Err(serve_err(format!(
                    "speedup {x:.2}x is below the required {min:.2}x"
                )))
            }
            None => {
                return Err(serve_err(
                    "--require-speedup needs --baseline to measure against".to_string(),
                ))
            }
        }
    }
    Ok(summary)
}

/// The two-tenant isolation experiment: measure the victim solo, then
/// with a quota-limited burster flooding. Isolation holds when the
/// victim keeps its p95 (within 2x, with a 10ms floor for sub-ms
/// baselines) and sees zero rejections while the burster's flood
/// collects typed rejections.
fn run_fairness(o: &BenchOptions) -> Result<BenchSummary, ClaraError> {
    // Order matters: the victim registers first so its worker shard is
    // disjoint from the burster's (which lands with the default tenant).
    register_tenant(o, "victim", None)?;
    register_tenant(o, "burster", Some(o.quota.unwrap_or(4)))?;
    let victim_slice = Slice {
        tenants: vec!["victim"],
        transport: o.transport,
        backend: o.backend.clone(),
        requests: o.requests,
        place_every: 0,
    };
    let (solo, solo_secs) = steady_state(o, &victim_slice)?;
    if solo.rejections() > 0 {
        return Err(serve_err(format!(
            "victim saw {} rejections/failures in its solo phase (first: {})",
            solo.rejections(),
            solo.first_failure.as_deref().unwrap_or("typed rejection"),
        )));
    }
    let solo_p95 = percentile(&solo.sorted_predict_lat(), 0.95);

    // Contended phase: the burster floods with heavy, uncacheable
    // predicts while the victim repeats its exact solo workload.
    let flood = o.burst.max(16);
    let (victim, burster) = std::thread::scope(|scope| {
        let victim_handle = scope.spawn(|| steady_state(o, &victim_slice));
        let burster_handle = scope.spawn(|| {
            let mut bo = o.clone();
            bo.burst = flood;
            burst_phase(&bo, Some("burster"))
        });
        (
            victim_handle.join().expect("victim thread panicked"),
            burster_handle.join().expect("burster thread panicked"),
        )
    });
    let (victim, victim_secs) = victim?;
    let contended_p95 = percentile(&victim.sorted_predict_lat(), 0.95);

    let fairness = FairnessReport {
        solo_p95_us: solo_p95,
        contended_p95_us: contended_p95,
        victim_rejections: victim.rejections(),
        burster_rejections: burster.overloaded + burster.quota_exceeded,
    };
    let mut tally = Tally::default();
    let victim_ok = victim.predict_ok;
    tally.absorb(solo);
    tally.absorb(victim);
    tally.absorb(burster);
    let mut summary = summarize(&tally, solo_secs + victim_secs);
    summary.rps = victim_ok as f64 / victim_secs.max(1e-9);
    summary.fairness = Some(fairness.clone());
    if o.drain {
        drain_phase(o)?;
        summary.drained = true;
    }
    write_report(o, &summary, "BENCH_serve.json");

    if fairness.victim_rejections > 0 {
        return Err(serve_err(format!(
            "fairness violated: victim saw {} rejections/failures under contention",
            fairness.victim_rejections
        )));
    }
    if fairness.burster_rejections == 0 {
        return Err(serve_err(
            "fairness experiment inconclusive: the burster's flood was never rejected \
             (raise --burst or lower --quota)"
                .to_string(),
        ));
    }
    let bound = (2.0 * fairness.solo_p95_us).max(10_000.0);
    if fairness.contended_p95_us > bound {
        return Err(serve_err(format!(
            "fairness violated: victim p95 {:.0}us under contention exceeds {:.0}us \
             (2x solo p95 {:.0}us)",
            fairness.contended_p95_us, bound, fairness.solo_p95_us
        )));
    }
    Ok(summary)
}

/// The tenants × transport × backend sweep. One warmup slice primes the
/// engine caches so cells measure transport + dispatch overhead, not
/// first-touch compilation.
fn run_matrix(o: &BenchOptions) -> Result<BenchSummary, ClaraError> {
    if o.uds_path.is_none() {
        return Err(serve_err(
            "--matrix compares transports; start the server with a uds listener and pass --uds"
                .to_string(),
        ));
    }
    let tenant_names: Vec<String> = (0..o.tenants.max(1))
        .map(|i| format!("tenant-{i}"))
        .collect();
    for name in &tenant_names {
        register_tenant(o, name, o.quota)?;
    }
    let backends: Vec<Option<String>> = if o.backends.is_empty() {
        vec![o.backend.clone()]
    } else {
        o.backends.iter().cloned().map(Some).collect()
    };
    let warmup = Slice {
        tenants: tenant_names.iter().map(String::as_str).collect(),
        transport: Transport::Tcp,
        backend: backends[0].clone(),
        requests: (o.conns.max(1) * 4).min(o.requests.max(1)),
        place_every: 0,
    };
    let _ = steady_state(o, &warmup)?;

    let mut cells = Vec::new();
    let mut tally = Tally::default();
    let mut per_transport_ok = [0u64; 2];
    let mut per_transport_secs = [0f64; 2];
    for tenant in &tenant_names {
        for (ti, transport) in [Transport::Tcp, Transport::Uds].into_iter().enumerate() {
            for backend in &backends {
                let slice = Slice {
                    tenants: vec![tenant.as_str()],
                    transport,
                    backend: backend.clone(),
                    requests: o.requests,
                    place_every: 0,
                };
                let (cell_tally, secs) = steady_state(o, &slice)?;
                let lat = cell_tally.sorted_predict_lat();
                let cell = MatrixCell {
                    tenant: tenant.clone(),
                    transport,
                    backend: backend.clone().unwrap_or_else(|| "default".to_string()),
                    rps: cell_tally.predict_ok as f64 / secs.max(1e-9),
                    p50_us: percentile(&lat, 0.50),
                    p95_us: percentile(&lat, 0.95),
                };
                obs::enable();
                let key = format!(
                    "serve.bench.matrix.{}.{}.{}",
                    cell.tenant,
                    cell.transport.as_str(),
                    cell.backend
                );
                obs::volatile_gauge(&format!("{key}.rps")).set(cell.rps);
                obs::volatile_gauge(&format!("{key}.p50_us")).set(cell.p50_us);
                obs::volatile_gauge(&format!("{key}.p95_us")).set(cell.p95_us);
                eprintln!(
                    "matrix {} {} {}: {:.0} rps, p50 {:.0}us, p95 {:.0}us",
                    cell.tenant,
                    cell.transport.as_str(),
                    cell.backend,
                    cell.rps,
                    cell.p50_us,
                    cell.p95_us
                );
                per_transport_ok[ti] += cell_tally.predict_ok;
                per_transport_secs[ti] += secs;
                tally.absorb(cell_tally);
                cells.push(cell);
            }
        }
    }
    let tcp_rps = per_transport_ok[0] as f64 / per_transport_secs[0].max(1e-9);
    let uds_rps = per_transport_ok[1] as f64 / per_transport_secs[1].max(1e-9);
    let total_secs = per_transport_secs[0] + per_transport_secs[1];
    let mut summary = summarize(&tally, total_secs);
    summary.tcp_rps = Some(tcp_rps);
    summary.uds_rps = Some(uds_rps);
    if o.drain {
        drain_phase(o)?;
        summary.drained = true;
    }
    write_report(o, &summary, "BENCH_serve_tenants.json");
    if summary.failed > 0 {
        return Err(serve_err(format!(
            "{} of {} matrix requests failed (first: {})",
            summary.failed,
            summary.sent,
            tally.first_failure.as_deref().unwrap_or("unknown"),
        )));
    }
    if o.require_uds_win && uds_rps <= tcp_rps {
        return Err(serve_err(format!(
            "uds transport did not out-serve tcp ({uds_rps:.0} rps vs {tcp_rps:.0} rps)"
        )));
    }
    Ok(summary)
}

/// Runs the benchmark in the selected mode.
///
/// # Errors
///
/// [`ClaraError::Serve`] (CLI exit code 7) when any request fails for a
/// reason other than a typed rejection, when the measured speedup misses
/// `require_speedup`, when the fairness experiment finds the victim
/// degraded (or the burster unthrottled), when `--require-uds-win` is
/// not met, or when the post-run drain fails.
pub fn run_bench(o: &BenchOptions) -> Result<BenchSummary, ClaraError> {
    if o.fairness {
        run_fairness(o)
    } else if o.matrix {
        run_matrix(o)
    } else {
        run_plain(o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.50), 50.0);
        assert_eq!(percentile(&sorted, 0.95), 95.0);
        assert_eq!(percentile(&sorted, 0.99), 99.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn tallies_keep_predict_and_place_pools_separate() {
        let mut t = Tally::default();
        t.record(BenchOp::Predict, Outcome::Ok, Duration::from_micros(100));
        t.record(BenchOp::Predict, Outcome::Ok, Duration::from_micros(200));
        t.record(BenchOp::Place, Outcome::Ok, Duration::from_micros(90_000));
        t.record(
            BenchOp::Predict,
            Outcome::QuotaExceeded,
            Duration::from_micros(50),
        );
        assert_eq!(t.sent, 4);
        assert_eq!(t.ok, 3);
        assert_eq!(t.predict_ok, 2);
        assert_eq!(t.place_ok, 1);
        assert_eq!(t.quota_exceeded, 1);
        assert_eq!(t.rejections(), 1);
        // The place outlier never reaches the predict pool: predict p99
        // stays at predict scale.
        assert_eq!(percentile(&t.sorted_predict_lat(), 0.99), 200.0);
        assert_eq!(percentile(&t.sorted_place_lat(), 0.99), 90_000.0);
        let mut total = Tally::default();
        total.absorb(t);
        assert_eq!(total.predict_lat_us.len(), 3);
        assert_eq!(total.place_lat_us.len(), 1);
    }
}
