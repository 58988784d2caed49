//! The versioned JSON-lines wire protocol.
//!
//! Every request and response is one JSON object per line. Requests
//! carry `{"v":1,"op":...}` plus op-specific fields and an optional
//! client-chosen `id` that is echoed back verbatim on the response:
//!
//! ```json
//! {"v":1,"op":"predict","nf":"cmsketch","packets":400,"seed":7}
//! {"v":1,"op":"analyze","nf":"iplookup","small_flows":true}
//! {"v":1,"op":"predict","nf":"nat","backend":"dpu-offpath"}
//! {"v":1,"op":"place","nfs":["firewall","mazunat"],"objective":"host-cores"}
//! {"v":1,"op":"place","nfs":["mazunat"],"replay":"shift","epochs":6}
//! {"v":1,"op":"difftest","seeds":20,"start":100,"packets":64}
//! {"v":1,"op":"stats"}
//! {"v":1,"op":"drain"}
//! ```
//!
//! `op:"place"` carries a typed [`PlacementRequest`]: `nfs` is the NF
//! chain (array of corpus names), `objective` is `"host-cores"`
//! (default) or `"throughput"`, and the optional `replay` /`epochs` /
//! `drift_threshold` fields turn the one-shot plan into a drift-driven
//! replay over a builtin `trafgen` schedule. The response is the full
//! placement plan — per-NF ILP mapping with objective value, the greedy
//! fallback's plan and delta, the chain split, and (in replay mode) the
//! migration report. Like every other op, rendering is a pure function
//! of the plan, so a served `op:"place"` response is byte-identical to
//! the one-shot `clara place` output for the same request; an
//! infeasible instance is rejected with the typed `infeasible` error
//! kind (the one addition to the otherwise closed error-kind set).
//!
//! `backend` selects which warm device model serves the request; when
//! omitted the server's default (first configured) backend is used, and
//! a name the server does not hold is rejected with `unknown_backend`
//! before the request is queued. `precision` (`"f64"` or `"q16"`)
//! selects the inference path per request; when omitted the server's
//! configured default applies, and an unknown precision string is a
//! `bad_request`. Successful `predict`/`analyze` responses echo the
//! precision that actually served them.
//!
//! # Tenancy
//!
//! Every request may carry a top-level `"tenant"` field naming the
//! tenant it runs as; requests without one run as the always-present
//! `default` tenant. `op:"register"` declares (or updates) a tenant:
//!
//! ```json
//! {"v":1,"op":"register","tenant":"team-a","nfs":["cmsketch","nat"],
//!  "backend":"dpu-offpath","precision":"q16","quota":8}
//! {"v":1,"op":"predict","tenant":"team-a","nf":"cmsketch"}
//! ```
//!
//! Registration pins the tenant's NF set (an empty or omitted `nfs`
//! admits the whole corpus), its default device backend and inference
//! precision (applied to requests that name none), and its admission
//! `quota` — the most jobs the tenant may have queued at once. A work
//! request naming an unregistered tenant is rejected with the typed
//! `unknown_tenant` kind; a registered tenant that fills its quota gets
//! `quota_exceeded` while the shared queue keeps admitting everyone
//! else (the global capacity rejection stays `overloaded`).
//!
//! Successful responses are `{"v":1,"ok":true,"op":...}` plus payload;
//! failures are `{"v":1,"ok":false,"error":<kind>,"detail":...}` where
//! `<kind>` is one of the [`ErrorKind`] strings. `overloaded` is the
//! admission-control rejection (bounded queue at capacity) — it is the
//! *expected* backpressure signal, not a server fault. A `predict` the
//! daemon has already answered is served from its prediction cache
//! without queueing, so it never meets `overloaded` or `quota_exceeded`.
//! `draining` is returned for work submitted after a drain began, and
//! `bad_request` for a request that does not parse, or that is over
//! [`crate::transport::MAX_REQUEST_LEN`] or not UTF-8 (the daemon then
//! closes the connection).
//!
//! Response rendering is a pure function of the result data, so a
//! response served through the daemon's queue and batching machinery is
//! byte-identical to one rendered from the equivalent one-shot facade
//! call (pinned by `tests/serve.rs`).

use clara_core::{Insights, Objective, PlacementPlan, PlacementRequest, Precision, Prediction};
use nf_ir::Module;
use serde::Value;
use trafgen::{Trace, WorkloadSpec};

/// Protocol version accepted and emitted by this build.
pub const PROTOCOL_VERSION: u64 = 1;

/// The workload half of a `predict`/`analyze` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkSpec {
    /// Corpus element name (`clara list`).
    pub nf: String,
    /// Packets to generate for the profiling trace.
    pub packets: usize,
    /// Trace RNG seed.
    pub seed: u64,
    /// Small-flow workload instead of the default large-flow one.
    pub small_flows: bool,
    /// Device backend to serve this request from (None: the server's
    /// default backend).
    pub backend: Option<String>,
    /// Inference precision for this request (None: the server's
    /// configured default).
    pub precision: Option<Precision>,
}

impl WorkSpec {
    /// Generates the deterministic trace this spec describes (the same
    /// mapping the one-shot `clara analyze` CLI uses).
    pub fn trace(&self) -> Trace {
        let spec = if self.small_flows {
            WorkloadSpec::small_flows().with_flows(8192)
        } else {
            WorkloadSpec::large_flows()
        };
        Trace::generate(&spec, self.packets, self.seed)
    }
}

/// What `op:"register"` declares about a tenant.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RegisterSpec {
    /// The tenant's NF set; empty admits the whole corpus.
    pub nfs: Vec<String>,
    /// Default device backend for the tenant's requests (None: the
    /// server's default backend).
    pub backend: Option<String>,
    /// Default inference precision for the tenant's requests (None: the
    /// server's configured default).
    pub precision: Option<Precision>,
    /// Admission quota: most jobs the tenant may have queued at once
    /// (None: the full queue capacity).
    pub quota: Option<u64>,
}

/// One parsed request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Performance-parameter prediction (batchable).
    Predict(WorkSpec),
    /// Full insight bundle.
    Analyze(WorkSpec),
    /// Traffic-aware placement planning for an NF chain.
    Place(PlacementRequest),
    /// Differential-oracle sweep over synthesized seeds.
    Difftest {
        /// Seeds to sweep.
        seeds: u64,
        /// First seed.
        start: u64,
        /// Packets per seed.
        pkts: usize,
    },
    /// Tenant registration (the envelope's `tenant` names it).
    Register(RegisterSpec),
    /// Live server/engine statistics.
    Stats,
    /// Graceful shutdown: stop admission, finish in flight, report.
    Drain,
}

/// A request plus its optional client correlation id and tenant.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Echoed back verbatim on the response.
    pub id: Option<u64>,
    /// The tenant the request runs as (None: the `default` tenant).
    pub tenant: Option<String>,
    /// The operation.
    pub req: Request,
}

/// Typed error kinds a response can carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Bounded queue at capacity; retry later (backpressure, not fault).
    Overloaded,
    /// Malformed, unsupported, over-long or non-UTF-8 request.
    BadRequest,
    /// `nf` does not name a corpus element.
    UnknownNf,
    /// The request's deadline expired before (or while) it ran.
    Deadline,
    /// The server is draining and no longer admits work.
    Draining,
    /// `backend` does not name a device backend the server holds.
    UnknownBackend,
    /// `tenant` does not name a registered tenant.
    UnknownTenant,
    /// The tenant's admission quota is full; the shared queue keeps
    /// serving everyone else (per-tenant backpressure, not a fault).
    QuotaExceeded,
    /// A placement request's ILP instance has no feasible assignment on
    /// the chosen device (`op:"place"` only).
    Infeasible,
    /// The request ran and failed (facade error, degraded engine task).
    Internal,
}

impl ErrorKind {
    /// The wire string for this kind.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::UnknownNf => "unknown_nf",
            ErrorKind::Deadline => "deadline",
            ErrorKind::Draining => "draining",
            ErrorKind::UnknownBackend => "unknown_backend",
            ErrorKind::UnknownTenant => "unknown_tenant",
            ErrorKind::QuotaExceeded => "quota_exceeded",
            ErrorKind::Infeasible => "infeasible",
            ErrorKind::Internal => "internal",
        }
    }
}

// ---- parsing -----------------------------------------------------------

fn get_u64(v: &Value, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Int(i)) if *i >= 0 => Ok(Some(*i as u64)),
        Some(Value::UInt(u)) => Ok(Some(*u)),
        Some(other) => Err(format!(
            "`{key}` must be a non-negative integer, got {}",
            other.kind()
        )),
    }
}

fn get_bool(v: &Value, key: &str) -> Result<Option<bool>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Bool(b)) => Ok(Some(*b)),
        Some(other) => Err(format!("`{key}` must be a boolean, got {}", other.kind())),
    }
}

fn get_str(v: &Value, key: &str) -> Result<Option<String>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Str(s)) if !s.is_empty() => Ok(Some(s.clone())),
        Some(other) => Err(format!(
            "`{key}` must be a non-empty string, got {}",
            other.kind()
        )),
    }
}

fn get_f64(v: &Value, key: &str) -> Result<Option<f64>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Float(f)) if f.is_finite() && *f >= 0.0 => Ok(Some(*f)),
        Some(Value::Int(i)) if *i >= 0 => Ok(Some(*i as f64)),
        Some(Value::UInt(u)) => Ok(Some(*u as f64)),
        Some(other) => Err(format!(
            "`{key}` must be a non-negative number, got {}",
            other.kind()
        )),
    }
}

fn work_spec(v: &Value) -> Result<WorkSpec, String> {
    let nf = match v.get("nf") {
        Some(Value::Str(s)) if !s.is_empty() => s.clone(),
        Some(other) => {
            return Err(format!(
                "`nf` must be a non-empty string, got {}",
                other.kind()
            ))
        }
        None => return Err("missing `nf`".to_string()),
    };
    Ok(WorkSpec {
        nf,
        packets: get_u64(v, "packets")?.unwrap_or(400) as usize,
        seed: get_u64(v, "seed")?.unwrap_or(42),
        small_flows: get_bool(v, "small_flows")?.unwrap_or(false),
        backend: get_str(v, "backend")?,
        precision: get_str(v, "precision")?
            .map(|s| Precision::parse(&s))
            .transpose()?,
    })
}

fn place_request(v: &Value) -> Result<PlacementRequest, String> {
    let nfs: Vec<String> = match v.get("nfs") {
        Some(Value::Seq(items)) if !items.is_empty() => items
            .iter()
            .map(|item| match item {
                Value::Str(s) if !s.is_empty() => Ok(s.clone()),
                other => Err(format!(
                    "`nfs` entries must be non-empty strings, got {}",
                    other.kind()
                )),
            })
            .collect::<Result<_, _>>()?,
        Some(Value::Seq(_)) => return Err("`nfs` must not be empty".to_string()),
        Some(other) => {
            return Err(format!(
                "`nfs` must be an array of strings, got {}",
                other.kind()
            ))
        }
        None => return Err("missing `nfs`".to_string()),
    };
    let mut req = PlacementRequest::new(nfs);
    if let Some(p) = get_u64(v, "packets")? {
        req.packets = p as usize;
    }
    if let Some(s) = get_u64(v, "seed")? {
        req.seed = s;
    }
    if let Some(b) = get_bool(v, "small_flows")? {
        req.small_flows = b;
    }
    req.backend = get_str(v, "backend")?;
    req.precision = get_str(v, "precision")?
        .map(|s| Precision::parse(&s))
        .transpose()?;
    if let Some(o) = get_str(v, "objective")? {
        req.objective = Objective::parse(&o)
            .ok_or_else(|| format!("unknown objective `{o}` (throughput, host-cores)"))?;
    }
    req.replay = get_str(v, "replay")?;
    if let Some(e) = get_u64(v, "epochs")? {
        req.epochs = e as usize;
    }
    if let Some(t) = get_f64(v, "drift_threshold")? {
        req.drift_threshold = t;
    }
    Ok(req)
}

fn register_spec(v: &Value) -> Result<RegisterSpec, String> {
    let nfs: Vec<String> = match v.get("nfs") {
        None | Some(Value::Null) => Vec::new(),
        Some(Value::Seq(items)) => items
            .iter()
            .map(|item| match item {
                Value::Str(s) if !s.is_empty() => Ok(s.clone()),
                other => Err(format!(
                    "`nfs` entries must be non-empty strings, got {}",
                    other.kind()
                )),
            })
            .collect::<Result<_, _>>()?,
        Some(other) => {
            return Err(format!(
                "`nfs` must be an array of strings, got {}",
                other.kind()
            ))
        }
    };
    Ok(RegisterSpec {
        nfs,
        backend: get_str(v, "backend")?,
        precision: get_str(v, "precision")?
            .map(|s| Precision::parse(&s))
            .transpose()?,
        quota: get_u64(v, "quota")?,
    })
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a human-readable description of the first problem found
/// (callers wrap it in a `bad_request` response).
pub fn parse_request(line: &str) -> Result<Envelope, String> {
    let v = serde_json::parse_value(line).map_err(|e| format!("invalid JSON: {e}"))?;
    let version = get_u64(&v, "v")?.ok_or("missing protocol version `v`")?;
    if version != PROTOCOL_VERSION {
        return Err(format!(
            "unsupported protocol version {version} (this server speaks v{PROTOCOL_VERSION})"
        ));
    }
    let id = get_u64(&v, "id")?;
    let tenant = get_str(&v, "tenant")?;
    let req = match v.get("op") {
        Some(Value::Str(op)) => match op.as_str() {
            "predict" => Request::Predict(work_spec(&v)?),
            "analyze" => Request::Analyze(work_spec(&v)?),
            "place" => Request::Place(place_request(&v)?),
            "difftest" => Request::Difftest {
                seeds: get_u64(&v, "seeds")?.unwrap_or(10),
                start: get_u64(&v, "start")?.unwrap_or(0),
                pkts: get_u64(&v, "packets")?.unwrap_or(64) as usize,
            },
            "register" => Request::Register(register_spec(&v)?),
            "stats" => Request::Stats,
            "drain" => Request::Drain,
            other => return Err(format!("unknown op `{other}`")),
        },
        Some(other) => return Err(format!("`op` must be a string, got {}", other.kind())),
        None => return Err("missing `op`".to_string()),
    };
    Ok(Envelope { id, tenant, req })
}

// ---- rendering ---------------------------------------------------------

fn head(id: Option<u64>, ok: bool) -> Vec<(String, Value)> {
    let mut m = vec![("v".to_string(), Value::UInt(PROTOCOL_VERSION))];
    if let Some(id) = id {
        m.push(("id".to_string(), Value::UInt(id)));
    }
    m.push(("ok".to_string(), Value::Bool(ok)));
    m
}

fn finish(m: Vec<(String, Value)>) -> String {
    serde_json::to_string(&Value::Map(m)).expect("value rendering is infallible")
}

/// Renders a request line (the client side of the protocol) for the
/// `default` tenant.
pub fn render_request(id: Option<u64>, req: &Request) -> String {
    render_request_as(id, None, req)
}

/// Renders a request line running as the named tenant (None: `default`).
pub fn render_request_as(id: Option<u64>, tenant: Option<&str>, req: &Request) -> String {
    let mut m = vec![("v".to_string(), Value::UInt(PROTOCOL_VERSION))];
    if let Some(id) = id {
        m.push(("id".to_string(), Value::UInt(id)));
    }
    if let Some(t) = tenant {
        m.push(("tenant".to_string(), Value::Str(t.to_string())));
    }
    let op = |name: &str| ("op".to_string(), Value::Str(name.to_string()));
    match req {
        Request::Predict(w) | Request::Analyze(w) => {
            m.push(op(if matches!(req, Request::Predict(_)) {
                "predict"
            } else {
                "analyze"
            }));
            m.push(("nf".to_string(), Value::Str(w.nf.clone())));
            m.push(("packets".to_string(), Value::UInt(w.packets as u64)));
            m.push(("seed".to_string(), Value::UInt(w.seed)));
            m.push(("small_flows".to_string(), Value::Bool(w.small_flows)));
            if let Some(b) = &w.backend {
                m.push(("backend".to_string(), Value::Str(b.clone())));
            }
            if let Some(p) = w.precision {
                m.push(("precision".to_string(), Value::Str(p.as_str().to_string())));
            }
        }
        Request::Place(r) => {
            m.push(op("place"));
            m.push((
                "nfs".to_string(),
                Value::Seq(r.nfs.iter().map(|n| Value::Str(n.clone())).collect()),
            ));
            m.push(("packets".to_string(), Value::UInt(r.packets as u64)));
            m.push(("seed".to_string(), Value::UInt(r.seed)));
            m.push(("small_flows".to_string(), Value::Bool(r.small_flows)));
            if let Some(b) = &r.backend {
                m.push(("backend".to_string(), Value::Str(b.clone())));
            }
            if let Some(p) = r.precision {
                m.push(("precision".to_string(), Value::Str(p.as_str().to_string())));
            }
            m.push((
                "objective".to_string(),
                Value::Str(r.objective.as_str().to_string()),
            ));
            if let Some(s) = &r.replay {
                m.push(("replay".to_string(), Value::Str(s.clone())));
            }
            m.push(("epochs".to_string(), Value::UInt(r.epochs as u64)));
            m.push((
                "drift_threshold".to_string(),
                Value::Float(r.drift_threshold),
            ));
        }
        Request::Difftest { seeds, start, pkts } => {
            m.push(op("difftest"));
            m.push(("seeds".to_string(), Value::UInt(*seeds)));
            m.push(("start".to_string(), Value::UInt(*start)));
            m.push(("packets".to_string(), Value::UInt(*pkts as u64)));
        }
        Request::Register(r) => {
            m.push(op("register"));
            m.push((
                "nfs".to_string(),
                Value::Seq(r.nfs.iter().map(|n| Value::Str(n.clone())).collect()),
            ));
            if let Some(b) = &r.backend {
                m.push(("backend".to_string(), Value::Str(b.clone())));
            }
            if let Some(p) = r.precision {
                m.push(("precision".to_string(), Value::Str(p.as_str().to_string())));
            }
            if let Some(q) = r.quota {
                m.push(("quota".to_string(), Value::UInt(q)));
            }
        }
        Request::Stats => m.push(op("stats")),
        Request::Drain => m.push(op("drain")),
    }
    finish(m)
}

/// Renders a successful `register` response: the tenant's effective
/// configuration as the server admitted it.
pub fn register_response(
    id: Option<u64>,
    tenant: &str,
    shard: usize,
    quota: usize,
    nfs: &[String],
) -> String {
    let mut m = head(id, true);
    m.push(("op".to_string(), Value::Str("register".to_string())));
    m.push(("tenant".to_string(), Value::Str(tenant.to_string())));
    m.push(("shard".to_string(), Value::UInt(shard as u64)));
    m.push(("quota".to_string(), Value::UInt(quota as u64)));
    m.push((
        "nfs".to_string(),
        Value::Seq(nfs.iter().map(|n| Value::Str(n.clone())).collect()),
    ));
    finish(m)
}

/// Renders a successful `predict` response, tagged with the device
/// backend and inference precision that produced it.
pub fn predict_response(
    id: Option<u64>,
    nf: &str,
    backend: &str,
    precision: Precision,
    p: &Prediction,
) -> String {
    let mut m = head(id, true);
    m.push(("op".to_string(), Value::Str("predict".to_string())));
    m.push(("nf".to_string(), Value::Str(nf.to_string())));
    m.push(("backend".to_string(), Value::Str(backend.to_string())));
    m.push((
        "precision".to_string(),
        Value::Str(precision.as_str().to_string()),
    ));
    m.push((
        "predicted_compute".to_string(),
        Value::Float(p.predicted_compute),
    ));
    m.push((
        "counted_mem".to_string(),
        Value::UInt(u64::from(p.counted_mem)),
    ));
    m.push((
        "suggested_cores".to_string(),
        Value::UInt(u64::from(p.suggested_cores)),
    ));
    m.push((
        "predicted_throughput_mpps".to_string(),
        Value::Float(p.predicted_throughput_mpps),
    ));
    m.push((
        "predicted_latency_us".to_string(),
        Value::Float(p.predicted_latency_us),
    ));
    finish(m)
}

/// Renders a successful `analyze` response (names resolved against the
/// analyzed module), tagged with the device backend and inference
/// precision that produced it.
pub fn analyze_response(
    id: Option<u64>,
    nf: &str,
    backend: &str,
    precision: Precision,
    module: &Module,
    ins: &Insights,
) -> String {
    let gname = |g: nf_ir::GlobalId| {
        Value::Str(
            module
                .global(g)
                .map_or("?", |d| d.name.as_str())
                .to_string(),
        )
    };
    let mut m = head(id, true);
    m.push(("op".to_string(), Value::Str("analyze".to_string())));
    m.push(("nf".to_string(), Value::Str(nf.to_string())));
    m.push(("backend".to_string(), Value::Str(backend.to_string())));
    m.push((
        "precision".to_string(),
        Value::Str(precision.as_str().to_string()),
    ));
    m.push((
        "predicted_compute".to_string(),
        Value::Float(ins.predicted_compute),
    ));
    m.push((
        "counted_mem".to_string(),
        Value::UInt(u64::from(ins.counted_mem)),
    ));
    m.push((
        "mem_count_accuracy".to_string(),
        Value::Float(ins.mem_count_accuracy),
    ));
    m.push((
        "accel".to_string(),
        match &ins.accel {
            None => Value::Null,
            Some((class, region)) => Value::Map(vec![
                ("class".to_string(), Value::Str(class.name().to_string())),
                (
                    "blocks".to_string(),
                    Value::Seq(region.iter().map(|b| Value::UInt(u64::from(b.0))).collect()),
                ),
            ]),
        },
    ));
    m.push((
        "suggested_cores".to_string(),
        Value::UInt(u64::from(ins.suggested_cores)),
    ));
    m.push((
        "placement".to_string(),
        Value::Seq(
            ins.placement
                .iter()
                .map(|(&g, l)| Value::Seq(vec![gname(g), Value::Str(l.name().to_string())]))
                .collect(),
        ),
    ));
    m.push((
        "coalesce".to_string(),
        Value::Seq(
            ins.coalesce
                .clusters
                .iter()
                .map(|cl| Value::Seq(cl.iter().map(|&(g, _)| gname(g)).collect()))
                .collect(),
        ),
    ));
    finish(m)
}

/// Renders a successful `place` response: the full placement plan as
/// deterministic JSON. A pure function of the plan — the byte-identity
/// contract between `clara place` and serve `op:"place"` rests on both
/// calling this.
pub fn place_response(id: Option<u64>, plan: &PlacementPlan) -> String {
    let placement_seq = |pairs: &[(String, String)]| {
        Value::Seq(
            pairs
                .iter()
                .map(|(g, l)| Value::Seq(vec![Value::Str(g.clone()), Value::Str(l.clone())]))
                .collect(),
        )
    };
    let mut m = head(id, true);
    m.push(("op".to_string(), Value::Str("place".to_string())));
    m.push(("backend".to_string(), Value::Str(plan.backend.clone())));
    m.push((
        "precision".to_string(),
        Value::Str(plan.precision.as_str().to_string()),
    ));
    m.push((
        "objective".to_string(),
        Value::Str(plan.objective.as_str().to_string()),
    ));
    m.push((
        "nfs".to_string(),
        Value::Seq(
            plan.nfs
                .iter()
                .map(|nf| {
                    let mut e = vec![
                        ("nf".to_string(), Value::Str(nf.nf.clone())),
                        ("placement".to_string(), placement_seq(&nf.named_placement)),
                        ("cost".to_string(), Value::Float(nf.solve.cost)),
                        ("objective".to_string(), Value::Float(nf.solve.objective)),
                    ];
                    match (&nf.solve.greedy, &nf.named_greedy_placement) {
                        (Some(g), Some(named)) => {
                            e.push((
                                "greedy".to_string(),
                                Value::Map(vec![
                                    ("placement".to_string(), placement_seq(named)),
                                    ("cost".to_string(), Value::Float(g.cost)),
                                    ("objective".to_string(), Value::Float(g.objective)),
                                ]),
                            ));
                        }
                        _ => e.push(("greedy".to_string(), Value::Null)),
                    }
                    e.push(("delta".to_string(), Value::Float(nf.solve.delta())));
                    e.push((
                        "suggested_cores".to_string(),
                        Value::UInt(u64::from(nf.suggested_cores)),
                    ));
                    e.push((
                        "throughput_mpps".to_string(),
                        Value::Float(nf.throughput_mpps),
                    ));
                    e.push(("latency_us".to_string(), Value::Float(nf.latency_us)));
                    Value::Map(e)
                })
                .collect(),
        ),
    ));
    m.push((
        "split".to_string(),
        Value::Map(vec![
            (
                "nic_stages".to_string(),
                Value::UInt(plan.split.nic_stages as u64),
            ),
            (
                "total_stages".to_string(),
                Value::UInt(plan.split.total_stages as u64),
            ),
            (
                "throughput_mpps".to_string(),
                Value::Float(plan.split.throughput_mpps),
            ),
            (
                "latency_us".to_string(),
                Value::Float(plan.split.latency_us),
            ),
            (
                "host_cores_needed".to_string(),
                Value::UInt(u64::from(plan.split.host_cores_needed)),
            ),
        ]),
    ));
    m.push((
        "total_objective".to_string(),
        Value::Float(plan.total_objective),
    ));
    m.push((
        "greedy_total_objective".to_string(),
        Value::Float(plan.greedy_total_objective),
    ));
    m.push((
        "replay".to_string(),
        match &plan.replay {
            None => Value::Null,
            Some(r) => Value::Map(vec![
                ("schedule".to_string(), Value::Str(r.schedule.clone())),
                (
                    "drift_threshold".to_string(),
                    Value::Float(r.drift_threshold),
                ),
                ("resolves".to_string(), Value::UInt(r.resolves)),
                (
                    "migrated_globals".to_string(),
                    Value::UInt(r.migrated_globals),
                ),
                (
                    "migration_bytes".to_string(),
                    Value::UInt(r.migration_bytes),
                ),
                ("predicted_gain".to_string(), Value::Float(r.predicted_gain)),
                (
                    "epochs".to_string(),
                    Value::Seq(
                        r.epochs
                            .iter()
                            .map(|ep| {
                                Value::Map(vec![
                                    ("epoch".to_string(), Value::UInt(ep.epoch as u64)),
                                    ("workload".to_string(), Value::Str(ep.workload.clone())),
                                    ("drift".to_string(), Value::Float(ep.drift)),
                                    ("resolved".to_string(), Value::Bool(ep.resolved)),
                                    (
                                        "migrated_globals".to_string(),
                                        Value::UInt(ep.migrated_globals),
                                    ),
                                    (
                                        "migration_bytes".to_string(),
                                        Value::UInt(ep.migration_bytes),
                                    ),
                                    (
                                        "predicted_gain".to_string(),
                                        Value::Float(ep.predicted_gain),
                                    ),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        },
    ));
    finish(m)
}

/// Renders a successful `difftest` response.
pub fn difftest_response(
    id: Option<u64>,
    checked: u64,
    divergent: u64,
    engine_failures: u64,
) -> String {
    let mut m = head(id, true);
    m.push(("op".to_string(), Value::Str("difftest".to_string())));
    m.push(("checked".to_string(), Value::UInt(checked)));
    m.push(("divergent".to_string(), Value::UInt(divergent)));
    m.push(("engine_failures".to_string(), Value::UInt(engine_failures)));
    finish(m)
}

/// Renders a successful `stats` response from pre-assembled fields.
pub fn stats_response(id: Option<u64>, fields: Vec<(String, Value)>) -> String {
    let mut m = head(id, true);
    m.push(("op".to_string(), Value::Str("stats".to_string())));
    m.extend(fields);
    finish(m)
}

/// Renders the final `drain` response: total requests served plus the
/// deterministic run report (as an embedded JSON object).
pub fn drain_response(id: Option<u64>, served: u64, report: Value) -> String {
    let mut m = head(id, true);
    m.push(("op".to_string(), Value::Str("drain".to_string())));
    m.push(("served".to_string(), Value::UInt(served)));
    m.push(("report".to_string(), report));
    finish(m)
}

/// Renders a typed error response.
pub fn error_response(id: Option<u64>, kind: ErrorKind, detail: &str) -> String {
    let mut m = head(id, false);
    m.push(("error".to_string(), Value::Str(kind.as_str().to_string())));
    m.push(("detail".to_string(), Value::Str(detail.to_string())));
    finish(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips_through_render_and_parse() {
        let reqs = [
            Request::Predict(WorkSpec {
                nf: "cmsketch".into(),
                packets: 400,
                seed: 7,
                small_flows: false,
                backend: None,
                precision: None,
            }),
            Request::Analyze(WorkSpec {
                nf: "iplookup".into(),
                packets: 100,
                seed: 1,
                small_flows: true,
                backend: Some("dpu-offpath".into()),
                precision: Some(Precision::Q16),
            }),
            Request::Difftest {
                seeds: 20,
                start: 5,
                pkts: 64,
            },
            Request::Place(PlacementRequest::new(["firewall", "nat"])),
            Request::Place(
                PlacementRequest::builder(["nat"])
                    .packets(200)
                    .seed(9)
                    .small_flows(true)
                    .backend("dpu-offpath")
                    .precision(Precision::Q16)
                    .objective(Objective::Throughput)
                    .replay("shift")
                    .epochs(6)
                    .drift_threshold(0.25)
                    .build(),
            ),
            Request::Stats,
            Request::Drain,
        ];
        for (i, req) in reqs.into_iter().enumerate() {
            let line = render_request(Some(i as u64), &req);
            let env = parse_request(&line).expect("round trip parses");
            assert_eq!(env.id, Some(i as u64));
            assert_eq!(env.req, req);
        }
    }

    #[test]
    fn parse_defaults_and_rejections() {
        let env = parse_request(r#"{"v":1,"op":"predict","nf":"lb"}"#).expect("minimal predict");
        assert_eq!(
            env.req,
            Request::Predict(WorkSpec {
                nf: "lb".into(),
                packets: 400,
                seed: 42,
                small_flows: false,
                backend: None,
                precision: None,
            })
        );
        assert_eq!(env.id, None);
        assert!(
            parse_request(r#"{"v":1,"op":"predict","nf":"x","backend":7}"#)
                .unwrap_err()
                .contains("`backend`")
        );
        let env = parse_request(r#"{"v":1,"op":"predict","nf":"lb","precision":"q16"}"#)
            .expect("explicit precision parses");
        match env.req {
            Request::Predict(w) => assert_eq!(w.precision, Some(Precision::Q16)),
            other => panic!("unexpected request {other:?}"),
        }
        assert!(
            parse_request(r#"{"v":1,"op":"predict","nf":"lb","precision":"fp8"}"#)
                .unwrap_err()
                .contains("unknown precision")
        );
        assert!(parse_request("not json")
            .unwrap_err()
            .contains("invalid JSON"));
        assert!(parse_request(r#"{"op":"stats"}"#)
            .unwrap_err()
            .contains("version"));
        assert!(parse_request(r#"{"v":2,"op":"stats"}"#)
            .unwrap_err()
            .contains("unsupported protocol version"));
        assert!(parse_request(r#"{"v":1,"op":"frobnicate"}"#)
            .unwrap_err()
            .contains("unknown op"));
        assert!(parse_request(r#"{"v":1,"op":"predict"}"#)
            .unwrap_err()
            .contains("missing `nf`"));
        assert!(
            parse_request(r#"{"v":1,"op":"predict","nf":"x","packets":"many"}"#)
                .unwrap_err()
                .contains("`packets`")
        );
    }

    #[test]
    fn place_requests_parse_with_defaults_and_reject_bad_nfs() {
        let env = parse_request(r#"{"v":1,"op":"place","nfs":["firewall","mazunat"]}"#)
            .expect("minimal place");
        match env.req {
            Request::Place(r) => {
                assert_eq!(r, PlacementRequest::new(["firewall", "mazunat"]));
            }
            other => panic!("unexpected request {other:?}"),
        }
        assert!(parse_request(r#"{"v":1,"op":"place"}"#)
            .unwrap_err()
            .contains("`nfs`"));
        assert!(parse_request(r#"{"v":1,"op":"place","nfs":[]}"#)
            .unwrap_err()
            .contains("`nfs`"));
        assert!(parse_request(r#"{"v":1,"op":"place","nfs":["nat",7]}"#)
            .unwrap_err()
            .contains("`nfs`"));
        assert!(
            parse_request(r#"{"v":1,"op":"place","nfs":["mazunat"],"objective":"speed"}"#)
                .unwrap_err()
                .contains("unknown objective")
        );
        assert!(
            parse_request(r#"{"v":1,"op":"place","nfs":["mazunat"],"drift_threshold":-1}"#)
                .unwrap_err()
                .contains("drift_threshold")
        );
    }

    #[test]
    fn tenant_and_register_round_trip() {
        let reqs = [
            Request::Register(RegisterSpec {
                nfs: vec!["cmsketch".into(), "nat".into()],
                backend: Some("dpu-offpath".into()),
                precision: Some(Precision::Q16),
                quota: Some(8),
            }),
            Request::Register(RegisterSpec::default()),
            Request::Predict(WorkSpec {
                nf: "cmsketch".into(),
                packets: 400,
                seed: 42,
                small_flows: false,
                backend: None,
                precision: None,
            }),
        ];
        for (i, req) in reqs.into_iter().enumerate() {
            let line = render_request_as(Some(i as u64), Some("team-a"), &req);
            let env = parse_request(&line).expect("round trip parses");
            assert_eq!(env.tenant.as_deref(), Some("team-a"));
            assert_eq!(env.req, req);
        }
        // Tenantless lines resolve to no tenant (the server's `default`).
        let env = parse_request(r#"{"v":1,"op":"stats"}"#).expect("parses");
        assert_eq!(env.tenant, None);
        assert!(
            parse_request(r#"{"v":1,"op":"predict","nf":"x","tenant":7}"#)
                .unwrap_err()
                .contains("`tenant`")
        );
        assert!(
            parse_request(r#"{"v":1,"op":"register","tenant":"a","nfs":"x"}"#)
                .unwrap_err()
                .contains("`nfs`")
        );
        assert!(
            parse_request(r#"{"v":1,"op":"register","tenant":"a","quota":"big"}"#)
                .unwrap_err()
                .contains("`quota`")
        );
    }

    #[test]
    fn tenancy_error_kinds_have_wire_strings() {
        for (kind, wire) in [
            (ErrorKind::UnknownTenant, "unknown_tenant"),
            (ErrorKind::QuotaExceeded, "quota_exceeded"),
        ] {
            let line = error_response(None, kind, "detail");
            let v = serde_json::parse_value(&line).expect("valid JSON");
            assert_eq!(v.get("error"), Some(&serde::Value::Str(wire.to_string())));
        }
    }

    #[test]
    fn infeasible_is_part_of_the_error_kind_set() {
        let line = error_response(None, ErrorKind::Infeasible, "state exceeds NIC memory");
        let v = serde_json::parse_value(&line).expect("valid JSON");
        assert_eq!(
            v.get("error"),
            Some(&serde::Value::Str("infeasible".to_string()))
        );
    }

    #[test]
    fn error_responses_carry_the_typed_kind() {
        let line = error_response(Some(3), ErrorKind::Overloaded, "queue at capacity (8)");
        let v = serde_json::parse_value(&line).expect("valid JSON");
        assert_eq!(v.get("ok"), Some(&serde::Value::Bool(false)));
        assert_eq!(
            v.get("error"),
            Some(&serde::Value::Str("overloaded".to_string()))
        );
    }
}
