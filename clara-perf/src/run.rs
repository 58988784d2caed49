//! The end-to-end runs (`--trace 0`): set up, measure one window, check.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Stdio;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use clara_repro::clara::{engine, Clara, ClaraConfig};
use clara_repro::serve::protocol::render_request;
use clara_repro::serve::Request;
use serde::Value;

use crate::check::{self, Reference};
use crate::gen;
use crate::loadgen::{self, Tally};
use crate::net::{self, Conn, Daemon};
use crate::stats;
use crate::{metric, Ctx, Metric, Outcome, Workload};

/// Seed of the model every run trains. Fixed, so that model size, load
/// time and training cost do not vary with `--seed`, which varies every
/// request stream and one-shot input instead.
pub const MODEL_SEED: u64 = 1;

/// Cold daemon starts per run; `setup_s` is their median.
pub const COLD_STARTS: usize = 9;

/// Trainings in the offline workload's set-up; `setup_s` is their median.
pub const OFFLINE_TRAININGS: usize = 3;

/// Length of a serve workload's sub-windows. Each opens fresh
/// connections, so the daemon spawns fresh connection threads and the
/// scheduler places client and daemon threads on the CPUs afresh. One
/// placement can run the hot path at half the speed of another, so a
/// window holds many short placements (60 in 15 s) and its metrics pool
/// them all.
pub const SUB_WINDOW: Duration = Duration::from_millis(250);

/// The daemon's peak RSS is read once this many requests have been sent
/// (hot workloads; drift and plan), so it reflects the same amount of
/// work on a faster and a slower commit: the daemon's telemetry grows
/// with every request served. A window too short to reach it reads at
/// its end.
const RSS_AT_HOT: u64 = 100_000;
const RSS_AT_HEAVY: u64 = 2_000;

/// Runs one workload's end-to-end measurement.
pub fn run(ctx: &Ctx, w: Workload) -> Result<Outcome, String> {
    match w {
        Workload::HotTcp => hot(ctx, false),
        Workload::HotUds => hot(ctx, true),
        Workload::Drift => drift(ctx),
        Workload::Plan => plan(ctx),
        Workload::Offline => offline(ctx),
    }
}

/// One client thread's connection and buffers.
pub struct Client {
    /// The connection.
    pub conn: Conn,
    /// The last reply.
    pub resp: String,
    /// Replies kept for checking after the window.
    pub kept: Vec<(u64, String)>,
}

impl Client {
    fn new(conn: Conn) -> Client {
        Client {
            conn,
            resp: String::with_capacity(4096),
            kept: Vec::new(),
        }
    }

    /// Sends `line`; true when the reply is an `ok` response to `op`.
    pub fn ok(&mut self, line: &str, op: &str) -> bool {
        self.conn.call(line, &mut self.resp).is_ok() && is_ok_reply(&self.resp, op)
    }
}

/// Whether `resp` is a successful reply to `op` (requests carry no id).
fn is_ok_reply(resp: &str, op: &str) -> bool {
    resp.strip_prefix(r#"{"v":1,"ok":true,"op":""#)
        .and_then(|r| r.strip_prefix(op))
        .is_some_and(|r| r.starts_with('"'))
}

/// Trains the model (untimed on the serve workloads), saves it where the
/// daemon will load it, and loads it back as the in-process reference.
pub fn model(ctx: &Ctx) -> Result<(PathBuf, Reference), String> {
    let clara = Clara::train(&ClaraConfig::full(MODEL_SEED)).map_err(|e| e.to_string())?;
    let path = ctx.tmp.join("model.json");
    clara.save(&path).map_err(|e| e.to_string())?;
    let loaded = Clara::load(&path).map_err(|e| e.to_string())?;
    Ok((path, Reference::new(loaded)))
}

/// Starts the daemon [`COLD_STARTS`] times and keeps the last one;
/// returns it with the median cold-start time.
pub fn cold_start(
    ctx: &Ctx,
    model: &Path,
    all_backends: bool,
    uds: bool,
) -> Result<(Daemon, f64), String> {
    let sock = uds.then(|| ctx.tmp.join("serve.sock"));
    let mut times = Vec::with_capacity(COLD_STARTS);
    loop {
        let (d, t) = Daemon::start(&ctx.bin, model, all_backends, sock.as_deref())?;
        times.push(t);
        if times.len() == COLD_STARTS {
            return Ok((d, stats::median(&times)));
        }
        d.drain()?;
    }
}

/// Opens one client per connection slot.
pub fn clients(ctx: &Ctx, d: &Daemon, uds: bool) -> Result<Vec<Client>, String> {
    (0..ctx.conns)
        .map(|_| d.connect(uds).map(Client::new))
        .collect()
}

/// An unsigned field of a JSON object (0 when absent).
pub fn counter(obj: Option<&Value>, name: &str) -> u64 {
    match obj.and_then(|o| o.get(name)) {
        Some(Value::UInt(u)) => *u,
        Some(Value::Int(i)) => u64::try_from(*i).unwrap_or(0),
        _ => 0,
    }
}

/// Nearest-rank percentile of unsorted samples (0 for none).
pub fn pct(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    stats::percentile(&stats::sorted(samples), p)
}

/// The peak-RSS reading taken at the fixed request count.
struct RssProbe {
    pid: u32,
    at: u64,
    mb: OnceLock<Result<f64, String>>,
}

impl RssProbe {
    fn new(d: &Daemon, at: u64) -> RssProbe {
        RssProbe {
            pid: d.pid(),
            at,
            mb: OnceLock::new(),
        }
    }

    fn observe(&self, i: u64) {
        if i == self.at {
            let _ = self.mb.set(net::peak_rss_mb(self.pid));
        }
    }

    fn read(self) -> Result<f64, String> {
        self.mb
            .into_inner()
            .unwrap_or_else(|| net::peak_rss_mb(self.pid))
    }
}

/// A closed-loop window run as back-to-back [`SUB_WINDOW`]s, each on
/// fresh connections; request indices run on across them. Returns the
/// pooled tally and the replies `send` kept for checking.
fn measure(
    ctx: &Ctx,
    d: &Daemon,
    uds: bool,
    send: impl Fn(&mut Client, u64) -> bool + Sync,
) -> Result<(Tally, Vec<(u64, String)>), String> {
    let n = (ctx.window.as_secs_f64() / SUB_WINDOW.as_secs_f64())
        .round()
        .max(1.0) as u32;
    let mut total = Tally::default();
    let mut kept = Vec::new();
    for _ in 0..n {
        let mut cs = clients(ctx, d, uds)?;
        let t = loadgen::closed_loop(&mut cs, ctx.window / n, total.attempted, &send);
        kept.extend(cs.iter_mut().flat_map(|c| c.kept.drain(..)));
        total.absorb(t);
    }
    Ok((total, kept))
}

/// The tail percentile reported as `p95_us`. Every workload's window
/// leaves at least ten samples beyond it; `offline`'s few hundred
/// one-shots leave only three to five beyond a 99th percentile, which
/// then reads one slow process.
pub const TAIL: f64 = 95.0;

/// A run's end-to-end metrics: set-up time, the whole window's `p50_us`,
/// `p95_us` and `rps`, and peak RSS.
fn serve_metrics(setup_s: f64, window: &Tally, rss_mb: f64) -> Vec<Metric> {
    let sorted = stats::sorted(&window.lat_us);
    vec![
        metric("setup_s", setup_s, "s"),
        metric("p50_us", stats::percentile(&sorted, 50.0), "us"),
        metric("p95_us", stats::percentile(&sorted, TAIL), "us"),
        metric("rps", window.rps(), "req/s"),
        metric("rss_mb", rss_mb, "MB"),
    ]
}

/// `hot-tcp` / `hot-uds`: prediction-cache hits, byte-compared with the
/// in-process rendering of each key.
fn hot(ctx: &Ctx, uds: bool) -> Result<Outcome, String> {
    let (model, reference) = model(ctx)?;
    let reqs: Vec<Request> = gen::hot_keys(ctx.seed, &ctx.names)
        .into_iter()
        .map(Request::Predict)
        .collect();
    let lines: Vec<String> = reqs.iter().map(|r| render_request(None, r)).collect();
    let expected: Vec<String> = reqs
        .iter()
        .map(|r| reference.response(r))
        .collect::<Result<_, _>>()?;
    let (daemon, setup_s) = cold_start(ctx, &model, false, uds)?;
    let mut out = Outcome::default();
    let mut warm = daemon.connect(uds).map(Client::new)?;
    for (line, want) in lines.iter().zip(&expected) {
        if warm.conn.call(line, &mut warm.resp).is_err() || warm.resp != *want {
            out.fail(format!("warm-up {line} -> {}", warm.resp));
        }
    }
    drop(warm);
    let probe = RssProbe::new(&daemon, RSS_AT_HOT);
    let n = lines.len() as u64;
    let (win, _) = measure(ctx, &daemon, uds, |c, i| {
        probe.observe(i);
        let j = (i % n) as usize;
        c.conn.call(&lines[j], &mut c.resp).is_ok() && c.resp == expected[j]
    })?;
    let rss = probe.read()?;
    let drain = daemon.drain()?;
    out.attempted = win.attempted;
    if win.failed > 0 {
        out.failed += win.failed;
        out.problems
            .push(format!("{} hot responses failed or differed", win.failed));
    }
    out.metrics = serve_metrics(setup_s, &win, rss);
    out.samples = win.lat_us.len();
    let hits = counter(Some(&drain), "serve.cache.predict_hits");
    let misses = counter(Some(&drain), "serve.cache.predict_misses");
    if misses != n || hits != out.attempted {
        out.fail(format!("cache: {hits} hits / {misses} misses for {n} keys"));
    }
    out.counts = vec![("serve.cache.predict_misses".into(), misses)];
    Ok(out)
}

/// `drift`: every measured request a trace-dependent miss; a seeded one
/// in ten re-derived in-process afterwards.
fn drift(ctx: &Ctx) -> Result<Outcome, String> {
    let (model, reference) = model(ctx)?;
    let (daemon, setup_s) = cold_start(ctx, &model, true, false)?;
    let mut out = Outcome::default();
    let mut warm = daemon.connect(false).map(Client::new)?;
    for spec in gen::drift_warmup(ctx.seed, &ctx.names, &ctx.backends) {
        let line = render_request(None, &Request::Predict(spec));
        if !warm.ok(&line, "predict") {
            out.fail(format!("warm-up {line} -> {}", warm.resp));
        }
    }
    drop(warm);
    let before = daemon.stats()?;
    let probe = RssProbe::new(&daemon, RSS_AT_HEAVY);
    let spec = |i| Request::Predict(gen::drift_spec(ctx.seed, i, &ctx.names, &ctx.backends));
    let (win, kept) = measure(ctx, &daemon, false, |c, i| {
        probe.observe(i);
        let ok = c.ok(&render_request(None, &spec(i)), "predict");
        if check::sampled(ctx.seed, i) {
            c.kept.push((i, c.resp.clone()));
        }
        ok
    })?;
    let rss = probe.read()?;
    let after = daemon.stats()?;
    let drain = daemon.drain()?;
    out.attempted = win.attempted;
    out.failed += win.failed;
    out.metrics = serve_metrics(setup_s, &win, rss);
    out.samples = win.lat_us.len();
    let delta = |k| counter(Some(&after), k) - counter(Some(&before), k);
    let (profile_hits, profile_misses) = (delta("profile_hits"), delta("profile_misses"));
    if profile_hits != 0 || profile_misses != out.attempted {
        out.fail(format!(
            "{profile_hits} profile hits / {profile_misses} misses over {} drift requests",
            out.attempted
        ));
    }
    let hits = counter(Some(&drain), "serve.cache.predict_hits");
    if hits != 0 {
        out.fail(format!("{hits} drift requests hit the prediction cache"));
    }
    out.counts.push(("serve.cache.predict_hits".into(), hits));
    record_audit(
        &mut out,
        check::audit(&kept, |i| reference.response(&spec(i))),
    );
    Ok(out)
}

fn record_audit(out: &mut Outcome, audit: check::Audit) {
    out.counts.push(("audited".into(), audit.checked));
    if audit.mismatched > 0 {
        out.failed += audit.mismatched;
        out.problems.push(format!(
            "{} of {} audited responses differ; first: {}",
            audit.mismatched,
            audit.checked,
            audit.first.unwrap_or_default()
        ));
    }
}

/// The plan stream's request `k`.
pub fn plan_req(ctx: &Ctx, k: u64) -> Request {
    gen::plan_request(ctx.seed, k, &ctx.names, &ctx.backends)
}

/// The reply `op` a plan request must carry.
pub fn op_of(req: &Request) -> &'static str {
    match req {
        Request::Analyze(_) => "analyze",
        Request::Place(_) => "place",
        _ => "predict",
    }
}

/// Warm-up for the plan workload: one analyze per NF, so the first
/// measured requests do not pay the daemon's first compiles.
pub fn plan_warmup(ctx: &Ctx, c: &mut Client, out: &mut Outcome) {
    for (j, nf) in ctx.names.iter().enumerate() {
        let mut w = gen::drift_fresh(ctx.seed, j as u64, &ctx.names, &ctx.backends);
        w.nf = (*nf).to_string();
        let line = render_request(None, &Request::Analyze(w));
        if !c.ok(&line, "analyze") {
            out.fail(format!("warm-up {line} -> {}", c.resp));
        }
    }
}

/// `plan`: analyze and placement requests over UDS; a seeded one in ten
/// re-derived in-process afterwards.
fn plan(ctx: &Ctx) -> Result<Outcome, String> {
    let (model, reference) = model(ctx)?;
    let (daemon, setup_s) = cold_start(ctx, &model, true, true)?;
    let mut out = Outcome::default();
    let mut warm = daemon.connect(true).map(Client::new)?;
    plan_warmup(ctx, &mut warm, &mut out);
    drop(warm);
    let probe = RssProbe::new(&daemon, RSS_AT_HEAVY);
    let (win, kept) = measure(ctx, &daemon, true, |c, k| {
        probe.observe(k);
        let req = plan_req(ctx, k);
        let ok = c.ok(&render_request(None, &req), op_of(&req));
        if check::sampled(ctx.seed, k) {
            c.kept.push((k, c.resp.clone()));
        }
        ok
    })?;
    let rss = probe.read()?;
    daemon.drain()?;
    out.attempted = win.attempted;
    out.failed += win.failed;
    out.metrics = serve_metrics(setup_s, &win, rss);
    out.samples = win.lat_us.len();
    record_audit(
        &mut out,
        check::audit(&kept, |k| reference.response(&plan_req(ctx, k))),
    );
    Ok(out)
}

/// Trains the full pipeline `n` times with the engine caches cleared
/// before each; returns the wall times and each model's saved bytes.
pub fn trainings(ctx: &Ctx, n: usize) -> Result<(Vec<f64>, Vec<Vec<u8>>), String> {
    let mut times = Vec::with_capacity(n);
    let mut saved = Vec::with_capacity(n);
    for j in 0..n {
        engine::Engine::new().clear_caches();
        let t0 = Instant::now();
        let clara = Clara::train(&ClaraConfig::full(MODEL_SEED)).map_err(|e| e.to_string())?;
        times.push(t0.elapsed().as_secs_f64());
        let path = ctx.tmp.join(format!("model-{j}.json"));
        clara.save(&path).map_err(|e| e.to_string())?;
        saved.push(std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?);
    }
    Ok((times, saved))
}

/// One one-shot `clara analyze` process; returns its stdout when it
/// exits successfully.
pub fn oneshot(ctx: &Ctx, model: &Path, nf_index: usize) -> Result<String, String> {
    let nf = ctx.names[nf_index];
    let out = net::clara_command(&ctx.bin)
        .args(["analyze", nf, "--model"])
        .arg(model)
        .args(["--packets", &gen::PACKETS.to_string()])
        .args(["--seed", &gen::oneshot_seed(ctx.seed, nf_index).to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .map_err(|e| format!("clara analyze {nf}: {e}"))?;
    if !out.status.success() {
        return Err(format!("clara analyze {nf}: {}", out.status));
    }
    String::from_utf8(out.stdout).map_err(|e| format!("clara analyze {nf}: {e}"))
}

/// `offline`: set-up is training (timed, identical models required); the
/// window runs one-shot CLI analyses in a seeded order, one per client
/// thread at a time, and each NF's outputs must be identical.
fn offline(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (times, saved) = trainings(ctx, OFFLINE_TRAININGS)?;
    let rss = net::peak_rss_mb(std::process::id())?;
    for (j, s) in saved.iter().enumerate().skip(1) {
        if *s != saved[0] {
            out.fail(format!(
                "training {j} saved a different model than training 0"
            ));
        }
    }
    let model = ctx.tmp.join("model-0.json");
    let mut runs: Vec<Vec<(usize, String)>> = vec![Vec::new(); ctx.conns];
    let tally = loadgen::closed_loop(&mut runs, ctx.window, 0, |mine, i| {
        let nf = gen::oneshot_nf(ctx.seed, i, ctx.names.len());
        match oneshot(ctx, &model, nf) {
            Ok(text) => {
                mine.push((nf, text));
                true
            }
            Err(_) => false,
        }
    });
    let mut outputs: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    for (nf, text) in runs.into_iter().flatten() {
        outputs.entry(nf).or_default().push(text);
    }
    for (nf, texts) in &outputs {
        if texts.iter().any(|t| *t != texts[0]) {
            out.fail(format!(
                "one-shot outputs for `{}` differ between runs",
                ctx.names[*nf]
            ));
        }
    }
    out.attempted = tally.attempted + times.len() as u64;
    out.failed += tally.failed;
    out.metrics = serve_metrics(stats::median(&times), &tally, rss);
    out.samples = tally.lat_us.len();
    out.counts = vec![("offline.model_bytes".into(), saved[0].len() as u64)];
    Ok(out)
}
