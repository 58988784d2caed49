//! The traced run (`--trace 1`): per-layer metrics.
//!
//! Spans are recorded here, around calls into each layer's public
//! functions, never inside the program. A run has four phases:
//!
//! 1. **Training, stage by stage**: the exact calls `Clara::train` makes,
//!    one after another, then `Clara::train` itself. The stage-by-stage
//!    model must save byte-identical to the trained one; it is the model
//!    the daemon serves.
//! 2. **End-to-end slice**: the first tenth of the workload's window
//!    against the daemon (one-shot processes for `offline`), for the
//!    client-side round trip and the daemon's own counters.
//! 3. **In-process replay** of that slice's first requests through the
//!    layers the daemon calls, each reply compared with the served one.
//!    The served round trip minus the in-process service time is the
//!    transport, queueing and process overhead.
//! 4. **Layer sweep**, the same on every workload: the drift miss path
//!    rebuilt stage by stage next to whole predictions, the interpreter,
//!    the vendor compiler, IR verification, predictor inference at both
//!    precisions, the placement ILP, and analyze/place/replay planning.

use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

use clara_repro::clara::algid::{self, AlgoIdentifier, ClassifierKind};
use clara_repro::clara::placement::plan::{solve_nf, DEFAULT_NODE_BUDGET};
use clara_repro::clara::predict::{self, InstructionPredictor, PredictTrainConfig, PredictorKind};
use clara_repro::clara::scaleout::{self, ScaleoutKind, ScaleoutModel};
use clara_repro::clara::{engine, Clara, ClaraConfig, Precision, Prediction};
use clara_repro::hal::Backend as _;
use clara_repro::nicsim::{self, NicConfig, PortConfig};
use clara_repro::obs;
use clara_repro::serve::protocol::{self, render_request};
use clara_repro::serve::{transport, Request, WorkSpec};
use serde::Value;

use crate::check::Reference;
use crate::gen::{self, PlanKind};
use crate::loadgen;
use crate::net::Daemon;
use crate::run::{self, Client};
use crate::stats;
use crate::{metric, number, Ctx, Metric, Outcome, Workload};

/// Most slice requests replayed in-process (and compared) per run.
const REPLAY_CAP: u64 = 400;

/// Fresh drift requests the miss path is rebuilt on.
const MISS_SAMPLES: u64 = 150;

/// Plan requests of each class the sweep times.
const PLAN_SAMPLES: usize = 15;

/// The stages a served miss runs inside the prediction call, in order.
const MISS_STAGES: [&str; 5] = [
    "core.fingerprint_module",
    "core.fingerprint_trace",
    "nicsim.profile",
    "ml.scaleout_infer",
    "nicsim.solve_perf",
];

/// Repetitions of the model load and predictor fingerprint.
const LOAD_REPS: usize = 3;

/// One span: a layer call made by the benchmark.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call.
    pub name: &'static str,
    /// Start, in ns since the run's origin.
    pub start_ns: u64,
    /// End, in ns since the run's origin.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request the span served, when it served one.
    pub req: Option<u64>,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder for one thread; nesting follows call order.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str, req: Option<u64>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    fn end(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close in nesting order");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    fn time<R>(&mut self, name: &'static str, req: Option<u64>, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, req);
        let r = f();
        self.end(id);
        r
    }

    /// Durations of every span called `name`, in µs.
    fn us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// Median duration of the spans called `name`, in µs (0 for none).
    fn median_us(&self, name: &str) -> f64 {
        let v = self.us(name);
        if v.is_empty() {
            0.0
        } else {
            stats::median(&v)
        }
    }
}

/// Each span's self time: its duration minus the part of it its
/// children cover (children of one span never overlap: one thread).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Share of the whole not explained by its measured stages, in percent.
pub fn unexplained_pct(whole: f64, stages: &[f64]) -> f64 {
    (1.0 - stages.iter().sum::<f64>() / whole) * 100.0
}

/// Runs the traced replay for workload `w`.
pub fn run(ctx: &Ctx, w: Workload) -> Result<Outcome, String> {
    let mut t = Tracer::new();
    let mut out = Outcome::default();
    let mut m = Vec::new();
    let model = train_stages(ctx, &mut t, &mut out, &mut m)?;
    // The daemon always records telemetry; the in-process replays do too.
    obs::enable();

    let loads: Vec<f64> = (0..LOAD_REPS)
        .map(|_| {
            let t0 = Instant::now();
            Clara::load(&model).map(|_| t0.elapsed().as_secs_f64() * 1e3)
        })
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    m.push(metric("core.load_ms", stats::median(&loads), "ms"));
    let reference = Reference::new(Clara::load(&model).map_err(|e| e.to_string())?);
    let fps: Vec<f64> = (0..LOAD_REPS)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(reference.clara.predictor_fingerprint());
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    m.push(metric("core.predictor_fp_ms", stats::median(&fps), "ms"));

    let slice = slice(ctx, w, &model, &reference, &mut t, &mut out)?;
    m.push(metric("serve.parse_us", t.median_us("serve.parse"), "us"));
    m.push(metric("serve.render_us", t.median_us("serve.render"), "us"));
    m.push(metric("serve.frame_us", slice.frame_us, "us"));
    m.push(metric("serve.overhead_us", slice.overhead_us, "us"));
    m.push(metric(
        "serve.cache_hit_ratio",
        slice.cache_hit_ratio,
        "ratio",
    ));
    m.push(metric("loadgen.gap_p99_us", slice.gap_p99_us, "us"));

    sweep(ctx, &reference, &mut t, &mut out, &mut m)?;
    out.metrics = m;
    out.spans = t.spans;
    Ok(out)
}

/// Phase 1: trains stage by stage (the calls `Clara::train(full(seed))`
/// makes), then whole. Returns the path of the saved stage-by-stage
/// model.
fn train_stages(
    ctx: &Ctx,
    t: &mut Tracer,
    out: &mut Outcome,
    m: &mut Vec<Metric>,
) -> Result<std::path::PathBuf, String> {
    let cfg = ClaraConfig::full(run::MODEL_SEED);
    let seed = run::MODEL_SEED;
    let nic = NicConfig::default();
    engine::Engine::new().clear_caches();
    let modules = t.time("synth.corpus", None, || {
        clara_repro::synth::synth_corpus(cfg.predict_programs, true, seed)
    });
    let samples = t.time("core.block_samples", None, || {
        predict::block_samples(&modules)
    });
    drop(modules);
    let predictor = t.time("ml.lstm_train", None, || {
        InstructionPredictor::train(
            PredictorKind::ClaraLstm,
            &samples,
            &PredictTrainConfig {
                epochs: cfg.epochs,
                seed,
                ..Default::default()
            },
        )
    });
    drop(samples);
    let algid = t.time("ml.svm_train", None, || {
        let corpus = algid::labeled_corpus(cfg.algid_per_class, seed ^ 0xa1);
        AlgoIdentifier::train(&corpus, ClassifierKind::ClaraSvm, seed)
    });
    let data = t.time("core.scaleout_set", None, || {
        scaleout::training_set(cfg.scaleout_programs, seed ^ 0x50, &nic)
    });
    let scaleout = t.time("ml.gbdt_train", None, || {
        ScaleoutModel::train(ScaleoutKind::ClaraGbdt, &data, &nic, seed)
    });
    let staged = Clara {
        predictor,
        algid,
        scaleout,
        nic,
        precision: Precision::F64,
    };
    let model = ctx.tmp.join("model.json");
    staged.save(&model).map_err(|e| e.to_string())?;
    drop(staged);

    engine::Engine::new().clear_caches();
    let t0 = Instant::now();
    let clara = t
        .time("core.train", None, || Clara::train(&cfg))
        .map_err(|e| e.to_string())?;
    let train_s = t0.elapsed().as_secs_f64();
    let whole = ctx.tmp.join("model-train.json");
    clara.save(&whole).map_err(|e| e.to_string())?;
    out.attempted += 1;
    if std::fs::read(&whole).ok() != std::fs::read(&model).ok() {
        out.fail("`Clara::train` saved a different model than the stage-by-stage training".into());
    }

    let stage_ms = |name| t.median_us(name) / 1e3;
    let stages = [
        ("synth.corpus_ms", "synth.corpus"),
        ("core.block_samples_ms", "core.block_samples"),
        ("ml.lstm_train_ms", "ml.lstm_train"),
        ("ml.svm_train_ms", "ml.svm_train"),
        ("core.scaleout_set_ms", "core.scaleout_set"),
        ("ml.gbdt_train_ms", "ml.gbdt_train"),
    ];
    let total_ms: f64 = stages.iter().map(|(_, s)| stage_ms(s)).sum();
    for (metric_name, span) in stages {
        m.push(metric(metric_name, stage_ms(span), "ms"));
    }
    m.push(metric(
        "core.train_overlap",
        total_ms / (train_s * 1e3),
        "ratio",
    ));
    Ok(model)
}

/// What phase 2 and 3 measured.
struct Slice {
    /// Median over replayed requests of served round trip minus
    /// in-process service time.
    overhead_us: f64,
    gap_p99_us: f64,
    cache_hit_ratio: f64,
    frame_us: f64,
}

/// A served request kept for the in-process replay.
struct Kept {
    i: u64,
    /// Client-side round trip (a one-shot process's wall time).
    served_us: f64,
    /// The reply (a one-shot's standard output).
    reply: String,
}

/// Phase 2 and 3: the first tenth of the workload's window end to end,
/// then its first requests replayed in-process with spans.
fn slice(
    ctx: &Ctx,
    w: Workload,
    model: &Path,
    reference: &Reference,
    t: &mut Tracer,
    out: &mut Outcome,
) -> Result<Slice, String> {
    let window = ctx.window / 10;
    match w {
        Workload::HotTcp | Workload::HotUds => {
            let uds = w == Workload::HotUds;
            let reqs: Vec<Request> = gen::hot_keys(ctx.seed, &ctx.names)
                .into_iter()
                .map(Request::Predict)
                .collect();
            let lines: Vec<String> = reqs.iter().map(|r| render_request(None, r)).collect();
            let sock = uds.then(|| ctx.tmp.join("s.sock"));
            let (d, _) = Daemon::start(&ctx.bin, model, false, sock.as_deref())?;
            let mut clients = run::clients(ctx, &d, uds)?;
            for l in &lines {
                clients[0].ok(l, "predict");
            }
            let n = lines.len() as u64;
            let line = |i: u64| lines[(i % n) as usize].clone();
            let (tally, gaps, kept) = closed(&mut clients, window, |c, i| {
                c.ok(&lines[(i % n) as usize], "predict")
            });
            let drain = d.drain()?;
            let hits = run::counter(Some(&drain), "serve.cache.predict_hits");
            let misses = run::counter(Some(&drain), "serve.cache.predict_misses").saturating_sub(n);
            out.attempted += tally.attempted;
            out.failed += tally.failed;
            // The daemon's hit path: parse, look the key up, render.
            let backend = clara_repro::hal::default_backend().name().to_string();
            let mut cache: HashMap<_, Prediction> = HashMap::new();
            for r in &reqs {
                if let Request::Predict(w) = r {
                    let p = reference.predict(w).map_err(|e| e.to_string())?;
                    cache.insert(hot_key(w, &backend), p);
                }
            }
            let overhead = replay(t, out, &kept, |t, i| {
                let l = line(i);
                let env = t.time("serve.parse", Some(i), || protocol::parse_request(&l))?;
                let Request::Predict(w) = env.req else {
                    return Err("not a predict".to_string());
                };
                let p = t
                    .time("serve.cache", Some(i), || {
                        cache.get(&hot_key(&w, &backend)).cloned()
                    })
                    .ok_or("key not cached")?;
                let prec = w.precision.unwrap_or(Precision::F64);
                Ok(Some(t.time("serve.render", Some(i), || {
                    protocol::predict_response(None, &w.nf, &backend, prec, &p)
                })))
            });
            Ok(Slice {
                overhead_us: overhead,
                gap_p99_us: run::pct(&gaps, 99.0),
                cache_hit_ratio: ratio(hits, misses),
                frame_us: frame_us(kept.iter().map(|k| (line(k.i), k.reply.as_str()))),
            })
        }
        Workload::Drift => {
            let (d, _) = Daemon::start(&ctx.bin, model, true, None)?;
            let mut clients = run::clients(ctx, &d, false)?;
            let warm = gen::drift_warmup(ctx.seed, &ctx.names, &ctx.backends);
            for spec in &warm {
                clients[0].ok(
                    &render_request(None, &Request::Predict(spec.clone())),
                    "predict",
                );
            }
            let line = |i| {
                let spec = gen::drift_spec(ctx.seed, i, &ctx.names, &ctx.backends);
                render_request(None, &Request::Predict(spec))
            };
            let (tally, gaps, kept) =
                closed(&mut clients, window, |c, i| c.ok(&line(i), "predict"));
            let drain = d.drain()?;
            let hits = run::counter(Some(&drain), "serve.cache.predict_hits");
            let misses = run::counter(Some(&drain), "serve.cache.predict_misses")
                .saturating_sub(warm.len() as u64);
            out.attempted += tally.attempted;
            out.failed += tally.failed;
            warm_predict_memo(ctx, reference)?;
            let overhead = replay(t, out, &kept, |t, i| {
                let l = line(i);
                let env = t.time("serve.parse", Some(i), || protocol::parse_request(&l))?;
                let Request::Predict(w) = env.req else {
                    return Err("not a predict".to_string());
                };
                let p = serve_predict(t, reference, &w, i)?;
                let b = Reference::backend(w.backend.as_deref())?;
                let prec = w.precision.unwrap_or(Precision::F64);
                Ok(Some(t.time("serve.render", Some(i), || {
                    protocol::predict_response(None, &w.nf, b.name(), prec, &p)
                })))
            });
            Ok(Slice {
                overhead_us: overhead,
                gap_p99_us: run::pct(&gaps, 99.0),
                cache_hit_ratio: ratio(hits, misses),
                frame_us: frame_us(kept.iter().map(|k| (line(k.i), k.reply.as_str()))),
            })
        }
        Workload::Plan => {
            let (d, _) = Daemon::start(&ctx.bin, model, true, Some(&ctx.tmp.join("s.sock")))?;
            let mut clients = run::clients(ctx, &d, true)?;
            run::plan_warmup(ctx, &mut clients[0], out);
            let line = |k| render_request(None, &run::plan_req(ctx, k));
            let (tally, gaps, kept) = closed(&mut clients, window, |c, k| {
                let req = run::plan_req(ctx, k);
                c.ok(&render_request(None, &req), run::op_of(&req))
            });
            let drain = d.drain()?;
            out.attempted += tally.attempted;
            out.failed += tally.failed;
            let hits = run::counter(Some(&drain), "serve.cache.predict_hits");
            let misses = run::counter(Some(&drain), "serve.cache.predict_misses");
            let overhead = replay(t, out, &kept, |t, k| {
                let l = line(k);
                let env = t.time("serve.parse", Some(k), || protocol::parse_request(&l))?;
                serve_plan(t, reference, &env.req, k).map(Some)
            });
            Ok(Slice {
                overhead_us: overhead,
                gap_p99_us: run::pct(&gaps, 99.0),
                cache_hit_ratio: ratio(hits, misses),
                frame_us: frame_us(kept.iter().map(|k| (line(k.i), k.reply.as_str()))),
            })
        }
        Workload::Offline => {
            let nf_of = |i| gen::oneshot_nf(ctx.seed, i, ctx.names.len());
            let spec = |i: u64| {
                let nf = nf_of(i);
                WorkSpec {
                    nf: ctx.names[nf].to_string(),
                    packets: gen::PACKETS,
                    seed: gen::oneshot_seed(ctx.seed, nf),
                    small_flows: false,
                    backend: None,
                    precision: None,
                }
            };
            let mut runs: Vec<Vec<Kept>> = (0..ctx.conns).map(|_| Vec::new()).collect();
            let (tally, gaps) = gapped(&mut runs, window, |mine, i| {
                let t0 = Instant::now();
                match run::oneshot(ctx, model, nf_of(i)) {
                    Ok(reply) => {
                        let served_us = t0.elapsed().as_secs_f64() * 1e6;
                        mine.push(Kept {
                            i,
                            served_us,
                            reply,
                        });
                        true
                    }
                    Err(_) => false,
                }
            });
            let mut kept: Vec<Kept> = runs.into_iter().flatten().collect();
            kept.sort_by_key(|k| k.i);
            out.attempted += tally.attempted;
            out.failed += tally.failed;
            // A one-shot's work in-process: load, trace, analyze, and the
            // two simulations it prints. Its text output has no
            // in-process rendering to compare.
            let overhead = replay(t, out, &kept, |t, i| {
                let clara = t
                    .time("core.load", Some(i), || Clara::load(model))
                    .map_err(|e| e.to_string())?;
                let w = spec(i);
                let trace = t.time("trafgen.generate", Some(i), || w.trace());
                let module = reference.module(&w.nf)?;
                let ins = t
                    .time("core.analyze", Some(i), || {
                        clara.analyze_prec(module, &trace, clara.precision)
                    })
                    .map_err(|e| e.to_string())?;
                let port = ins.port_config();
                t.time("nicsim.simulate", Some(i), || {
                    for p in [&PortConfig::naive(), &port] {
                        std::hint::black_box(nicsim::simulate(
                            module,
                            &trace,
                            p,
                            &clara.nic,
                            ins.suggested_cores,
                        ));
                    }
                });
                Ok(None)
            });
            // One-shots have no wire form; time the analyze request and
            // reply the daemon would exchange for the same NF instead.
            let b = Reference::backend(None)?;
            let mut framed = Vec::new();
            for k in &kept {
                let line = render_request(None, &Request::Analyze(spec(k.i)));
                let env = t.time("serve.parse", Some(k.i), || protocol::parse_request(&line))?;
                let Request::Analyze(w) = &env.req else {
                    return Err("not an analyze request".to_string());
                };
                let module = reference.module(&w.nf)?;
                let ins = reference
                    .clara
                    .analyze_on_prec(module, &w.trace(), b, Precision::F64)
                    .map_err(|e| e.to_string())?;
                let reply = t.time("serve.render", Some(k.i), || {
                    protocol::analyze_response(None, &w.nf, b.name(), Precision::F64, module, &ins)
                });
                framed.push((line, reply));
            }
            Ok(Slice {
                overhead_us: overhead,
                gap_p99_us: run::pct(&gaps, 99.0),
                cache_hit_ratio: 0.0,
                frame_us: frame_us(framed.iter().map(|(l, r)| (l.clone(), r.as_str()))),
            })
        }
    }
}

fn hot_key(w: &WorkSpec, backend: &str) -> (String, usize, u64, bool, String, Precision) {
    (
        w.nf.clone(),
        w.packets,
        w.seed,
        w.small_flows,
        w.backend.clone().unwrap_or_else(|| backend.to_string()),
        w.precision.unwrap_or(Precision::F64),
    )
}

fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// A closed loop that also records, per request, how long the generator
/// took between a reply and its next send.
fn gapped<S: Send>(
    states: &mut [S],
    window: Duration,
    send: impl Fn(&mut S, u64) -> bool + Sync,
) -> (loadgen::Tally, Vec<f64>) {
    let mut wrapped: Vec<(&mut S, Option<Instant>, Vec<f64>)> =
        states.iter_mut().map(|s| (s, None, Vec::new())).collect();
    let tally = loadgen::closed_loop(&mut wrapped, window, 0, |(s, last, gap), i| {
        if let Some(prev) = last {
            gap.push(prev.elapsed().as_secs_f64() * 1e6);
        }
        let ok = send(s, i);
        *last = Some(Instant::now());
        ok
    });
    let gaps = wrapped.into_iter().flat_map(|(_, _, g)| g).collect();
    (tally, gaps)
}

/// A [`gapped`] slice over daemon clients that keeps the first
/// [`REPLAY_CAP`] requests' round trips and replies.
fn closed(
    clients: &mut [Client],
    window: Duration,
    send: impl Fn(&mut Client, u64) -> bool + Sync,
) -> (loadgen::Tally, Vec<f64>, Vec<Kept>) {
    let mut states: Vec<(&mut Client, Vec<Kept>)> =
        clients.iter_mut().map(|c| (c, Vec::new())).collect();
    let (tally, gaps) = gapped(&mut states, window, |(c, kept), i| {
        let t0 = Instant::now();
        let ok = send(c, i);
        if i < REPLAY_CAP {
            let served_us = t0.elapsed().as_secs_f64() * 1e6;
            kept.push(Kept {
                i,
                served_us,
                reply: c.resp.clone(),
            });
        }
        ok
    });
    let mut kept: Vec<Kept> = states.into_iter().flat_map(|(_, k)| k).collect();
    kept.sort_by_key(|k| k.i);
    (tally, gaps, kept)
}

/// Replays the first [`REPLAY_CAP`] kept requests in-process, each under a
/// `serve.request` span, and compares every reply `serve` renders with the
/// served one. Returns the median of served round trip minus in-process
/// service time over the replayed requests.
fn replay(
    t: &mut Tracer,
    out: &mut Outcome,
    kept: &[Kept],
    mut serve: impl FnMut(&mut Tracer, u64) -> Result<Option<String>, String>,
) -> f64 {
    let mut overhead = Vec::new();
    for k in kept.iter().filter(|k| k.i < REPLAY_CAP) {
        let id = t.begin("serve.request", Some(k.i));
        let r = serve(t, k.i);
        t.end(id);
        out.attempted += 1;
        overhead.push(k.served_us - t.spans[id].dur_ns() as f64 / 1e3);
        match r {
            Ok(None) => {}
            Ok(Some(reply)) if reply == k.reply => {}
            Ok(Some(reply)) => out.fail(format!(
                "request {}: served {} but in-process gives {reply}",
                k.i, k.reply
            )),
            Err(e) => out.fail(format!("request {}: in-process replay failed: {e}", k.i)),
        }
    }
    run::pct(&overhead, 50.0)
}

/// The daemon's miss path for one predict: synthesize the trace, then
/// the serving entry point.
fn serve_predict(
    t: &mut Tracer,
    r: &Reference,
    w: &WorkSpec,
    i: u64,
) -> Result<Prediction, String> {
    let b = Reference::backend(w.backend.as_deref())?;
    let module = r.module(&w.nf)?;
    let trace = t.time("trafgen.generate", Some(i), || w.trace());
    t.time("core.predict", Some(i), || {
        r.clara
            .predict_batch_on_prec_cached(
                &[(module, &trace)],
                b,
                w.precision.unwrap_or(Precision::F64),
                r.predictor_fp,
            )
            .pop()
            .expect("one item in, one result out")
    })
    .map_err(|e| e.to_string())
}

/// One plan request in-process, rendered as the daemon renders it.
fn serve_plan(t: &mut Tracer, r: &Reference, req: &Request, k: u64) -> Result<String, String> {
    let prec = |p: Option<Precision>| p.unwrap_or(Precision::F64);
    match req {
        Request::Analyze(w) => {
            let b = Reference::backend(w.backend.as_deref())?;
            let module = r.module(&w.nf)?;
            let trace = t.time("trafgen.generate", Some(k), || w.trace());
            let ins = t
                .time("core.analyze", Some(k), || {
                    r.clara
                        .analyze_on_prec(module, &trace, b, prec(w.precision))
                })
                .map_err(|e| e.to_string())?;
            Ok(t.time("serve.render", Some(k), || {
                protocol::analyze_response(None, &w.nf, b.name(), prec(w.precision), module, &ins)
            }))
        }
        Request::Place(p) => {
            let b = Reference::backend(p.backend.as_deref())?;
            let name = if p.replay.is_some() {
                "core.replay"
            } else {
                "core.place"
            };
            let plan = t
                .time(name, Some(k), || {
                    r.clara.place_on_prec(p, b, prec(p.precision))
                })
                .map_err(|e| e.to_string())?;
            Ok(t.time("serve.render", Some(k), || {
                protocol::place_response(None, &plan)
            }))
        }
        other => Err(format!("not a plan request: {other:?}")),
    }
}

/// Median time to frame one request and its reply through an in-memory
/// buffer and read both back (the UDS codec without the socket), in µs.
fn frame_us<'a>(pairs: impl Iterator<Item = (String, &'a str)>) -> f64 {
    let mut wire = Vec::with_capacity(1 << 16);
    let (mut wbuf, mut rbuf) = (Vec::new(), Vec::new());
    let times: Vec<f64> = pairs
        .take(REPLAY_CAP as usize)
        .map(|(req, reply)| {
            wire.clear();
            let t0 = Instant::now();
            for payload in [req.as_str(), reply] {
                transport::write_frame(&mut wire, &mut wbuf, payload).expect("in-memory write");
            }
            let mut r = wire.as_slice();
            for _ in 0..2 {
                std::hint::black_box(
                    transport::read_frame(&mut r, &mut rbuf).expect("in-memory read"),
                );
            }
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    run::pct(&times, 50.0)
}

/// One prediction per (NF, precision), untimed: fills the compile cache
/// and the predictor memo as the daemon's warm-up does.
fn warm_predict_memo(ctx: &Ctx, r: &Reference) -> Result<(), String> {
    for w in gen::drift_warmup(ctx.seed, &ctx.names, &ctx.backends[..1]) {
        r.predict(&w).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Phase 4: the workload-independent layer sweep.
fn sweep(
    ctx: &Ctx,
    r: &Reference,
    t: &mut Tracer,
    out: &mut Outcome,
    m: &mut Vec<Metric>,
) -> Result<(), String> {
    warm_predict_memo(ctx, r)?;
    let naive = PortConfig::naive();

    // The drift miss path, stage by stage, on fresh traces; whole
    // predictions on other fresh traces alongside. Attribution and the
    // telemetry cost are judged per iteration, on calls made back to back,
    // so a slow spell of the host weighs on both sides of each ratio.
    let mut interp_pkts = 0usize;
    let mut unexplained = Vec::new();
    let mut obs_cost = Vec::new();
    for i in 0..MISS_SAMPLES {
        let first = t.spans.len();
        let w = gen::drift_fresh(ctx.seed, i, &ctx.names, &ctx.backends);
        let b = Reference::backend(w.backend.as_deref())?;
        let module = r.module(&w.nf)?;
        let prec = w.precision.unwrap_or(Precision::F64);
        let compiled = clara_repro::nfcc::compile_module(module);
        let req = Some(i);
        let trace = t.time("trafgen.generate", req, || w.trace());
        t.time("core.fingerprint_module", req, || {
            std::hint::black_box(engine::value_fingerprint(module))
        });
        t.time("core.fingerprint_trace", req, || {
            std::hint::black_box(engine::value_fingerprint(&trace))
        });
        let prof = t.begin("nicsim.profile", req);
        let rec = t.time("click.interp", req, || {
            nicsim::record_workload(module, &trace, |_| {})
        });
        let profile = t.time("nicsim.cost", req, || {
            nicsim::profile_recorded_compiled(module, &compiled, &rec, &naive, b.nic())
        });
        t.end(prof);
        let cores = t
            .time("ml.scaleout_infer", req, || {
                r.clara
                    .scaleout
                    .predict_prec(&profile, b.nic(), &naive, prec)
            })
            .map_err(|e| e.to_string())?;
        t.time("nicsim.solve_perf", req, || {
            std::hint::black_box(nicsim::solve_perf(
                &profile,
                b.nic(),
                &naive,
                cores.min(b.nic().cores),
            ))
        });
        interp_pkts += trace.pkts.len();
        // Whole predictions on two more fresh traces, telemetry off
        // then on: the cost of recording it on the serving path.
        for (name, on) in [("core.predict_obs_off", false), ("core.predict", true)] {
            let mut whole = w.clone();
            whole.seed = whole.seed.wrapping_sub(if on { 1 << 20 } else { 1 << 21 });
            let trace = whole.trace();
            if !on {
                obs::disable();
            }
            let p = t.time(name, req, || {
                r.clara
                    .predict_batch_on_prec_cached(&[(module, &trace)], b, prec, r.predictor_fp)
                    .pop()
                    .expect("one item in, one result out")
            });
            obs::enable();
            p.map_err(|e| e.to_string())?;
        }
        let ns = |name: &str| -> f64 {
            t.spans[first..]
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.dur_ns() as f64)
                .sum()
        };
        let stages = MISS_STAGES.map(ns);
        unexplained.push(unexplained_pct(ns("core.predict"), &stages));
        obs_cost.push((ns("core.predict") / ns("core.predict_obs_off") - 1.0) * 100.0);
    }
    let interp_ns: u64 = t
        .spans
        .iter()
        .filter(|s| s.name == "click.interp")
        .map(Span::dur_ns)
        .sum();
    push_medians(t, m, &MISS_METRICS);
    m.push(metric(
        "obs.predict_overhead_pct",
        stats::median(&obs_cost),
        "%",
    ));
    m.push(metric(
        "click.interp_pkts_per_s",
        interp_pkts as f64 / (interp_ns as f64 / 1e9),
        "pkt/s",
    ));
    m.push(metric(
        "attrib.drift_unexplained_pct",
        stats::median(&unexplained),
        "%",
    ));

    // Per-module layers over the extended corpus.
    let mut instructions = 0u64;
    for (j, (_, module)) in r.corpus.iter().enumerate() {
        let req = Some(j as u64);
        let nic = t.time("nfcc.compile", req, || {
            clara_repro::nfcc::compile_module(module)
        });
        instructions += nic
            .funcs
            .iter()
            .flat_map(|f| &f.blocks)
            .map(|b| b.insts.len() as u64)
            .sum::<u64>();
        t.time("nf-ir.verify", req, || {
            clara_repro::ir::verify::verify_module(module)
        })
        .map_err(|e| e.to_string())?;
        for (name, p) in [
            ("ml.lstm_infer_f64", Precision::F64),
            ("ml.lstm_infer_q16", Precision::Q16),
        ] {
            t.time(name, req, || {
                std::hint::black_box(r.clara.predictor.predict_module_compute_prec(module, p))
            });
        }
    }
    push_medians(
        t,
        m,
        &[
            ("nfcc.compile_us", "nfcc.compile"),
            ("nf-ir.verify_us", "nf-ir.verify"),
            ("ml.lstm_infer_f64_us", "ml.lstm_infer_f64"),
            ("ml.lstm_infer_q16_us", "ml.lstm_infer_q16"),
        ],
    );
    m.push(metric("nfcc.instructions", instructions as f64, "count"));

    // Planning: the first requests of each plan class, plus the ILP of
    // every NF they place.
    let mut taken = [0usize; 3];
    let mut resolves = 0u64;
    for k in 0.. {
        if taken.iter().all(|&n| n >= PLAN_SAMPLES) {
            break;
        }
        let kind = PlanKind::of(k);
        let slot = kind as usize;
        if taken[slot] >= PLAN_SAMPLES {
            continue;
        }
        taken[slot] += 1;
        let req = run::plan_req(ctx, k);
        let key = Some(1_000_000 + k);
        match &req {
            Request::Analyze(w) => {
                let b = Reference::backend(w.backend.as_deref())?;
                let module = r.module(&w.nf)?;
                let trace = w.trace();
                t.time("core.analyze", key, || {
                    r.clara.analyze_on_prec(
                        module,
                        &trace,
                        b,
                        w.precision.unwrap_or(Precision::F64),
                    )
                })
                .map_err(|e| e.to_string())?;
            }
            Request::Place(p) => {
                let b = Reference::backend(p.backend.as_deref())?;
                let prec = p.precision.unwrap_or(Precision::F64);
                let name = if kind == PlanKind::Replay {
                    "core.replay"
                } else {
                    "core.place"
                };
                let plan = t
                    .time(name, key, || r.clara.place_on_prec(p, b, prec))
                    .map_err(|e| e.to_string())?;
                resolves += plan.replay.as_ref().map_or(0, |s| s.resolves);
                if kind == PlanKind::Place {
                    let trace = p.trace();
                    for nf in &p.nfs {
                        let module = r.module(nf)?;
                        let wp = engine::Engine::new().profile_cached_for(
                            module,
                            &trace,
                            &naive,
                            b.nic(),
                            b.fingerprint(),
                        );
                        t.time("ilp.solve_nf", key, || {
                            solve_nf(module, &wp, b.nic(), DEFAULT_NODE_BUDGET)
                        })
                        .map_err(|e| e.to_string())?;
                    }
                }
            }
            other => return Err(format!("not a plan request: {other:?}")),
        }
        out.attempted += 1;
    }
    push_medians(
        t,
        m,
        &[
            ("core.analyze_us", "core.analyze"),
            ("core.place_us", "core.place"),
            ("core.replay_us", "core.replay"),
            ("ilp.solve_nf_us", "ilp.solve_nf"),
        ],
    );
    m.push(metric("core.place_resolves", resolves as f64, "count"));
    out.counts.push(("nfcc.instructions".into(), instructions));
    out.counts.push(("core.place_resolves".into(), resolves));
    Ok(())
}

/// The drift miss path's per-layer metrics and the spans they read.
const MISS_METRICS: [(&str, &str); 7] = [
    ("core.predict_us", "core.predict"),
    ("core.fingerprint_trace_us", "core.fingerprint_trace"),
    ("core.fingerprint_module_us", "core.fingerprint_module"),
    ("trafgen.generate_us", "trafgen.generate"),
    ("nicsim.profile_us", "nicsim.profile"),
    ("nicsim.solve_perf_us", "nicsim.solve_perf"),
    ("ml.scaleout_infer_us", "ml.scaleout_infer"),
];

/// Reports each `(metric, span)` pair as the span's median duration in µs.
fn push_medians(t: &Tracer, m: &mut Vec<Metric>, pairs: &[(&'static str, &str)]) {
    for (name, span) in pairs {
        m.push(metric(name, t.median_us(span), "us"));
    }
}

/// `BENCH_perf_trace.json`: every span, plus per-name totals with self
/// time.
pub fn span_file(w: Workload, host: Value, spans: &[Span]) -> Value {
    let own = self_times_ns(spans);
    let mut layers: Vec<(&str, Vec<f64>, Vec<f64>)> = Vec::new();
    for (s, self_ns) in spans.iter().zip(&own) {
        let entry = match layers.iter_mut().find(|(n, _, _)| *n == s.name) {
            Some(e) => e,
            None => {
                layers.push((s.name, Vec::new(), Vec::new()));
                layers.last_mut().expect("just pushed")
            }
        };
        entry.1.push(s.dur_ns() as f64 / 1e3);
        entry.2.push(*self_ns as f64 / 1e3);
    }
    let opt = |v: Option<u64>| v.map_or(Value::Null, Value::UInt);
    Value::Map(vec![
        ("workload".into(), Value::Str(w.name().into())),
        ("host".into(), host),
        (
            "layers".into(),
            Value::Seq(
                layers
                    .iter()
                    .map(|(name, dur, own)| {
                        Value::Map(vec![
                            ("name".into(), Value::Str((*name).into())),
                            ("count".into(), Value::UInt(dur.len() as u64)),
                            ("median_us".into(), number(stats::median(dur))),
                            ("self_median_us".into(), number(stats::median(own))),
                            ("self_total_us".into(), number(own.iter().sum())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "spans".into(),
            Value::Seq(
                spans
                    .iter()
                    .map(|s| {
                        Value::Map(vec![
                            ("name".into(), Value::Str(s.name.into())),
                            ("start_ns".into(), Value::UInt(s.start_ns)),
                            ("end_ns".into(), Value::UInt(s.end_ns)),
                            ("parent".into(), opt(s.parent.map(|p| p as u64))),
                            ("req".into(), opt(s.req)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: None,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("request", 0, 100, None),
            span("parse", 10, 20, Some(0)),
            span("predict", 20, 90, Some(0)),
            span("profile", 30, 80, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 10, 20, 50]);
    }

    #[test]
    fn unexplained_share_of_the_whole() {
        assert!((unexplained_pct(1300.0, &[500.0, 690.0, 55.0, 21.0, 3.0]) - 2.3846).abs() < 1e-3);
        assert_eq!(unexplained_pct(100.0, &[100.0]), 0.0);
        assert!(unexplained_pct(100.0, &[110.0]) < 0.0);
    }

    #[test]
    fn tracer_nests_spans_in_call_order() {
        let mut t = Tracer::new();
        let outer = t.begin("outer", Some(1));
        t.time("inner", Some(1), || ());
        t.end(outer);
        t.time("next", None, || ());
        let parents: Vec<Option<usize>> = t.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), None]);
        assert!(
            t.spans[0].start_ns <= t.spans[1].start_ns && t.spans[1].end_ns <= t.spans[0].end_ns
        );
        assert_eq!(t.us("inner").len(), 1);
    }
}
