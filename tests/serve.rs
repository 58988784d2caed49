//! The serving layer, end to end over real sockets.
//!
//! ISSUE acceptance: (a) responses served through the daemon's queue,
//! batching, and worker pool are byte-identical to the equivalent
//! one-shot facade calls; (b) an over-capacity burst yields typed
//! `overloaded` rejections while admitted requests still succeed;
//! (c) a repeated identical request is served entirely from warm
//! caches (zero recomputes); (d) drain finishes in-flight work and
//! answers with a well-formed deterministic run report; (e) tenants
//! registered over the wire get scoped NF sets, typed
//! `unknown_tenant`/`quota_exceeded` rejections, and fair latency
//! while another tenant bursts; (f) drain racing concurrent
//! enqueuers always terminates with every admitted job answered;
//! (g) the UDS frame transport serves bytes identical to TCP lines;
//! (h) a request nested past the JSON depth bound is a typed
//! `bad_request` on both codecs, and the connection keeps serving;
//! (i) a zero deadline answers queued work with typed `deadline`
//! errors, and the engine deadline it installs ends with its server.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier, Mutex, OnceLock};

use clara_repro::clara::{Clara, ClaraConfig, Precision};
use clara_repro::hal::Backend as _;
use clara_repro::serve::protocol::{self, RegisterSpec, Request, WorkSpec};
use clara_repro::serve::server::ServerHandle;
use clara_repro::serve::{ServeOptions, Server};
use serde::Value;

/// The engine (caches, stats) and the obs registry are process globals;
/// tests in this binary serialize on this lock. Poisoning is ignored:
/// one test's failure must not cascade into the other ten.
static SERVE_LOCK: Mutex<()> = Mutex::new(());

fn serve_lock() -> std::sync::MutexGuard<'static, ()> {
    SERVE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// One pipeline trained for the whole binary (training dominates debug
/// runtime; every test shares the same warm state, like the daemon does).
fn clara() -> Arc<Clara> {
    static CLARA: OnceLock<Arc<Clara>> = OnceLock::new();
    CLARA
        .get_or_init(|| Arc::new(Clara::train(&ClaraConfig::fast(11)).expect("training succeeds")))
        .clone()
}

fn start(workers: usize, queue_cap: usize, batch_max: usize) -> ServerHandle {
    start_with_backends(workers, queue_cap, batch_max, Vec::new())
}

fn start_with_backends(
    workers: usize,
    queue_cap: usize,
    batch_max: usize,
    backends: Vec<String>,
) -> ServerHandle {
    Server::start(
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            uds_path: None,
            workers,
            queue_cap,
            batch_max,
            deadline: None,
            backends,
            precision: Precision::F64,
        },
        clara(),
    )
    .expect("server binds an ephemeral port")
}

/// A persistent client connection.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: std::net::SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect to test server");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Conn { stream, reader }
    }

    fn send(&mut self, line: &str) -> String {
        self.stream
            .write_all(line.as_bytes())
            .and_then(|()| self.stream.write_all(b"\n"))
            .expect("write request");
        let mut resp = String::new();
        self.reader.read_line(&mut resp).expect("read response");
        assert!(
            !resp.is_empty(),
            "server closed the connection unexpectedly"
        );
        resp.trim_end().to_string()
    }

    /// Like [`Conn::send`] but tolerates the server shutting the
    /// connection down mid-exchange (drain races do that by design).
    /// `None` means the request was never admitted; an admitted job is
    /// always answered, so a written-then-dropped request is the one
    /// legal "no response" outcome.
    fn try_send(&mut self, line: &str) -> Option<String> {
        if self
            .stream
            .write_all(line.as_bytes())
            .and_then(|()| self.stream.write_all(b"\n"))
            .is_err()
        {
            return None;
        }
        let mut resp = String::new();
        match self.reader.read_line(&mut resp) {
            Ok(0) | Err(_) => None,
            Ok(_) => Some(resp.trim_end().to_string()),
        }
    }
}

fn module_of(nf: &str) -> clara_repro::ir::Module {
    clara_repro::click::extended_corpus()
        .into_iter()
        .find(|e| e.name() == nf)
        .expect("known corpus element")
        .module
}

fn predict_req(id: u64, nf: &str, packets: usize, seed: u64) -> (String, WorkSpec) {
    let w = WorkSpec {
        nf: nf.to_string(),
        packets,
        seed,
        small_flows: false,
        backend: None,
        precision: None,
    };
    (
        protocol::render_request(Some(id), &Request::Predict(w.clone())),
        w,
    )
}

fn stat_u64(resp: &str, key: &str) -> u64 {
    let v = serde_json::parse_value(resp).expect("stats response parses");
    match v.get(key) {
        Some(Value::Int(i)) => *i as u64,
        Some(Value::UInt(u)) => *u,
        other => panic!("stats `{key}` missing or non-integer: {other:?} in {resp}"),
    }
}

/// (a) Concurrent clients through queue + micro-batching get responses
/// byte-identical to one-shot facade calls.
#[test]
fn concurrent_requests_match_one_shot_facade() {
    let _g = serve_lock();
    let clara = clara();
    let handle = start(3, 64, 4);
    let addr = handle.addr();

    // (nf, packets, seed, analyze?) — distinct NFs and seeds so the mix
    // exercises both the batched predict path and the single analyze path.
    let cases = [
        ("tcpack", 80, 1, false),
        ("udpipencap", 90, 2, false),
        ("aggcounter", 100, 3, true),
        ("cmsketch", 110, 4, false),
        ("anonipaddr", 70, 5, true),
        ("iplookup", 60, 6, false),
        ("vlantag", 80, 7, false),
        ("timefilter", 90, 8, true),
    ];

    // Expected lines via the one-shot facade, same WorkSpec -> trace.
    let expected: Vec<String> = cases
        .iter()
        .enumerate()
        .map(|(i, &(nf, packets, seed, analyze))| {
            let module = module_of(nf);
            let w = WorkSpec {
                nf: nf.to_string(),
                packets,
                seed,
                small_flows: false,
                backend: None,
                precision: None,
            };
            let trace = w.trace();
            let default = clara_repro::hal::DEFAULT_BACKEND;
            if analyze {
                let ins = clara.analyze(&module, &trace).expect("facade analyze");
                protocol::analyze_response(
                    Some(i as u64),
                    nf,
                    default,
                    Precision::F64,
                    &module,
                    &ins,
                )
            } else {
                let p = clara
                    .predict_batch_on_prec_cached(
                        &[(&module, &trace)],
                        clara_repro::hal::default_backend(),
                        clara.precision,
                        clara.predictor_fingerprint(),
                    )
                    .pop()
                    .expect("one item in, one result out")
                    .expect("facade predict");
                protocol::predict_response(Some(i as u64), nf, default, Precision::F64, &p)
            }
        })
        .collect();

    // Four concurrent client threads, two requests each.
    let got: Vec<(usize, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|t| {
                scope.spawn(move || {
                    let mut conn = Conn::open(addr);
                    let mut out = Vec::new();
                    for i in [t, t + 4] {
                        let (nf, packets, seed, analyze) = cases[i];
                        let w = WorkSpec {
                            nf: nf.to_string(),
                            packets,
                            seed,
                            small_flows: false,
                            backend: None,
                            precision: None,
                        };
                        let req = if analyze {
                            Request::Analyze(w)
                        } else {
                            Request::Predict(w)
                        };
                        let line = protocol::render_request(Some(i as u64), &req);
                        out.push((i, conn.send(&line)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });

    for (i, resp) in got {
        assert_eq!(
            resp, expected[i],
            "served response {i} must be byte-identical to the one-shot facade rendering"
        );
    }
    handle.drain();
    handle.join();
}

/// (b) Past queue capacity the server rejects with typed `overloaded`
/// responses while admitted requests still complete successfully.
#[test]
fn over_capacity_burst_yields_typed_overloaded() {
    let _g = serve_lock();
    let handle = start(1, 1, 1);
    let addr = handle.addr();
    let n = 10;
    let barrier = Arc::new(Barrier::new(n));

    let responses: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    let mut conn = Conn::open(addr);
                    // Distinct heavy seeds: none of these can be served
                    // from cache, so the single worker stays busy while
                    // the burst lands.
                    let (line, _) = predict_req(i as u64, "cmsketch", 1200, 5000 + i as u64);
                    barrier.wait();
                    conn.send(&line)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("burst thread"))
            .collect()
    });

    let mut ok = 0;
    let mut overloaded = 0;
    for resp in &responses {
        let v = serde_json::parse_value(resp).expect("response parses");
        if v.get("ok") == Some(&Value::Bool(true)) {
            ok += 1;
        } else if v.get("error") == Some(&Value::Str("overloaded".to_string())) {
            overloaded += 1;
        } else {
            panic!("unexpected non-overloaded failure: {resp}");
        }
    }
    assert!(ok >= 1, "admitted requests must still succeed under burst");
    assert!(
        overloaded >= 1,
        "a {n}-wide burst into workers=1/queue_cap=1 must trip admission control"
    );
    let summary = {
        handle.drain();
        handle.join()
    };
    assert_eq!(summary.served, ok, "server tallies admitted successes");
    assert_eq!(
        summary.overloaded, overloaded,
        "server tallies admission rejections"
    );
    assert_eq!(summary.errors, 0, "nothing else may fail");
}

/// (c) The second identical request is served entirely from the warm
/// serve-level prediction cache: it never re-enters the engine (profile
/// stats frozen), the response is byte-identical, and the drain report
/// tallies the hit.
#[test]
fn repeated_request_is_served_from_warm_caches() {
    let _g = serve_lock();
    let handle = start(2, 16, 4);
    let mut conn = Conn::open(handle.addr());
    // A (nf, seed) pair no other test uses, so the first request is
    // genuinely cold even though the binary shares process caches.
    let (line, _) = predict_req(900, "ratelimiter", 90, 777);

    let before = conn.send(&protocol::render_request(None, &Request::Stats));
    let first = conn.send(&line);
    let mid = conn.send(&protocol::render_request(None, &Request::Stats));
    let second = conn.send(&line);
    let after = conn.send(&protocol::render_request(None, &Request::Stats));

    assert!(
        first.contains("\"ok\":true"),
        "first request succeeds: {first}"
    );
    assert_eq!(first, second, "identical requests must render identically");

    let (miss_before, miss_mid, miss_after) = (
        stat_u64(&before, "profile_misses"),
        stat_u64(&mid, "profile_misses"),
        stat_u64(&after, "profile_misses"),
    );
    assert!(
        miss_mid > miss_before,
        "the first request must actually compute a profile (cold)"
    );
    assert_eq!(
        miss_after, miss_mid,
        "the second identical request must recompute nothing"
    );
    assert_eq!(
        stat_u64(&after, "profile_hits"),
        stat_u64(&mid, "profile_hits"),
        "the repeat is answered above the engine: no profile lookup at all"
    );
    let resp = conn.send(&protocol::render_request(Some(7), &Request::Drain));
    for counter in ["serve.cache.predict_hits", "serve.cache.predict_misses"] {
        assert!(
            resp.contains(counter),
            "drain report must carry `{counter}`: {resp}"
        );
    }
    handle.join();
}

/// Per-request device routing: a server warm on two backends answers
/// interleaved clients with the right device's predictions (each
/// byte-identical to the facade's rendering for that device), the two
/// devices' answers demonstrably differ, and a name that is not loaded
/// is rejected with a typed `unknown_backend` error before queueing.
#[test]
fn per_request_backend_routing() {
    let _g = serve_lock();
    let clara = clara();
    let handle = start_with_backends(
        2,
        32,
        4,
        vec!["agilio-cx".to_string(), "dpu-offpath".to_string()],
    );
    let addr = handle.addr();

    let module = module_of("cmsketch");
    let mk = |backend: Option<&str>| WorkSpec {
        nf: "cmsketch".to_string(),
        packets: 120,
        seed: 909,
        small_flows: false,
        backend: backend.map(str::to_string),
        precision: None,
    };
    let trace = mk(None).trace();
    let agilio = clara_repro::hal::builtin("agilio-cx").expect("shipped");
    let dpu = clara_repro::hal::builtin("dpu-offpath").expect("shipped");
    let fp = clara.predictor_fingerprint();
    let p_agilio = clara
        .predict_batch_on_prec_cached(&[(&module, &trace)], agilio, clara.precision, fp)
        .pop()
        .expect("one item in, one result out")
        .expect("facade predict on agilio");
    let p_dpu = clara
        .predict_batch_on_prec_cached(&[(&module, &trace)], dpu, clara.precision, fp)
        .pop()
        .expect("one item in, one result out")
        .expect("facade predict on dpu");
    // The devices must actually disagree (different clock and memory),
    // otherwise this test could pass with routing broken.
    assert_ne!(
        p_agilio.predicted_latency_us, p_dpu.predicted_latency_us,
        "devices with different clocks must predict different latencies"
    );

    // Interleaved clients: each thread alternates default/explicit
    // backends, crossing coalescing boundaries.
    let expected_for = |id: u64, backend: Option<&str>| match backend {
        None | Some("agilio-cx") => {
            protocol::predict_response(Some(id), "cmsketch", "agilio-cx", Precision::F64, &p_agilio)
        }
        Some("dpu-offpath") => {
            protocol::predict_response(Some(id), "cmsketch", "dpu-offpath", Precision::F64, &p_dpu)
        }
        Some(other) => panic!("unexpected backend {other}"),
    };
    let plan: [Option<&str>; 6] = [
        None,
        Some("dpu-offpath"),
        Some("agilio-cx"),
        Some("dpu-offpath"),
        None,
        Some("agilio-cx"),
    ];
    let got: Vec<(u64, Option<&str>, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|t| {
                let plan = &plan;
                let mk = &mk;
                scope.spawn(move || {
                    let mut conn = Conn::open(addr);
                    let mut out = Vec::new();
                    for (j, backend) in plan.iter().enumerate() {
                        let id = (t * 100 + j) as u64;
                        let line =
                            protocol::render_request(Some(id), &Request::Predict(mk(*backend)));
                        out.push((id, *backend, conn.send(&line)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    for (id, backend, resp) in got {
        assert_eq!(
            resp,
            expected_for(id, backend),
            "response for backend {backend:?} must match that device's facade rendering"
        );
    }

    // An unloaded (but perfectly valid) built-in is still rejected: only
    // *warm* backends serve.
    let mut conn = Conn::open(addr);
    let resp = conn.send(&protocol::render_request(
        Some(7),
        &Request::Predict(mk(Some("wimpy-onpath"))),
    ));
    let v = serde_json::parse_value(&resp).expect("rejection parses");
    assert_eq!(v.get("ok"), Some(&Value::Bool(false)), "{resp}");
    assert_eq!(
        v.get("error"),
        Some(&Value::Str("unknown_backend".to_string())),
        "unloaded backend must be a typed rejection, not `internal`: {resp}"
    );

    // Stats advertises exactly the warm set, in routing order.
    let stats = conn.send(&protocol::render_request(None, &Request::Stats));
    assert!(
        stats.contains(r#""backends":["agilio-cx","dpu-offpath"]"#),
        "stats must list the warm backends: {stats}"
    );

    handle.drain();
    let summary = handle.join();
    assert_eq!(summary.served, 12, "both clients' routed requests served");
    assert_eq!(summary.errors, 1, "exactly the unknown-backend rejection");
}

/// Per-request precision routing: one warm server answers interleaved
/// f64/q16 predicts with each path's own facade rendering (responses
/// echo the precision that served them), coalescing never mixes the
/// paths, and an unknown precision string is a typed `bad_request`.
#[test]
fn per_request_precision_routing() {
    let _g = serve_lock();
    let clara = clara();
    let handle = start(2, 32, 4);
    let addr = handle.addr();

    let module = module_of("heavy_hitter");
    let mk = |precision: Option<Precision>| WorkSpec {
        nf: "heavy_hitter".to_string(),
        packets: 110,
        seed: 4242,
        small_flows: false,
        backend: None,
        precision,
    };
    let trace = mk(None).trace();
    let default = clara_repro::hal::default_backend();
    let fp = clara.predictor_fingerprint();
    let p_f64 = clara
        .predict_batch_on_prec_cached(&[(&module, &trace)], default, Precision::F64, fp)
        .pop()
        .expect("one item in, one result out")
        .expect("facade predict at f64");
    let p_q16 = clara
        .predict_batch_on_prec_cached(&[(&module, &trace)], default, Precision::Q16, fp)
        .pop()
        .expect("one item in, one result out")
        .expect("facade predict at q16");

    let expected_for = |id: u64, precision: Option<Precision>| match precision {
        None | Some(Precision::F64) => protocol::predict_response(
            Some(id),
            "heavy_hitter",
            default.name(),
            Precision::F64,
            &p_f64,
        ),
        Some(Precision::Q16) => protocol::predict_response(
            Some(id),
            "heavy_hitter",
            default.name(),
            Precision::Q16,
            &p_q16,
        ),
        Some(other) => panic!("unexpected precision {other:?}"),
    };
    let plan: [Option<Precision>; 6] = [
        None,
        Some(Precision::Q16),
        Some(Precision::F64),
        Some(Precision::Q16),
        None,
        Some(Precision::Q16),
    ];
    let mut conn = Conn::open(addr);
    for (j, precision) in plan.iter().enumerate() {
        let id = 500 + j as u64;
        let line = protocol::render_request(Some(id), &Request::Predict(mk(*precision)));
        let resp = conn.send(&line);
        assert_eq!(
            resp,
            expected_for(id, *precision),
            "response at precision {precision:?} must match that path's facade rendering"
        );
        let v = serde_json::parse_value(&resp).expect("response parses");
        let want = precision.unwrap_or(Precision::F64).as_str();
        assert_eq!(
            v.get("precision"),
            Some(&Value::Str(want.to_string())),
            "response must echo the precision that served it: {resp}"
        );
    }

    // An unknown precision string is rejected at parse time with a
    // typed `bad_request`, never queued.
    let resp = conn.send(r#"{"v":1,"op":"predict","nf":"heavy_hitter","precision":"bf16"}"#);
    let v = serde_json::parse_value(&resp).expect("rejection parses");
    assert_eq!(v.get("ok"), Some(&Value::Bool(false)), "{resp}");
    assert_eq!(
        v.get("error"),
        Some(&Value::Str("bad_request".to_string())),
        "unknown precision must be a typed bad_request: {resp}"
    );

    handle.drain();
    let summary = handle.join();
    assert_eq!(summary.served, 6, "every routed predict served");
    assert_eq!(summary.errors, 1, "exactly the bad_request rejection");
}

/// `op:"place"` end to end: a served placement plan is byte-identical
/// to the facade's rendering for the same request, an NF outside the
/// corpus is rejected with a typed `unknown_nf` before queueing, a
/// replayed request re-solves on drift, and the drain report carries
/// the placement counters.
#[test]
fn place_requests_route_replan_and_land_in_the_drain_report() {
    let _g = serve_lock();
    let clara = clara();
    let handle = start(2, 16, 4);
    let addr = handle.addr();
    let mut conn = Conn::open(addr);

    // One-shot plan, byte-identical to the facade rendering.
    let req = clara_repro::clara::PlacementRequest::builder(["firewall", "mazunat"])
        .packets(150)
        .seed(31)
        .build();
    let default = clara_repro::hal::default_backend();
    let expected = protocol::place_response(
        Some(40),
        &clara
            .place_on_prec(&req, default, Precision::F64)
            .expect("facade place"),
    );
    let resp = conn.send(&protocol::render_request(Some(40), &Request::Place(req)));
    assert_eq!(
        resp, expected,
        "served op:\"place\" must be byte-identical to the one-shot rendering"
    );

    // A drifting replay re-solves at least once and reports it.
    // The large→small phase flip moves udpcount's access mix by ~14%;
    // a 10% threshold makes the re-solve deterministic for these params.
    let replay_req = clara_repro::clara::PlacementRequest::builder(["udpcount"])
        .packets(150)
        .seed(31)
        .replay("shift")
        .epochs(4)
        .drift_threshold(0.1)
        .build();
    let resp = conn.send(&protocol::render_request(
        Some(41),
        &Request::Place(replay_req),
    ));
    let v = serde_json::parse_value(&resp).expect("replay response parses");
    assert_eq!(v.get("ok"), Some(&Value::Bool(true)), "{resp}");
    let replay = v.get("replay").expect("replay summary present");
    match replay.get("resolves") {
        Some(Value::UInt(n)) => assert!(*n >= 1, "shift replay must re-solve: {resp}"),
        Some(Value::Int(n)) => assert!(*n >= 1, "shift replay must re-solve: {resp}"),
        other => panic!("replay `resolves` missing or non-integer: {other:?} in {resp}"),
    }

    // Unknown NFs are rejected before queueing, with the typed kind.
    let resp = conn.send(&protocol::render_request(
        Some(42),
        &Request::Place(clara_repro::clara::PlacementRequest::new([
            "firewall",
            "not-an-nf",
        ])),
    ));
    let v = serde_json::parse_value(&resp).expect("rejection parses");
    assert_eq!(v.get("ok"), Some(&Value::Bool(false)), "{resp}");
    assert_eq!(
        v.get("error"),
        Some(&Value::Str("unknown_nf".to_string())),
        "unknown NF must be a typed rejection: {resp}"
    );

    // Drain: the deterministic report carries the re-plan counters.
    let resp = conn.send(&protocol::render_request(Some(43), &Request::Drain));
    assert!(resp.contains("\"ok\":true"), "drain succeeds: {resp}");
    for counter in [
        "serve.ops.place",
        "place.requests",
        "place.epochs",
        "place.resolves",
    ] {
        assert!(
            resp.contains(counter),
            "drain report must carry `{counter}`: {resp}"
        );
    }

    let summary = handle.join();
    assert_eq!(summary.served, 2, "both placement plans served");
    assert_eq!(summary.errors, 1, "exactly the unknown-NF rejection");
}

/// (d) Drain stops admission, finishes in-flight work, and answers with
/// a well-formed deterministic run report.
#[test]
fn drain_completes_with_deterministic_report() {
    let _g = serve_lock();
    let handle = start(2, 16, 4);
    let mut conn = Conn::open(handle.addr());

    for i in 0..3 {
        let (line, _) = predict_req(i, "tcpresp", 60, 30 + i);
        let resp = conn.send(&line);
        assert!(
            resp.contains("\"ok\":true"),
            "warm-up predict {i} succeeds: {resp}"
        );
    }

    let resp = conn.send(&protocol::render_request(Some(99), &Request::Drain));
    let v = serde_json::parse_value(&resp).expect("drain response is valid JSON");
    assert_eq!(
        v.get("ok"),
        Some(&Value::Bool(true)),
        "drain succeeds: {resp}"
    );
    assert_eq!(
        stat_u64(&resp, "served"),
        3,
        "drain reports exactly the requests this server answered"
    );
    let report = v.get("report").expect("drain carries the final run report");
    assert!(
        matches!(report, Value::Map(_)),
        "report must be an embedded JSON object"
    );
    assert!(
        report.get("counters").is_some() && report.get("spans").is_some(),
        "report must carry the counters and span tree sections"
    );
    assert!(
        resp.contains("serve.ops.predict"),
        "report must include the serving layer's deterministic op counters"
    );
    assert!(
        resp.contains("clara-serve"),
        "report must include the server's root span"
    );

    let summary = handle.join();
    assert_eq!(summary.served, 3);
    assert_eq!(summary.errors, 0);
}

/// Extracts an integer field from a `Value::Map` entry.
fn map_u64(m: &Value, key: &str) -> u64 {
    match m.get(key) {
        Some(Value::Int(i)) => *i as u64,
        Some(Value::UInt(u)) => *u,
        other => panic!("map `{key}` missing or non-integer: {other:?}"),
    }
}

/// Sums the per-tenant counters out of a wire `stats` response:
/// (served, overloaded, quota_exceeded, errors).
fn tenant_sums(stats: &str) -> (u64, u64, u64, u64) {
    let v = serde_json::parse_value(stats).expect("stats parses");
    let Some(Value::Seq(tenants)) = v.get("tenants") else {
        panic!("stats must carry a `tenants` array: {stats}");
    };
    let mut sums = (0, 0, 0, 0);
    for t in tenants {
        sums.0 += map_u64(t, "served");
        sums.1 += map_u64(t, "overloaded");
        sums.2 += map_u64(t, "quota_exceeded");
        sums.3 += map_u64(t, "errors");
    }
    sums
}

fn p95_us(mut lat: Vec<u64>) -> u64 {
    lat.sort_unstable();
    lat[((lat.len() * 95) / 100).min(lat.len() - 1)]
}

/// (e) Tenancy over the wire: `op:"register"` pins an NF set and quota,
/// scoped requests serve byte-identically to the facade, out-of-set and
/// unregistered-tenant requests get typed rejections, and the `stats`
/// response pins its key order (including the new `errors` and
/// `quota_exceeded` counters, per-tenant sections, and coloc pairs).
#[test]
fn registered_tenants_are_scoped_and_stats_pin_key_order() {
    let _g = serve_lock();
    let clara = clara();
    let handle = start(2, 8, 4);
    let mut conn = Conn::open(handle.addr());

    // Register two tenants with disjoint NF sets. The response echoes
    // the admitted configuration (NF set sorted, quota clamped).
    let resp = conn.send(&protocol::render_request_as(
        Some(1),
        Some("alpha"),
        &Request::Register(RegisterSpec {
            nfs: vec!["iplookup".to_string(), "cmsketch".to_string()],
            backend: None,
            precision: None,
            quota: Some(2),
        }),
    ));
    let v = serde_json::parse_value(&resp).expect("register response parses");
    assert_eq!(v.get("ok"), Some(&Value::Bool(true)), "{resp}");
    assert_eq!(
        v.get("tenant"),
        Some(&Value::Str("alpha".to_string())),
        "{resp}"
    );
    assert_eq!(map_u64(&v, "quota"), 2, "quota echoes as admitted: {resp}");
    assert!(
        resp.contains(r#""nfs":["cmsketch","iplookup"]"#),
        "NF set must come back sorted: {resp}"
    );
    let resp = conn.send(&protocol::render_request_as(
        Some(2),
        Some("beta"),
        &Request::Register(RegisterSpec {
            nfs: vec!["firewall".to_string()],
            backend: None,
            precision: None,
            quota: None,
        }),
    ));
    assert!(resp.contains("\"ok\":true"), "beta registers: {resp}");

    // A scoped predict serves byte-identically to the one-shot facade.
    let w = WorkSpec {
        nf: "cmsketch".to_string(),
        packets: 100,
        seed: 8181,
        small_flows: false,
        backend: None,
        precision: None,
    };
    let expected = protocol::predict_response(
        Some(3),
        "cmsketch",
        clara_repro::hal::DEFAULT_BACKEND,
        Precision::F64,
        &clara
            .predict_batch_on_prec_cached(
                &[(&module_of("cmsketch"), &w.trace())],
                clara_repro::hal::default_backend(),
                clara.precision,
                clara.predictor_fingerprint(),
            )
            .pop()
            .expect("one item in, one result out")
            .expect("facade predict"),
    );
    let resp = conn.send(&protocol::render_request_as(
        Some(3),
        Some("alpha"),
        &Request::Predict(w.clone()),
    ));
    assert_eq!(
        resp, expected,
        "tenant-scoped predict is byte-identical to the facade"
    );

    // Out-of-set NF: typed `unknown_nf`. Unregistered tenant: typed
    // `unknown_tenant`. Register without a tenant name: `bad_request`.
    let resp = conn.send(&protocol::render_request_as(
        Some(4),
        Some("alpha"),
        &Request::Predict(WorkSpec {
            nf: "tcpack".to_string(),
            ..w.clone()
        }),
    ));
    assert!(
        resp.contains(r#""error":"unknown_nf""#),
        "out-of-set NF must be typed: {resp}"
    );
    let resp = conn.send(&protocol::render_request_as(
        Some(5),
        Some("ghost"),
        &Request::Predict(w.clone()),
    ));
    assert!(
        resp.contains(r#""error":"unknown_tenant""#),
        "unregistered tenant must be typed: {resp}"
    );
    let resp = conn.send(&protocol::render_request_as(
        Some(6),
        None,
        &Request::Register(RegisterSpec::default()),
    ));
    assert!(
        resp.contains(r#""error":"bad_request""#),
        "register without a tenant name must be typed: {resp}"
    );

    // Stats: every global key in pinned order, then per-tenant entries
    // (each in pinned order) and the coloc pairs for the two profiled
    // tenants.
    let stats = conn.send(&protocol::render_request(None, &Request::Stats));
    let global_keys = [
        "queue_depth",
        "in_flight",
        "served",
        "overloaded",
        "quota_exceeded",
        "errors",
        "draining",
        "workers",
        "shards",
        "queue_cap",
        "batch_max",
        "precision",
        "backends",
        "tenants",
        "coloc",
        "compile_hits",
        "compile_misses",
        "profile_hits",
        "profile_misses",
        "disk_hits",
        "disk_recomputes",
    ];
    let mut at = 0;
    for key in global_keys {
        let needle = format!("\"{key}\":");
        let pos = stats[at..]
            .find(&needle)
            .unwrap_or_else(|| panic!("stats must carry `{key}` after byte {at}: {stats}"));
        at += pos + needle.len();
    }
    let tenants_at = stats.find("\"tenants\":").expect("tenants section");
    let mut at = tenants_at;
    for key in [
        "name",
        "shard",
        "quota",
        "queued",
        "served",
        "overloaded",
        "quota_exceeded",
        "errors",
    ] {
        let needle = format!("\"{key}\":");
        let pos = stats[at..]
            .find(&needle)
            .unwrap_or_else(|| panic!("tenant entries must carry `{key}` in order: {stats}"));
        at += pos + needle.len();
    }
    assert!(
        stats.contains(r#""name":"alpha""#) && stats.contains(r#""name":"beta""#),
        "stats must list both registered tenants: {stats}"
    );
    assert!(
        stats.contains(r#""name":"default""#),
        "the default tenant is always listed: {stats}"
    );
    // alpha and beta both registered non-empty NF sets, so they carry
    // workload profiles and the coloc model predicts their pairwise
    // interference.
    let coloc_at = stats.find("\"coloc\":").expect("coloc section");
    for key in ["\"a\":", "\"b\":", "\"a_loss_pct\":", "\"b_loss_pct\":"] {
        assert!(
            stats[coloc_at..].contains(key),
            "coloc pairs must carry {key}: {stats}"
        );
    }

    handle.drain();
    let summary = handle.join();
    assert_eq!(summary.served, 1, "exactly the scoped predict served");
    assert_eq!(
        summary.errors, 3,
        "unknown_nf + unknown_tenant + nameless register"
    );
    assert_eq!(summary.quota_exceeded, 0);
}

/// (e) Fairness: while one tenant floods past its admission quota, the
/// other tenant keeps its latency (p95 within 2x its solo baseline,
/// with a 10ms floor against scheduler noise), collects zero
/// rejections, and the flooding tenant's overflow is answered with
/// typed `quota_exceeded` — and the per-tenant counters on the wire
/// reconcile exactly with the lifetime `ServeSummary`.
#[test]
fn bursting_tenant_is_quota_limited_while_victim_keeps_latency() {
    let _g = serve_lock();
    let handle = start(2, 16, 4);
    let addr = handle.addr();
    let mut victim = Conn::open(addr);

    // Victim first (shard 1 on a 2-worker pool), burster second: the
    // deficit-round-robin ring plus sharding keep their queues apart.
    let resp = victim.send(&protocol::render_request_as(
        Some(1),
        Some("victim"),
        &Request::Register(RegisterSpec {
            nfs: vec!["vlantag".to_string()],
            backend: None,
            precision: None,
            quota: None,
        }),
    ));
    assert!(resp.contains("\"ok\":true"), "victim registers: {resp}");
    let resp = victim.send(&protocol::render_request_as(
        Some(2),
        Some("burster"),
        &Request::Register(RegisterSpec {
            nfs: vec!["cmsketch".to_string()],
            backend: None,
            precision: None,
            quota: Some(1),
        }),
    ));
    assert!(resp.contains("\"ok\":true"), "burster registers: {resp}");

    let victim_line = |id: u64| {
        protocol::render_request_as(
            Some(id),
            Some("victim"),
            &Request::Predict(WorkSpec {
                nf: "vlantag".to_string(),
                packets: 90,
                seed: 880,
                small_flows: false,
                backend: None,
                precision: None,
            }),
        )
    };
    // Warm the victim's caches, then measure the solo baseline.
    for i in 0..3 {
        let resp = victim.send(&victim_line(10 + i));
        assert!(resp.contains("\"ok\":true"), "victim warm-up: {resp}");
    }
    let solo: Vec<u64> = (0..20)
        .map(|i| {
            let t0 = std::time::Instant::now();
            let resp = victim.send(&victim_line(100 + i));
            assert!(resp.contains("\"ok\":true"), "solo victim predict: {resp}");
            t0.elapsed().as_micros() as u64
        })
        .collect();

    // Contended phase: six connections flood the burster with heavy
    // uncacheable predicts (quota 1 admits at most one queued at a
    // time) while the victim keeps sending.
    let (contended, burst_ok, burst_quota) = std::thread::scope(|scope| {
        let bursters: Vec<_> = (0..6)
            .map(|c| {
                scope.spawn(move || {
                    let mut conn = Conn::open(addr);
                    let (mut ok, mut quota) = (0u64, 0u64);
                    for j in 0..2u64 {
                        let line = protocol::render_request_as(
                            Some(7000 + c * 10 + j),
                            Some("burster"),
                            &Request::Predict(WorkSpec {
                                nf: "cmsketch".to_string(),
                                packets: 1200,
                                seed: 7000 + c * 10 + j,
                                small_flows: false,
                                backend: None,
                                precision: None,
                            }),
                        );
                        let resp = conn.send(&line);
                        if resp.contains("\"ok\":true") {
                            ok += 1;
                        } else if resp.contains(r#""error":"quota_exceeded""#) {
                            quota += 1;
                        } else {
                            panic!("burster overflow must be typed quota_exceeded: {resp}");
                        }
                    }
                    (ok, quota)
                })
            })
            .collect();
        let contended: Vec<u64> = (0..20)
            .map(|i| {
                let t0 = std::time::Instant::now();
                let resp = victim.send(&victim_line(200 + i));
                assert!(
                    resp.contains("\"ok\":true"),
                    "victim must collect zero rejections while the burster floods: {resp}"
                );
                t0.elapsed().as_micros() as u64
            })
            .collect();
        let (mut ok, mut quota) = (0u64, 0u64);
        for b in bursters {
            let (o, q) = b.join().expect("burster thread");
            ok += o;
            quota += q;
        }
        (contended, ok, quota)
    });

    assert!(
        burst_quota >= 1,
        "a 6-wide flood into quota=1 must trip per-tenant admission \
         (ok={burst_ok}, quota_exceeded={burst_quota})"
    );
    let (solo_p95, contended_p95) = (p95_us(solo), p95_us(contended));
    let bound = (2 * solo_p95).max(10_000);
    assert!(
        contended_p95 <= bound,
        "victim p95 must stay within 2x its solo baseline (10ms floor): \
         solo={solo_p95}us contended={contended_p95}us bound={bound}us"
    );

    // Per-tenant counters on the wire reconcile with the globals in the
    // same response, and with the lifetime summary after drain.
    let stats = victim.send(&protocol::render_request(None, &Request::Stats));
    let (t_served, t_over, t_quota, t_errors) = tenant_sums(&stats);
    assert_eq!(
        t_served,
        stat_u64(&stats, "served"),
        "served attribution: {stats}"
    );
    assert_eq!(
        t_over,
        stat_u64(&stats, "overloaded"),
        "overloaded attribution: {stats}"
    );
    assert_eq!(
        t_quota,
        stat_u64(&stats, "quota_exceeded"),
        "quota_exceeded attribution: {stats}"
    );
    assert_eq!(
        t_errors,
        stat_u64(&stats, "errors"),
        "errors attribution: {stats}"
    );

    handle.drain();
    let summary = handle.join();
    assert_eq!(
        summary.served, t_served,
        "wire stats reconcile with the summary"
    );
    assert_eq!(summary.overloaded, t_over);
    assert_eq!(summary.quota_exceeded, t_quota);
    assert_eq!(summary.errors, t_errors);
    assert_eq!(
        summary.served,
        43 + burst_ok,
        "3 warm-ups + 40 timed + admitted burst"
    );
    assert_eq!(summary.quota_exceeded, burst_quota);
    assert_eq!(summary.errors, 0);
}

/// (f) The drain/enqueue race: 50 rounds of `drain` fired into
/// concurrent enqueuers. Admission and drain are linearized under the
/// queue lock, so every admitted job is answered (no abandoned client
/// blocks forever) and drain always terminates. Before the fix this
/// test wedges on a job admitted after the drain flag flipped.
#[test]
fn drain_racing_concurrent_enqueuers_always_terminates() {
    let _g = serve_lock();
    for round in 0..50u64 {
        let handle = start(2, 8, 2);
        let addr = handle.addr();
        let barrier = Arc::new(Barrier::new(5));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    // Connect before the race starts; the acceptor may be
                    // gone by the time this thread would reconnect.
                    let mut conn = Conn::open(addr);
                    barrier.wait();
                    for j in 0..3u64 {
                        // Cached after round 0, so rounds are fast and the
                        // race window sits in admission, not in the work.
                        let (line, _) =
                            predict_req(round * 100 + t * 10 + j, "tcpresp", 60, 30 + j);
                        match conn.try_send(&line) {
                            None => break, // connection torn down post-drain
                            Some(resp) => {
                                let v = serde_json::parse_value(&resp).expect("response parses");
                                let admitted = v.get("ok") == Some(&Value::Bool(true));
                                let refused = matches!(
                                    v.get("error"),
                                    Some(Value::Str(e)) if e == "draining" || e == "overloaded"
                                );
                                assert!(
                                    admitted || refused,
                                    "round {round}: every answered request is served or \
                                     typed-refused: {resp}"
                                );
                            }
                        }
                    }
                });
            }
            barrier.wait();
            // Race drain against the enqueuers. This must terminate: the
            // draining flag flips under the queue lock, so no job can be
            // admitted after it and then sit unanswered.
            handle.drain();
        });
        let summary = handle.join();
        assert_eq!(
            summary.quota_exceeded, 0,
            "round {round}: no tenant quota in play"
        );
        assert_eq!(summary.errors, 0, "round {round}: nothing may hard-fail");
    }
}

/// (g) The UDS frame transport: the same request over TCP JSON-lines
/// and over length-prefixed frames on a Unix socket yields the same
/// response bytes, and one framed connection serves repeated requests
/// (the reusable-buffer path).
#[cfg(unix)]
#[test]
fn uds_frames_serve_bytes_identical_to_tcp_lines() {
    use clara_repro::serve::transport;
    use std::os::unix::net::UnixStream;

    let _g = serve_lock();
    let sock = std::env::temp_dir().join(format!("clara-serve-test-{}.sock", std::process::id()));
    let handle = Server::start(
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            uds_path: Some(sock.to_string_lossy().into_owned()),
            workers: 2,
            queue_cap: 16,
            batch_max: 4,
            deadline: None,
            backends: Vec::new(),
            precision: Precision::F64,
        },
        clara(),
    )
    .expect("server binds TCP and UDS");
    let uds_path = handle.uds_path().expect("uds enabled").to_string();

    let (line, _) = predict_req(77, "udpipencap", 80, 6262);
    let mut tcp = Conn::open(handle.addr());
    let tcp_resp = tcp.send(&line);

    let mut uds = UnixStream::connect(&uds_path).expect("connect unix socket");
    let mut wbuf = Vec::new();
    let mut rbuf = Vec::new();
    let mut uds_send = |stream: &mut UnixStream, line: &str| {
        transport::write_frame(stream, &mut wbuf, line).expect("write frame");
        transport::read_frame(stream, &mut rbuf)
            .expect("read frame")
            .expect("server answers the frame")
    };
    let uds_resp = uds_send(&mut uds, &line);
    assert_eq!(
        uds_resp, tcp_resp,
        "the same request over UDS frames and TCP lines must serve identical bytes"
    );
    // Repeated frames on one connection exercise the reusable buffers.
    let again = uds_send(&mut uds, &line);
    assert_eq!(again, uds_resp, "framed responses are stable across reuse");
    let stats = uds_send(&mut uds, &protocol::render_request(None, &Request::Stats));
    let v = serde_json::parse_value(&stats).expect("framed stats parses");
    assert!(
        matches!(v.get("tenants"), Some(Value::Seq(_))),
        "framed stats carries the tenant section: {stats}"
    );

    drop(uds);
    handle.drain();
    let summary = handle.join();
    assert_eq!(summary.served, 3, "one TCP predict + two framed predicts");
    assert_eq!(summary.errors, 0);
    assert!(!sock.exists(), "join must remove the socket file");
}

/// Polls `stats` on `conn` until `done` holds, failing after a minute.
fn wait_for_stats(conn: &mut Conn, what: &str, done: impl Fn(&str) -> bool) {
    let started = std::time::Instant::now();
    loop {
        let stats = conn.send(&protocol::render_request(None, &Request::Stats));
        if done(&stats) {
            return;
        }
        assert!(
            started.elapsed() < std::time::Duration::from_secs(60),
            "timed out waiting for {what}: {stats}"
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
}

/// A cache hit is answered on the connection thread: with the only
/// worker busy and the one queue slot taken, a warm key still gets `ok`,
/// byte-identical to its first reply (a queued hit would get
/// `overloaded`). Once drain has begun the same key gets `draining`, and
/// the summary counts exactly the replies that were `ok`, and the
/// prediction cache exactly the hit that was answered.
#[test]
fn cache_hits_skip_a_full_queue_but_not_drain() {
    let _g = serve_lock();
    let handle = start(1, 1, 1);
    let addr = handle.addr();
    let hits = clara_repro::obs::counter("serve.cache.predict_hits");
    let hits_before = hits.value();
    let mut key_conn = Conn::open(addr);
    let mut watch = Conn::open(addr);
    let mut drain_conn = Conn::open(addr);

    let (key, _) = predict_req(1, "tcpack", 60, 4141);
    let first = key_conn.send(&key);
    assert!(
        first.contains("\"ok\":true"),
        "warming the key succeeds: {first}"
    );

    std::thread::scope(|scope| {
        // Two heavy distinct misses: the first occupies the worker, the
        // second takes the queue's only slot. 12,000 packets keep the
        // worker busy for about a second in a debug build, far longer
        // than the key's round trip below.
        let heavy = |i: u64| {
            let (line, _) = predict_req(10 + i, "cmsketch", 12_000, 9100 + i);
            let mut conn = Conn::open(addr);
            scope.spawn(move || conn.send(&line))
        };
        let busy = heavy(0);
        wait_for_stats(&mut watch, "the worker to take the first miss", |st| {
            stat_u64(st, "in_flight") == 1 && stat_u64(st, "queue_depth") == 0
        });
        let queued = heavy(1);
        wait_for_stats(&mut watch, "the second miss to fill the queue", |st| {
            stat_u64(st, "in_flight") == 1 && stat_u64(st, "queue_depth") == 1
        });

        let again = key_conn.send(&key);
        assert_eq!(
            again, first,
            "a hit skips the full queue and serves the same bytes"
        );

        let drainer = scope
            .spawn(move || drain_conn.send(&protocol::render_request(Some(99), &Request::Drain)));
        wait_for_stats(&mut watch, "drain to begin", |st| {
            st.contains("\"draining\":true")
        });
        let refused = key_conn.send(&key);
        assert!(
            refused.contains(r#""error":"draining""#),
            "a hit after drain began is refused: {refused}"
        );

        for h in [busy, queued] {
            let resp = h.join().expect("heavy client");
            assert!(
                resp.contains("\"ok\":true"),
                "admitted misses are served: {resp}"
            );
        }
        let drained = drainer.join().expect("drain client");
        assert!(
            drained.contains("\"ok\":true"),
            "drain succeeds: {drained:.200}"
        );
        assert_eq!(
            stat_u64(&drained, "served"),
            4,
            "drain counts every ok reply"
        );
    });

    let summary = handle.join();
    assert_eq!(summary.served, 4, "two key replies and two heavy misses");
    assert_eq!(summary.overloaded, 0);
    assert_eq!(summary.errors, 0);
    assert_eq!(
        hits.value() - hits_before,
        1,
        "exactly the key's one answered hit"
    );
}

/// Reads until the peer closes; a reset counts as closed too.
fn assert_closed(r: &mut impl std::io::Read) {
    let mut rest = Vec::new();
    match r.read_to_end(&mut rest) {
        Ok(_) => assert!(rest.is_empty(), "nothing may follow the refusal"),
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{e}"),
    }
}

/// A TCP line over the request cap gets a typed `bad_request` as soon as
/// it outgrows the cap (the client never sends its newline), the
/// connection is closed, and a fresh connection is served normally.
#[test]
fn over_long_tcp_line_is_refused_and_the_connection_closed() {
    use clara_repro::serve::transport::MAX_REQUEST_LEN;

    let _g = serve_lock();
    let handle = start(1, 4, 1);
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("read timeout");
    stream
        .write_all(&vec![b'x'; MAX_REQUEST_LEN + 1])
        .expect("write the over-long line");
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    reader
        .read_line(&mut reply)
        .expect("the daemon answers within the read timeout");
    assert!(
        reply.contains(r#""error":"bad_request""#),
        "over-long line is a typed bad_request: {reply}"
    );
    assert_closed(&mut reader);

    let (line, _) = predict_req(3, "tcpack", 60, 4242);
    let resp = Conn::open(handle.addr()).send(&line);
    assert!(
        resp.contains("\"ok\":true"),
        "a fresh connection is served: {resp}"
    );
    handle.drain();
    let summary = handle.join();
    assert_eq!(summary.served, 1);
    assert_eq!(summary.errors, 1, "the refusal is charged to `default`");
}

/// A UDS frame whose length header is over the request cap gets a typed
/// `bad_request` without the daemon waiting for its body, the connection
/// is closed, and a fresh connection is served normally.
#[cfg(unix)]
#[test]
fn over_long_uds_frame_is_refused_and_the_connection_closed() {
    use clara_repro::serve::transport::{self, MAX_REQUEST_LEN};
    use std::os::unix::net::UnixStream;

    let _g = serve_lock();
    let sock = std::env::temp_dir().join(format!("clara-serve-cap-{}.sock", std::process::id()));
    let handle = Server::start(
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            uds_path: Some(sock.to_string_lossy().into_owned()),
            workers: 1,
            queue_cap: 4,
            batch_max: 1,
            deadline: None,
            backends: Vec::new(),
            precision: Precision::F64,
        },
        clara(),
    )
    .expect("server binds TCP and UDS");
    let mut stream = UnixStream::connect(&sock).expect("connect unix socket");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("read timeout");
    // The header alone: a daemon that waited for the body would hang.
    stream
        .write_all(&((MAX_REQUEST_LEN + 1) as u32).to_le_bytes())
        .expect("write the header");
    let mut buf = Vec::new();
    let reply = transport::read_frame(&mut stream, &mut buf)
        .expect("the daemon answers within the read timeout")
        .expect("a reply frame");
    assert!(
        reply.contains(r#""error":"bad_request""#),
        "over-long frame is a typed bad_request: {reply}"
    );
    assert_closed(&mut stream);

    let (line, _) = predict_req(4, "tcpack", 60, 4343);
    let mut fresh = UnixStream::connect(&sock).expect("reconnect");
    transport::write_frame(&mut fresh, &mut Vec::new(), &line).expect("write frame");
    let resp = transport::read_frame(&mut fresh, &mut buf)
        .expect("read frame")
        .expect("a reply frame");
    assert!(
        resp.contains("\"ok\":true"),
        "a fresh connection is served: {resp}"
    );
    drop(fresh);
    handle.drain();
    let summary = handle.join();
    assert_eq!(summary.served, 1);
    assert_eq!(summary.errors, 1, "the refusal is charged to `default`");
}

/// A request nested deeper than the JSON parser's bound — one line of
/// 20,000 `[`, well under the request cap — is a typed `bad_request` on
/// both codecs, not a stack overflow on the connection thread, and the
/// same connections go on to answer `stats`.
#[cfg(unix)]
#[test]
fn deeply_nested_request_is_a_typed_bad_request_on_both_codecs() {
    use clara_repro::serve::transport;
    use std::os::unix::net::UnixStream;

    let _g = serve_lock();
    let sock = std::env::temp_dir().join(format!("clara-serve-deep-{}.sock", std::process::id()));
    let handle = Server::start(
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            uds_path: Some(sock.to_string_lossy().into_owned()),
            workers: 1,
            queue_cap: 4,
            batch_max: 1,
            deadline: None,
            backends: Vec::new(),
            precision: Precision::F64,
        },
        clara(),
    )
    .expect("server binds TCP and UDS");
    let deep = "[".repeat(20_000);
    let stats = protocol::render_request(None, &Request::Stats);

    let mut tcp = Conn::open(handle.addr());
    let reply = tcp.send(&deep);
    assert!(
        reply.contains(r#""error":"bad_request""#),
        "a deeply nested TCP line is a typed bad_request: {reply}"
    );
    assert!(
        tcp.send(&stats).contains("\"ok\":true"),
        "TCP still answers stats"
    );

    let mut uds = UnixStream::connect(&sock).expect("connect unix socket");
    let (mut wbuf, mut rbuf) = (Vec::new(), Vec::new());
    let mut uds_send = |line: &str| {
        transport::write_frame(&mut uds, &mut wbuf, line).expect("write frame");
        transport::read_frame(&mut uds, &mut rbuf)
            .expect("read frame")
            .expect("server answers the frame")
    };
    let reply = uds_send(&deep);
    assert!(
        reply.contains(r#""error":"bad_request""#),
        "a deeply nested UDS frame is a typed bad_request: {reply}"
    );
    assert!(
        uds_send(&stats).contains("\"ok\":true"),
        "UDS still answers stats"
    );

    drop(uds);
    drop(tcp);
    handle.drain();
    let summary = handle.join();
    assert_eq!(summary.errors, 2, "both refusals are counted");
}

/// (i) With a zero deadline every queued request expires before a worker
/// takes it: each gets the typed `deadline` error and counts in `errors`,
/// and `served + errors` reconciles at drain. The server installs the
/// deadline as the engine's stage deadline too, and `join` clears it, so
/// a later server without a deadline serves normally.
#[test]
fn zero_deadline_rejects_queued_work_and_ends_with_its_server() {
    let _g = serve_lock();
    let start_with = |deadline| {
        Server::start(
            ServeOptions {
                addr: "127.0.0.1:0".to_string(),
                workers: 2,
                queue_cap: 16,
                batch_max: 4,
                deadline,
                ..ServeOptions::default()
            },
            clara(),
        )
        .expect("server binds an ephemeral port")
    };

    let handle = start_with(Some(std::time::Duration::ZERO));
    let mut conn = Conn::open(handle.addr());
    let mut lines: Vec<String> = (0..3)
        .map(|i| predict_req(i, "cmsketch", 80, 7100 + i).0)
        .collect();
    let (_, analyze) = predict_req(3, "aggcounter", 80, 7103);
    lines.push(protocol::render_request(
        Some(3),
        &Request::Analyze(analyze),
    ));
    for line in &lines {
        let resp = conn.send(line);
        assert!(
            resp.contains(r#""error":"deadline""#),
            "queued work past its budget is a typed deadline error: {resp}"
        );
    }
    let stats = conn.send(&protocol::render_request(None, &Request::Stats));
    assert_eq!(stat_u64(&stats, "errors"), lines.len() as u64);
    assert_eq!(stat_u64(&stats, "served"), 0);
    let drained = conn.send(&protocol::render_request(Some(9), &Request::Drain));
    assert_eq!(stat_u64(&drained, "served"), 0, "{drained}");
    let summary = handle.join();
    assert_eq!(
        (summary.served, summary.errors),
        (0, lines.len() as u64),
        "served + errors reconciles with the requests sent"
    );

    let handle = start_with(None);
    let mut conn = Conn::open(handle.addr());
    let (line, _) = predict_req(10, "cmsketch", 80, 7110);
    let resp = conn.send(&line);
    assert!(
        resp.contains("\"ok\":true"),
        "a server without a deadline serves normally: {resp}"
    );
    handle.drain();
    let summary = handle.join();
    assert_eq!((summary.served, summary.errors), (1, 0));
}
