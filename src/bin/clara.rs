//! `clara` — command-line offloading-insight tool.
//!
//! ```console
//! $ clara list                         # show the NF corpus
//! $ clara corpus                       # corpus inventory as JSON (state class, tables, accel hits)
//! $ clara backends                     # show the built-in device manifests + accelerator menus
//! $ clara analyze mazunat              # full insight bundle for one NF
//! $ clara analyze cmsketch --small-flows --packets 4000
//! $ clara analyze nat --backend dpu-offpath   # insights for another device
//! $ clara analyze nat --backend all    # cross-device prediction deltas
//! $ clara ir iplookup                  # print the NF's IR
//! $ clara asm iplookup                 # print the vendor compiler output
//! $ clara sweep mazunat                # core-count sweep table
//! $ clara cache-verify                 # check CLARA_CACHE_DIR artifacts
//! $ clara difftest --seeds 500         # differential semantics oracle
//! $ clara predict cmsketch             # one-shot performance prediction
//! $ clara predict cmsketch --precision q16   # fixed-point fast path
//! $ clara place firewall,nat           # traffic-aware placement plan
//! $ clara place nat --replay shift --epochs 6   # drift-driven re-planning
//! $ clara quantcheck                   # q16-vs-f64 tolerance oracle
//! $ clara serve --addr 127.0.0.1:4117  # batched NF-analysis daemon
//! $ clara bench-serve --requests 300   # load-generate against the daemon
//! ```

use clara_repro::clara::{Clara, ClaraConfig, ClaraError, Precision};
use clara_repro::click::NfElement;
use clara_repro::hal::{self, Backend as _, DeviceBackend};
use clara_repro::nicsim::{self, PortConfig};
use clara_repro::obs;
use clara_repro::serve;
use clara_repro::trafgen::{Trace, WorkloadSpec};

fn pool() -> Vec<NfElement> {
    clara_repro::click::extended_corpus()
}

fn find(name: &str) -> NfElement {
    pool()
        .into_iter()
        .find(|e| e.name() == name)
        .unwrap_or_else(|| {
            eprintln!("unknown element `{name}`; run `clara list`");
            std::process::exit(2);
        })
}

fn usage() -> ! {
    eprintln!(
        "usage: clara <list|corpus|backends|analyze|predict|place|ir|asm|sweep|cache-verify|\
         difftest|quantcheck|serve|bench-serve> [element] [options]"
    );
    eprintln!(
        "  options: --small-flows  --packets N  --seed N  --cores N  --model FILE  \
         --report FILE  --backend NAME|all  --precision f64|q16"
    );
    eprintln!(
        "  place: NF[,NF...]  --packets N  --seed N  --small-flows  --backend NAME|FILE.toml  \
         --precision f64|q16  --objective throughput|host-cores  --replay steady|shift|burst|churn  \
         --epochs N  --drift-threshold X  --model FILE  --report FILE"
    );
    eprintln!(
        "  difftest: --seeds N  --start N  --packets N  --artifacts DIR  --no-shrink  \
         --smoke  --inject  --replay FILE  --backends all|A,B,..."
    );
    eprintln!(
        "  quantcheck: --model FILE  --packets N  --seed N  --reps N  \
         --require-speedup X  --artifacts DIR"
    );
    eprintln!(
        "  serve: --addr HOST:PORT  --transport tcp|uds|both  --uds PATH  --workers N  \
         --queue-cap N  --batch-max N  --deadline-ms N  --model FILE  --seed N  \
         --backends all|A,B,...  --precision f64|q16"
    );
    eprintln!(
        "  bench-serve: --addr HOST:PORT  --transport tcp|uds  --uds PATH  --requests N  \
         --conns N  --nf NAME  --packets N  --seed N  --burst N  --burst-packets N  \
         --baseline N  --model FILE  --require-speedup X  --drain  --report FILE  \
         --backend NAME  --precision f64|q16  --place-every N  --tenants N  --quota N  \
         --fairness  --matrix  --backends all|A,B,...  --require-uds-win"
    );
    eprintln!(
        "  environment: CLARA_THREADS=N  CLARA_CACHE_DIR=DIR  \
         CLARA_FAULTS=<seed>:<rate>[:<depth>]  CLARA_REPORT=FILE"
    );
    eprintln!(
        "  exit codes: 0 success, 1 other errors, 2 usage, 3 degraded run \
         (engine tasks failed permanently), 4 cache corruption, 5 I/O failure, \
         6 difftest divergence, 7 serve/bench failure, 8 invalid manifest or \
         unknown backend, 9 quantization tolerance violation, 10 infeasible \
         placement / solver timeout / unknown NF in a placement request"
    );
    std::process::exit(2);
}

/// Reuses a previously trained pipeline when `model` points at an
/// existing file; trains (and saves, when a path was given) otherwise.
fn load_or_train(model: &Option<String>, seed: u64) -> Result<Clara, ClaraError> {
    match model {
        Some(path) if std::path::Path::new(path).exists() => {
            eprintln!("loading trained model from {path}...");
            Clara::load(path)
        }
        other => {
            eprintln!("training Clara (one-time, ~a minute in release mode)...");
            let c = Clara::train(&ClaraConfig::fast(seed))?;
            if let Some(path) = other {
                if let Err(e) = c.save(path) {
                    eprintln!("warning: could not save model to {path}: {e}");
                } else {
                    eprintln!("saved trained model to {path}");
                }
            }
            Ok(c)
        }
    }
}

struct Opts {
    small_flows: bool,
    packets: usize,
    seed: u64,
    cores: Option<u32>,
    model: Option<String>,
    report: Option<String>,
    backend: Option<String>,
    precision: Option<Precision>,
}

fn parse_opts(args: &[String]) -> Opts {
    let mut o = Opts {
        small_flows: false,
        packets: 3000,
        seed: 42,
        cores: None,
        model: None,
        // The CLARA_REPORT environment variable arms the sink too.
        report: obs::sink_from_env(),
        backend: None,
        precision: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--small-flows" => o.small_flows = true,
            "--packets" => {
                o.packets = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--seed" => {
                o.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--cores" => {
                o.cores = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--model" => o.model = it.next().cloned().or_else(|| usage()),
            "--report" => o.report = it.next().cloned().or_else(|| usage()),
            "--backend" => o.backend = it.next().cloned().or_else(|| usage()),
            "--precision" => o.precision = Some(parse_precision(it.next())),
            _ => usage(),
        }
    }
    o
}

/// Parses `--precision f64|q16` (usage exit on anything else).
fn parse_precision(arg: Option<&String>) -> Precision {
    match arg.map(|s| Precision::parse(s)) {
        Some(Ok(p)) => p,
        _ => usage(),
    }
}

fn trace_of(o: &Opts) -> Trace {
    let spec = if o.small_flows {
        WorkloadSpec::small_flows().with_flows(8192)
    } else {
        WorkloadSpec::large_flows()
    };
    Trace::generate(&spec, o.packets, o.seed)
}

fn main() {
    if let Err(e) = run() {
        eprintln!("clara: error: {e}");
        std::process::exit(e.exit_code());
    }
}

fn run() -> Result<(), ClaraError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => usage(),
    };
    match cmd {
        "list" => {
            println!("{:<14} {:<6} DESCRIPTION", "NAME", "STATE");
            for e in pool() {
                println!(
                    "{:<14} {:<6} {}",
                    e.name(),
                    if e.meta.stateful { "yes" } else { "no" },
                    e.meta.description
                );
            }
        }
        "ir" => {
            let (name, _) = rest.split_first().unwrap_or_else(|| usage());
            print!("{}", clara_repro::ir::print::module(&find(name).module));
        }
        "asm" => {
            let (name, _) = rest.split_first().unwrap_or_else(|| usage());
            let nic = clara_repro::nfcc::compile_module(&find(name).module);
            print!("{}", clara_repro::nfcc::print_asm(nic.handler()));
        }
        "sweep" => {
            let (name, opt_args) = rest.split_first().unwrap_or_else(|| usage());
            let o = parse_opts(opt_args);
            let e = find(name);
            let trace = trace_of(&o);
            let cfg = nicsim::NicConfig::default();
            let wp =
                nicsim::profile_workload(&e.module, &trace, &PortConfig::naive(), &cfg, |_| {});
            println!(
                "{:>5} {:>10} {:>12} {:>8}",
                "cores", "Mpps", "latency(us)", "ratio"
            );
            for c in [1u32, 2, 4, 8, 12, 16, 24, 32, 40, 48, 56, 60] {
                let p = nicsim::solve_perf(&wp, &cfg, &PortConfig::naive(), c);
                println!(
                    "{c:>5} {:>10.2} {:>12.2} {:>8.3}",
                    p.throughput_mpps,
                    p.latency_us,
                    p.ratio()
                );
            }
        }
        "backends" => {
            println!(
                "{:<14} {:<9} {:>5} {:>8} {:>6} {:<38} DESCRIPTION",
                "NAME", "CLASS", "CORES", "FREQ", "PORTS", "ACCELERATORS"
            );
            for b in hal::builtins() {
                let m = b.manifest();
                let menu = m
                    .menu()
                    .iter()
                    .map(|(_, v)| *v)
                    .collect::<Vec<_>>()
                    .join(",");
                println!(
                    "{:<14} {:<9} {:>5} {:>7.2}G {:>6} {:<38} {}",
                    b.name(),
                    m.class.as_str(),
                    m.cores,
                    m.freq_ghz,
                    m.ports.len(),
                    menu,
                    m.description
                );
            }
        }
        "corpus" => {
            // Deterministic machine-readable corpus inventory: state
            // class, table geometry, and catalog-variant hits per NF.
            // Hand-formatted so field order never depends on map
            // iteration order.
            println!("{{\"corpus\":[");
            let elems = pool();
            for (i, e) in elems.iter().enumerate() {
                let class = if e
                    .module
                    .globals
                    .iter()
                    .any(|g| g.kind == clara_repro::ir::StateKind::FlowTable)
                {
                    "flow-state"
                } else if e.meta.stateful {
                    "static-state"
                } else {
                    "stateless"
                };
                let state_bytes: u64 = e
                    .module
                    .globals
                    .iter()
                    .map(|g| u64::from(g.entry_bytes) * u64::from(g.entries))
                    .sum();
                let tables = e
                    .module
                    .globals
                    .iter()
                    .map(|g| {
                        let flow = g.flow.map_or(String::new(), |f| {
                            format!(
                                ",\"idle\":{},\"hard\":{},\"evict\":\"{}\"",
                                f.idle_timeout,
                                f.hard_timeout,
                                f.evict.name()
                            )
                        });
                        format!(
                            "{{\"name\":\"{}\",\"kind\":\"{}\",\"entry_bytes\":{},\"entries\":{}{}}}",
                            g.name,
                            g.kind.name(),
                            g.entry_bytes,
                            g.entries,
                            flow
                        )
                    })
                    .collect::<Vec<_>>()
                    .join(",");
                let hits = clara_repro::clara::algid::match_catalog(&e.module)
                    .iter()
                    .map(|v| format!("\"{}\"", v.name))
                    .collect::<Vec<_>>()
                    .join(",");
                let comma = if i + 1 < elems.len() { "," } else { "" };
                println!(
                    "{{\"name\":\"{}\",\"state_class\":\"{class}\",\"state_bytes\":{state_bytes},\
                     \"tables\":[{tables}],\"accel_hits\":[{hits}]}}{comma}",
                    e.name()
                );
            }
            println!("]}}");
        }
        "analyze" => {
            let (name, opt_args) = rest.split_first().unwrap_or_else(|| usage());
            let o = parse_opts(opt_args);
            if o.report.is_some() {
                obs::enable();
            }
            let e = find(name);
            let trace = trace_of(&o);
            let clara = load_or_train(&o.model, o.seed)?;
            if o.backend.as_deref() == Some("all") {
                analyze_all_backends(&clara, &e, &trace)?;
                write_report(&o.report);
                return Ok(());
            }
            let backend = match &o.backend {
                None => None,
                Some(name) => Some(resolve_backend(name)?),
            };
            let precision = o.precision.unwrap_or(clara.precision);
            let insights = match backend {
                // The no-flag path is the historical one, bit for bit.
                None => clara.analyze_prec(&e.module, &trace, precision)?,
                Some(b) => clara.analyze_on_prec(&e.module, &trace, b, precision)?,
            };
            match backend {
                None => println!("== insights for `{}` ==", e.name()),
                Some(b) => println!("== insights for `{}` on {} ==", e.name(), b.name()),
            }
            println!(
                "predicted compute instructions/packet: {:.0}",
                insights.predicted_compute
            );
            println!(
                "counted memory accesses: {} ({:.1}% fidelity)",
                insights.counted_mem, insights.mem_count_accuracy
            );
            match &insights.accel {
                Some((c, region)) => {
                    println!("accelerator: {} over blocks {:?}", c.name(), region)
                }
                None => println!("accelerator: none identified"),
            }
            println!("suggested cores: {}", insights.suggested_cores);
            for (g, l) in &insights.placement {
                println!(
                    "place {} -> {}",
                    e.module.global(*g).map_or("?", |d| d.name.as_str()),
                    l.name()
                );
            }
            for (i, cl) in insights.coalesce.clusters.iter().enumerate() {
                let names: Vec<&str> = cl
                    .iter()
                    .map(|(g, _)| e.module.global(*g).map_or("?", |d| d.name.as_str()))
                    .collect();
                println!("pack cluster {i}: {}", names.join(" + "));
            }
            let cores = o.cores.unwrap_or(insights.suggested_cores);
            let nic = backend.map_or(&clara.nic, |b| b.nic());
            // The analysis already profiled the NF under the naive port on
            // this device: re-solving that profile needs no second run.
            let naive = nicsim::solve_perf(&insights.profile, nic, &PortConfig::naive(), cores);
            let tuned = nicsim::simulate(&e.module, &trace, &insights.port_config(), nic, cores);
            println!(
                "at {cores} cores: naive {:.2} Mpps / {:.2} us -> Clara {:.2} Mpps / {:.2} us",
                naive.throughput_mpps, naive.latency_us, tuned.throughput_mpps, tuned.latency_us
            );
            write_report(&o.report);
        }
        "predict" => {
            let (name, opt_args) = rest.split_first().unwrap_or_else(|| usage());
            let o = parse_opts(opt_args);
            let e = find(name);
            let trace = trace_of(&o);
            let clara = load_or_train(&o.model, o.seed)?;
            let backend = match &o.backend {
                None => hal::default_backend(),
                Some(name) => resolve_backend(name)?,
            };
            let precision = o.precision.unwrap_or(clara.precision);
            let fp = clara.predictor_fingerprint();
            let p = clara
                .predict_batch_on_prec_cached(&[(&e.module, &trace)], backend, precision, fp)
                .pop()
                .expect("one item in, one result out")?;
            // Same rendering the daemon uses, so one-shot and served
            // predictions are directly comparable (and diffable).
            println!(
                "{}",
                serve::protocol::predict_response(None, e.name(), backend.name(), precision, &p)
            );
        }
        "place" => return place_cmd(rest),
        "quantcheck" => return quantcheck_cmd(rest),
        "serve" => return serve_cmd(rest),
        "bench-serve" => return bench_serve_cmd(rest),
        "difftest" => return difftest_cmd(rest),
        "cache-verify" => {
            let engine = clara_repro::clara::engine::Engine::new();
            match engine.verify_disk_cache()? {
                None => {
                    eprintln!("no persistent cache configured; set CLARA_CACHE_DIR to enable one");
                }
                Some(summary) => {
                    println!(
                        "scanned {} artifact(s): {} valid, {} corrupt",
                        summary.scanned,
                        summary.valid,
                        summary.corrupt.len()
                    );
                    for (path, detail) in &summary.corrupt {
                        eprintln!("  corrupt: {}: {detail}", path.display());
                    }
                    if let Some(err) = summary.into_error() {
                        return Err(err);
                    }
                }
            }
        }
        _ => usage(),
    }
    Ok(())
}

/// Resolves `--backend NAME` to a built-in device (exit 8 on unknown).
fn resolve_backend(name: &str) -> Result<&'static DeviceBackend, ClaraError> {
    Ok(clara_repro::clara::difftest::resolve_backends(&[name.to_string()])?[0])
}

/// Expands `--backends all|A,B,...` into a list of manifest names
/// (validated later, at resolution).
fn backend_list(arg: &str) -> Vec<String> {
    if arg == "all" {
        hal::builtin_names()
            .iter()
            .map(|s| (*s).to_string())
            .collect()
    } else {
        arg.split(',')
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect()
    }
}

/// Writes the deterministic run report when a sink is armed.
fn write_report(report: &Option<String>) {
    if let Some(raw) = report {
        let path = obs::resolve_sink(raw, "clara_cli.json");
        match obs::RunReport::capture().write(&path) {
            Ok(()) => eprintln!("run report written to {}", path.display()),
            Err(e) => eprintln!(
                "warning: could not write run report to {}: {e}",
                path.display()
            ),
        }
    }
}

/// `clara analyze NAME --backend all`: one prediction per built-in
/// device, plus deltas against the default backend — the cross-device
/// offloading comparison in table form.
fn analyze_all_backends(clara: &Clara, e: &NfElement, trace: &Trace) -> Result<(), ClaraError> {
    let fp = clara.predictor_fingerprint();
    let rows: Vec<(&DeviceBackend, clara_repro::clara::Prediction)> = hal::builtins()
        .iter()
        .map(|b| {
            clara
                .predict_batch_on_prec_cached(&[(&e.module, trace)], b, clara.precision, fp)
                .pop()
                .expect("one item in, one result out")
                .map(|p| (b, p))
        })
        .collect::<Result<_, _>>()?;
    println!("== cross-backend predictions for `{}` ==", e.name());
    println!(
        "{:<14} {:<9} {:>5} {:>5} {:>9} {:>12} {:>10}",
        "BACKEND", "CLASS", "CORES", "SUGG", "Mpps", "latency(us)", "compute"
    );
    for (b, p) in &rows {
        println!(
            "{:<14} {:<9} {:>5} {:>5} {:>9.2} {:>12.2} {:>10.0}",
            b.name(),
            b.manifest().class.as_str(),
            b.nic().cores,
            p.suggested_cores,
            p.predicted_throughput_mpps,
            p.predicted_latency_us,
            p.predicted_compute
        );
    }
    let (b0, p0) = &rows[0];
    for (b, p) in rows.iter().skip(1) {
        println!(
            "delta vs {}: {}: {:+.2} Mpps, {:+.2} us, {:+} cores",
            b0.name(),
            b.name(),
            p.predicted_throughput_mpps - p0.predicted_throughput_mpps,
            p.predicted_latency_us - p0.predicted_latency_us,
            i64::from(p.suggested_cores) - i64::from(p0.suggested_cores)
        );
    }
    Ok(())
}

/// `clara serve`: the batched, backpressured NF-analysis daemon.
///
/// Loads (or trains) the model once, binds the address, and serves the
/// versioned JSON-lines protocol until a `drain` request or SIGTERM
/// gracefully shuts it down. Bind failures exit 7.
fn serve_cmd(args: &[String]) -> Result<(), ClaraError> {
    use serve::ServeOptions;

    let mut so = ServeOptions::default();
    let mut model: Option<String> = None;
    let mut seed = 42u64;
    let mut want_uds = false;
    let mut it = args.iter();
    let num = |it: &mut std::slice::Iter<String>| -> u64 {
        it.next()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| usage())
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => so.addr = it.next().cloned().unwrap_or_else(|| usage()),
            "--transport" => match it.next().map(String::as_str) {
                Some("tcp") => want_uds = false,
                Some("uds" | "both") => want_uds = true,
                _ => usage(),
            },
            "--uds" => {
                so.uds_path = it.next().cloned().or_else(|| usage());
                want_uds = true;
            }
            "--workers" => so.workers = num(&mut it) as usize,
            "--queue-cap" => so.queue_cap = num(&mut it) as usize,
            "--batch-max" => so.batch_max = num(&mut it) as usize,
            "--deadline-ms" => so.deadline = Some(std::time::Duration::from_millis(num(&mut it))),
            "--model" => model = it.next().cloned().or_else(|| usage()),
            "--seed" => seed = num(&mut it),
            "--backends" => {
                so.backends = backend_list(&it.next().cloned().unwrap_or_else(|| usage()));
            }
            "--precision" => so.precision = parse_precision(it.next()),
            _ => usage(),
        }
    }
    if want_uds && so.uds_path.is_none() {
        so.uds_path = Some("/tmp/clara-serve.sock".to_string());
    } else if !want_uds {
        so.uds_path = None;
    }
    let clara = std::sync::Arc::new(load_or_train(&model, seed)?);
    serve::server::install_sigterm_drain();
    let handle = serve::Server::start(so, clara)?;
    println!("clara-serve listening on {}", handle.addr());
    if let Some(path) = handle.uds_path() {
        println!("clara-serve listening on unix socket {path}");
    }
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    let summary = handle.join();
    eprintln!(
        "clara-serve drained: {} served, {} overloaded, {} quota-exceeded, {} errors",
        summary.served, summary.overloaded, summary.quota_exceeded, summary.errors
    );
    Ok(())
}

/// `clara bench-serve`: the load generator. Exits 7 when any request
/// fails for a reason other than a typed `overloaded` rejection (or a
/// `--require-speedup` floor is missed).
fn bench_serve_cmd(args: &[String]) -> Result<(), ClaraError> {
    use serve::BenchOptions;

    let mut bo = BenchOptions::default();
    let mut it = args.iter();
    let num = |it: &mut std::slice::Iter<String>| -> u64 {
        it.next()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| usage())
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => bo.addr = it.next().cloned().unwrap_or_else(|| usage()),
            "--transport" => {
                bo.transport = it
                    .next()
                    .and_then(|v| serve::Transport::parse(v))
                    .unwrap_or_else(|| usage());
            }
            "--uds" => bo.uds_path = it.next().cloned().or_else(|| usage()),
            "--requests" => bo.requests = num(&mut it) as usize,
            "--conns" => bo.conns = num(&mut it) as usize,
            "--nf" => bo.nf = it.next().cloned().unwrap_or_else(|| usage()),
            "--packets" => bo.packets = num(&mut it) as usize,
            "--seed" => bo.seed = num(&mut it),
            "--burst" => bo.burst = num(&mut it) as usize,
            "--burst-packets" => bo.burst_packets = num(&mut it) as usize,
            "--baseline" => bo.baseline = num(&mut it) as usize,
            "--model" => bo.model = it.next().cloned().or_else(|| usage()),
            "--require-speedup" => {
                bo.require_speedup = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--drain" => bo.drain = true,
            "--report" => bo.report = it.next().cloned().or_else(|| usage()),
            "--backend" => bo.backend = it.next().cloned().or_else(|| usage()),
            "--precision" => bo.precision = Some(parse_precision(it.next())),
            "--place-every" => bo.place_every = num(&mut it) as usize,
            "--tenants" => bo.tenants = num(&mut it) as usize,
            "--quota" => bo.quota = Some(num(&mut it)),
            "--fairness" => bo.fairness = true,
            "--matrix" => bo.matrix = true,
            "--backends" => {
                bo.backends = backend_list(&it.next().cloned().unwrap_or_else(|| usage()));
            }
            "--require-uds-win" => bo.require_uds_win = true,
            _ => usage(),
        }
    }
    let s = serve::run_bench(&bo)?;
    println!(
        "bench-serve: {} sent, {} ok, {} overloaded, {} quota-exceeded, {} failed",
        s.sent, s.ok, s.overloaded, s.quota_exceeded, s.failed
    );
    println!(
        "throughput: {:.1} req/s; predict latency p50 {:.0} us, p95 {:.0} us, p99 {:.0} us",
        s.rps, s.p50_us, s.p95_us, s.p99_us
    );
    if s.place_ok > 0 {
        println!(
            "place: {} ok; latency p50 {:.0} us, p95 {:.0} us, p99 {:.0} us",
            s.place_ok, s.place_p50_us, s.place_p95_us, s.place_p99_us
        );
    }
    if let (Some(b), Some(x)) = (s.baseline_rps, s.speedup) {
        println!("baseline (one-shot CLI): {b:.2} req/s -> speedup {x:.1}x");
    }
    if let Some(f) = &s.fairness {
        println!(
            "fairness: victim p95 solo {:.0} us -> contended {:.0} us; \
             victim rejections {}, burster rejections {}",
            f.solo_p95_us, f.contended_p95_us, f.victim_rejections, f.burster_rejections
        );
    }
    if let (Some(t), Some(u)) = (s.tcp_rps, s.uds_rps) {
        println!("matrix: tcp {t:.1} req/s vs uds {u:.1} req/s");
    }
    if s.drained {
        println!("drain: ok");
    }
    Ok(())
}

/// `clara place`: traffic-aware placement planning for an NF set.
///
/// Prints the plan with the exact rendering the daemon's `op:"place"`
/// uses, so one-shot and served plans for the same request are
/// byte-identical. `--backend` accepts a built-in device name or a
/// manifest file path (loaded fresh, never warm). Infeasible instances,
/// solver-budget exhaustion, and unknown NFs exit 10.
fn place_cmd(args: &[String]) -> Result<(), ClaraError> {
    use clara_repro::clara::PlacementRequest;

    let (nf_arg, opt_args) = args.split_first().unwrap_or_else(|| usage());
    let nfs: Vec<&str> = nf_arg.split(',').filter(|s| !s.is_empty()).collect();
    if nfs.is_empty() {
        usage();
    }
    let mut b = PlacementRequest::builder(nfs);
    let mut model: Option<String> = None;
    let mut report = obs::sink_from_env();
    let mut backend: Option<String> = None;
    let mut seed = 42u64;
    let mut it = opt_args.iter();
    let num = |it: &mut std::slice::Iter<String>| -> u64 {
        it.next()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| usage())
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--packets" => b = b.packets(num(&mut it) as usize),
            "--seed" => {
                seed = num(&mut it);
                b = b.seed(seed);
            }
            "--small-flows" => b = b.small_flows(true),
            "--backend" => backend = it.next().cloned().or_else(|| usage()),
            "--precision" => b = b.precision(parse_precision(it.next())),
            "--objective" => {
                let o = it.next().unwrap_or_else(|| usage());
                b = b.objective(clara_repro::clara::Objective::parse(o).unwrap_or_else(|| usage()));
            }
            "--replay" => b = b.replay(it.next().cloned().unwrap_or_else(|| usage())),
            "--epochs" => b = b.epochs(num(&mut it) as usize),
            "--drift-threshold" => {
                b = b.drift_threshold(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--model" => model = it.next().cloned().or_else(|| usage()),
            "--report" => report = it.next().cloned().or_else(|| usage()),
            _ => usage(),
        }
    }
    if report.is_some() {
        obs::enable();
    }
    let clara = load_or_train(&model, seed)?;
    // A backend argument that points at a file is a device manifest
    // loaded for this run; anything else must be a built-in name (the
    // same set the daemon can hold warm).
    let from_file = backend.as_deref().is_some_and(|p| {
        p.ends_with(".toml") || p.contains('/') || std::path::Path::new(p).exists()
    });
    let plan = if from_file {
        let dev = DeviceBackend::load(backend.as_deref().expect("checked above"))?;
        let req = b.build();
        clara.place_on_prec(&req, &dev, req.precision.unwrap_or(clara.precision))?
    } else {
        if let Some(name) = backend {
            b = b.backend(name);
        }
        clara.place(&b.build())?
    };
    println!("{}", serve::protocol::place_response(None, &plan));
    write_report(&report);
    Ok(())
}

/// `clara quantcheck`: the f64-vs-q16 quantization oracle. Runs the
/// extended corpus through both inference paths, enforces the pinned
/// block tolerance and core-count identity, and (with
/// `--require-speedup`) a predict-stage speed floor. Exits 9 on any
/// violation, with a minimized repro under `--artifacts`.
fn quantcheck_cmd(args: &[String]) -> Result<(), ClaraError> {
    use clara_repro::clara::quantcheck::{self, QuantcheckConfig};

    let mut cfg = QuantcheckConfig::default();
    let mut model: Option<String> = None;
    let mut seed = 42u64;
    let mut it = args.iter();
    let num = |it: &mut std::slice::Iter<String>| -> u64 {
        it.next()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| usage())
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--model" => model = it.next().cloned().or_else(|| usage()),
            "--packets" => cfg.packets = num(&mut it) as usize,
            "--seed" => {
                seed = num(&mut it);
                cfg.seed = seed;
            }
            "--reps" => cfg.reps = num(&mut it) as usize,
            "--require-speedup" => {
                cfg.require_speedup = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--artifacts" => {
                cfg.artifact_dir = Some(it.next().unwrap_or_else(|| usage()).into());
            }
            _ => usage(),
        }
    }
    let clara = load_or_train(&model, seed)?;
    let report = quantcheck::run(&clara, &cfg)?;
    print!("{}", report.render());
    println!(
        "quantcheck: {} NF(s) within tolerance (rel {:.0}%, abs {})",
        report.rows.len(),
        cfg.rel_tol * 100.0,
        cfg.abs_tol
    );
    Ok(())
}

/// `clara difftest`: the three-layer differential semantics oracle.
///
/// Without flags, sweeps `--seeds` synthesized NFs through the
/// reference executor, the interpreter, and the optimized-module
/// interpreter, exiting 6 on any divergence. `--smoke` proves the
/// oracle catches an injected miscompile and that the shrinker
/// minimizes it; `--replay FILE` re-runs a minimized artifact.
fn difftest_cmd(args: &[String]) -> Result<(), ClaraError> {
    use clara_repro::clara::difftest::{self, DifftestConfig, Injection};

    let mut cfg = DifftestConfig::default();
    let mut seed = 0u64;
    let mut smoke = false;
    let mut replay: Option<String> = None;
    let report = obs::sink_from_env();
    let mut it = args.iter();
    let num = |it: &mut std::slice::Iter<String>| -> u64 {
        it.next()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| usage())
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seeds" => cfg.seeds = num(&mut it),
            "--start" => cfg.start_seed = num(&mut it),
            "--packets" | "--pkts" => cfg.pkts = num(&mut it) as usize,
            "--seed" => seed = num(&mut it),
            "--artifacts" => {
                cfg.artifact_dir = Some(it.next().unwrap_or_else(|| usage()).into());
            }
            "--no-shrink" => cfg.shrink = false,
            "--inject" => cfg.inject = Some(Injection::FlipArith),
            "--smoke" => smoke = true,
            "--replay" => replay = it.next().cloned().or_else(|| usage()),
            "--backends" => {
                cfg.backends = backend_list(&it.next().cloned().unwrap_or_else(|| usage()));
            }
            _ => usage(),
        }
    }
    if report.is_some() {
        obs::enable();
    }

    let result = if smoke {
        let r = difftest::smoke();
        println!(
            "smoke: injected miscompile {}; shrinker: {} -> {} blocks ({} insts)",
            if r.caught { "caught" } else { "MISSED" },
            r.blocks_before,
            r.blocks_after,
            r.insts_after
        );
        if !r.caught || r.blocks_after > 3 {
            Err(ClaraError::Prediction {
                detail: format!(
                    "difftest smoke failed: caught={} blocks_after={}",
                    r.caught, r.blocks_after
                ),
            })
        } else {
            Ok(())
        }
    } else if let Some(path) = replay {
        match difftest::replay(std::path::Path::new(&path), cfg.pkts, seed, cfg.inject)? {
            Some(div) => {
                println!("{path}: diverges: {div}");
                Err(ClaraError::Divergence {
                    found: 1,
                    checked: 1,
                    artifact_dir: None,
                })
            }
            None => {
                println!(
                    "{path}: no divergence over {} packets (seed {seed})",
                    cfg.pkts
                );
                Ok(())
            }
        }
    } else {
        let rep = difftest::run(&cfg)?;
        if cfg.backends.len() >= 2 {
            println!(
                "cross-backend: {} device(s), max compute delta {:.1} cycles/pkt",
                cfg.backends.len(),
                rep.max_backend_compute_delta
            );
        }
        for r in &rep.divergent {
            let div = r.divergence.as_ref().expect("divergent seeds carry one");
            println!("seed {:>6} ({}): {div}", r.seed, r.module_name);
            if let Some(m) = &r.minimized {
                println!(
                    "  minimized: {} -> {} blocks, {} -> {} insts ({} oracle checks)",
                    m.blocks_before, m.blocks_after, m.insts_before, m.insts_after, m.checks
                );
            }
            if let Some(p) = &r.artifact {
                println!("  repro written to {}", p.display());
            }
            if let Some(e) = &r.artifact_error {
                eprintln!("  warning: could not write artifact: {e}");
            }
        }
        println!(
            "difftest: {} seed(s) clean, {} divergent, {} engine failure(s)",
            rep.checked,
            rep.divergent.len(),
            rep.engine_failures
        );
        rep.into_result().map(|_| ())
    };

    if let Some(raw) = &report {
        let path = obs::resolve_sink(raw, "clara_difftest.json");
        match obs::RunReport::capture().write(&path) {
            Ok(()) => eprintln!("run report written to {}", path.display()),
            Err(e) => eprintln!(
                "warning: could not write run report to {}: {e}",
                path.display()
            ),
        }
    }
    result
}
