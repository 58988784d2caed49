//! `clara-perf`: the repository's benchmark.
//!
//! ```console
//! $ cargo run --release --manifest-path clara-perf/Cargo.toml -- \
//!       --workload drift --seed 1 --seconds 15 --trace 0
//! $ cargo run --release --manifest-path clara-perf/Cargo.toml -- \
//!       --compare parent.jsonl change.jsonl
//! ```
//!
//! A run builds the shipped `clara` binary, drives one workload against it
//! (see `clara-perf/README.md`), checks every output it can against the
//! in-process facade, prints each metric with its unit, writes
//! `BENCH_perf.json` (plus `BENCH_perf_trace.json` with `--trace 1`), and
//! ends its standard output with one JSON line:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` replays the
//! seeded inputs in-process, layer by layer, and reports the per-layer
//! ones. Exit status: 0 when every check passed, 1 when a check failed or
//! the run could not complete, 2 for usage errors.

mod check;
mod compare;
mod gen;
mod loadgen;
mod net;
mod run;
mod stats;
mod traced;

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

use serde::Value;

/// The benchmark's workloads, in `BENCHMARK.json` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Prediction-cache hits over TCP lines.
    HotTcp,
    /// The same stream over UDS frames.
    HotUds,
    /// Trace-dependent prediction misses after a traffic shift.
    Drift,
    /// Open-loop analyze and placement planning.
    Plan,
    /// Training plus one-shot CLI analyses.
    Offline,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 5] = [
        Workload::HotTcp,
        Workload::HotUds,
        Workload::Drift,
        Workload::Plan,
        Workload::Offline,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotTcp => "hot-tcp",
            Workload::HotUds => "hot-uds",
            Workload::Drift => "drift",
            Workload::Plan => "plan",
            Workload::Offline => "offline",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests, one-shot runs and trainings attempted.
    pub attempted: u64,
    /// Of those, the ones that failed, were refused, or gave a wrong
    /// answer, plus any other failed check.
    pub failed: u64,
    /// The reported metrics.
    pub metrics: Vec<Metric>,
    /// Deterministic work counts (must repeat exactly for a seed).
    pub counts: Vec<(String, u64)>,
    /// Fewest latency samples any reported percentile rests on.
    pub samples: usize,
    /// Descriptions of failed checks.
    pub problems: Vec<String>,
    /// Spans of a traced run.
    pub spans: Vec<traced::Span>,
}

impl Outcome {
    /// Records a failed check.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.problems.push(what);
    }
}

/// Everything a run needs besides its workload.
pub struct Ctx {
    /// `--seed`: drives every request stream and one-shot input.
    pub seed: u64,
    /// `--seconds`: the measured window.
    pub window: Duration,
    /// The `clara` binary under test.
    pub bin: PathBuf,
    /// Scratch directory inside the checkout (model files, sockets).
    pub tmp: PathBuf,
    /// Client connections and threads: min(2, nproc).
    pub conns: usize,
    /// Extended-corpus NF names.
    pub names: Vec<&'static str>,
    /// Built-in device names, default first.
    pub backends: Vec<&'static str>,
}

fn usage() -> ! {
    eprintln!(
        "usage: clara-perf --workload <{}> --seed N --seconds N --trace 0|1\n       \
         clara-perf --compare PARENT.jsonl CHANGE.jsonl",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--compare") {
        let [_, parent, change] = args.as_slice() else {
            usage()
        };
        std::process::exit(match compare::run(Path::new(parent), Path::new(change)) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("clara-perf: {e}");
                1
            }
        });
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let v = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(v).unwrap_or_else(|| usage())),
            "--seed" => seed = Some(v.parse::<u64>().unwrap_or_else(|_| usage())),
            "--seconds" => seconds = Some(v.parse::<u64>().unwrap_or_else(|_| usage())),
            "--trace" => {
                trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                })
            }
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };
    if seconds == 0 {
        usage();
    }
    std::process::exit(match bench(workload, seed, seconds, trace) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("clara-perf: {e}");
            1
        }
    });
}

/// Builds the program, runs one workload, reports. `Ok(false)` when a
/// check failed.
fn bench(workload: Workload, seed: u64, seconds: u64, trace: bool) -> Result<bool, String> {
    // The in-process half must see what the daemon sees: no report
    // sink, no disk cache, no injected faults, two engine workers. Set
    // before any thread exists.
    for k in net::SCRUBBED_ENV {
        std::env::remove_var(k);
    }
    std::env::set_var("CLARA_THREADS", net::THREADS);

    let bin = build_clara()?;
    let tmp = PathBuf::from(".clara-perf-tmp").join(std::process::id().to_string());
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let ctx = Ctx {
        seed,
        window: Duration::from_secs(seconds),
        bin,
        tmp: tmp.clone(),
        conns: nproc.min(2),
        names: clara_repro::click::extended_corpus()
            .iter()
            .map(clara_repro::click::NfElement::name)
            .collect(),
        backends: clara_repro::hal::builtin_names(),
    };
    let result = if trace {
        traced::run(&ctx, workload)
    } else {
        run::run(&ctx, workload)
    };
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_dir(".clara-perf-tmp");
    let out = result?;

    for m in &out.metrics {
        println!(
            "{:<8} {:<30} {:>14.4} {}",
            workload.name(),
            m.name,
            m.value,
            m.unit
        );
    }
    for (k, v) in &out.counts {
        println!(
            "{:<8} {:<30} {:>14} count (deterministic)",
            workload.name(),
            k,
            v
        );
    }
    if !trace {
        println!(
            "{:<8} p95 rests on {} samples, {} beyond it{}",
            workload.name(),
            out.samples,
            stats::beyond(out.samples, run::TAIL),
            if stats::supports(out.samples, run::TAIL) {
                ""
            } else {
                " (fewer than ten)"
            }
        );
    }
    for p in &out.problems {
        eprintln!("clara-perf: check failed: {p}");
    }
    let correct = out.failed == 0;
    let result = Value::Map(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::UInt(out.attempted)),
        ("failed".into(), Value::UInt(out.failed)),
        (
            "metrics".into(),
            Value::Map(
                out.metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.to_string(),
                            Value::Map(vec![
                                ("value".into(), number(m.value)),
                                ("unit".into(), Value::Str(m.unit.into())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    let host = host_metadata(&ctx, seed);
    let record = Value::Map(vec![
        ("workload".into(), Value::Str(workload.name().into())),
        ("seed".into(), Value::UInt(seed)),
        ("seconds".into(), Value::UInt(seconds)),
        ("trace".into(), Value::UInt(u64::from(trace))),
        ("p95_samples".into(), Value::UInt(out.samples as u64)),
        ("host".into(), host.clone()),
        ("result".into(), result.clone()),
        (
            "counts".into(),
            Value::Map(
                out.counts
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::UInt(*v)))
                    .collect(),
            ),
        ),
    ]);
    write_json("BENCH_perf.json", &record)?;
    if trace {
        write_json(
            "BENCH_perf_trace.json",
            &traced::span_file(workload, host, &out.spans),
        )?;
    }
    println!("{}", to_json(&result));
    Ok(correct)
}

/// A finite float, or `null`.
pub fn number(v: f64) -> Value {
    if v.is_finite() {
        Value::Float(v)
    } else {
        Value::Null
    }
}

/// Compact JSON text.
pub fn to_json(v: &Value) -> String {
    serde_json::to_string(v).expect("value rendering is infallible")
}

fn write_json(path: &str, v: &Value) -> Result<(), String> {
    std::fs::write(path, to_json(v) + "\n").map_err(|e| format!("{path}: {e}"))
}

/// Builds `clara` from the checkout in the working directory and returns
/// its path.
fn build_clara() -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args(["build", "--release", "--quiet", "--bin", "clara"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building clara failed ({status})"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let bin = target.join("release").join("clara");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} was not built", bin.display()))
    }
}

/// Host facts every output file carries.
fn host_metadata(ctx: &Ctx, seed: u64) -> Value {
    let rustc = Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    Value::Map(vec![
        (
            "nproc".into(),
            Value::UInt(std::thread::available_parallelism().map_or(1, |n| n.get() as u64)),
        ),
        ("connections".into(), Value::UInt(ctx.conns as u64)),
        ("git_rev".into(), Value::Str(git_rev())),
        ("rustc".into(), Value::Str(rustc)),
        ("seed".into(), Value::UInt(seed)),
    ])
}

/// The checked-out commit, read from `.git` without leaving the checkout
/// ("unknown" outside a git repository).
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let Some(refname) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{refname}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(refname).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}
