//! Golden cross-device matrix: one trained pipeline, every Click corpus
//! element, every built-in device manifest.
//!
//! Two pins live here:
//!
//! - `cross_device_matrix_matches_golden` renders per-(element, backend)
//!   prediction summaries (suggested cores, modeled throughput/latency,
//!   compute estimate, counted memory accesses) and compares them to
//!   `tests/golden/backend_matrix.txt`. A change to any manifest, to the
//!   performance model, or to the HAL plumbing shows up as a readable
//!   diff instead of a silent drift.
//! - `default_backend_report_is_byte_identical_to_legacy` proves the
//!   ISSUE's compatibility clause: analyzing on the default `agilio-cx`
//!   backend produces a deterministic telemetry report byte-identical to
//!   the legacy pre-HAL path, and pins that report's fingerprint in
//!   `tests/golden/backend_report_fp.txt`.
//!
//! The `cli_*` tests drive the `clara` binary as a subprocess on the same
//! trained pipeline, saved once: `predict --backend` prints the facade's
//! answer, `analyze --backend all` matches `tests/golden/cli_analyze_all.txt`,
//! one-shot `analyze` of seven NFs matches `tests/golden/cli_analyze_oneshot.txt`,
//! an unknown `--backend` exits 8, a missed `quantcheck` speed floor exits
//! 9, and an infeasible placement exits 10.
//!
//! Regenerate after an *intentional* change with:
//!
//! ```sh
//! CLARA_BLESS=1 cargo test --test backend_matrix
//! ```

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::{Mutex, OnceLock};

use clara_repro::clara::{engine, Clara, ClaraConfig, Precision};
use clara_repro::hal::{self, Backend as _};
use clara_repro::serve::protocol;
use clara_repro::trafgen::{Trace, WorkloadSpec};

/// Both tests drive the process-global engine and telemetry registry;
/// they must not interleave.
static OBS_LOCK: Mutex<()> = Mutex::new(());

/// Takes [`OBS_LOCK`], ignoring poison: one test's failure must report
/// as one failure, not cascade into the others.
fn obs_lock() -> std::sync::MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// One trained pipeline shared by both tests (training dominates
/// runtime; predictions are cheap).
fn clara() -> &'static Clara {
    static CLARA: OnceLock<Clara> = OnceLock::new();
    CLARA.get_or_init(|| Clara::train(&ClaraConfig::fast(11)).expect("training succeeds"))
}

/// [`clara`] saved once for the CLI tests, so the subprocess answers
/// from the same weights without a second training. The bytes are a
/// deterministic function of the config; writing through a temporary
/// and renaming keeps a concurrent run from reading a partial file.
fn model_file() -> &'static Path {
    static MODEL: OnceLock<PathBuf> = OnceLock::new();
    MODEL.get_or_init(|| {
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
        let path = dir.join("backend_matrix_model.json");
        let tmp = dir.join(format!("backend_matrix_model.{}.tmp", std::process::id()));
        clara().save(&tmp).expect("save model");
        std::fs::rename(&tmp, &path).expect("move model into place");
        path
    })
}

/// Runs the `clara` binary on [`model_file`] with no run-report sink.
fn clara_cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_clara"))
        .args(args)
        .arg("--model")
        .arg(model_file())
        .env_remove("CLARA_REPORT")
        .output()
        .expect("spawn clara")
}

fn stdout_of(out: &Output) -> String {
    assert!(
        out.status.success(),
        "clara exited {:?}: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

fn golden_path(name: &str) -> String {
    format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn check_golden(name: &str, got: &str) {
    let path = golden_path(name);
    if std::env::var("CLARA_BLESS").is_ok() {
        std::fs::write(&path, got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!("{path} missing; regenerate with CLARA_BLESS=1 cargo test --test backend_matrix")
    });
    assert_eq!(
        got, &want,
        "{name} changed; if intentional, regenerate with CLARA_BLESS=1 cargo test --test backend_matrix"
    );
}

#[test]
fn cross_device_matrix_matches_golden() {
    let _g = obs_lock();
    let clara = clara();
    let mut out = String::from(
        "# backend matrix golden: <element> <backend> cores=<suggested> \
         mpps=<throughput> lat_us=<latency> compute=<cycles/pkt> mem=<counted>\n",
    );
    let fp = clara.predictor_fingerprint();
    for e in clara_repro::click::corpus() {
        let trace = Trace::generate(&WorkloadSpec::imix(), 60, 7);
        for b in hal::builtins() {
            let p = clara
                .predict_batch_on_prec_cached(&[(&e.module, &trace)], b, clara.precision, fp)
                .pop()
                .expect("one item in, one result out")
                .expect("prediction succeeds");
            writeln!(
                out,
                "{} {} cores={} mpps={:.3} lat_us={:.3} compute={:.1} mem={}",
                e.name(),
                b.name(),
                p.suggested_cores,
                p.predicted_throughput_mpps,
                p.predicted_latency_us,
                p.predicted_compute,
                p.counted_mem
            )
            .expect("write to string");
        }
    }
    // Ported compute cycles for the accelerator-eligible NFs — the rows
    // where a device's declared catalog variant shows: dpu-offpath's
    // `crc64-ecma` menu entry doubles the CRC per-iteration charge, so
    // its `ported` rows for the CRC NFs differ from what the identical
    // device with the default variant would produce (see
    // `dpu_crc_variant_delta_is_attributable_to_the_catalog`).
    for name in ["cmsketch", "wepdecap", "iplookup"] {
        let e = clara_repro::click::corpus()
            .into_iter()
            .find(|e| e.name() == name)
            .expect("known corpus element");
        let trace = Trace::generate(&WorkloadSpec::imix(), 60, 7);
        for b in hal::builtins() {
            let insights = clara
                .analyze_on_prec(&e.module, &trace, b, clara.precision)
                .expect("analyze succeeds");
            let port = insights.port_config();
            let wp =
                clara_repro::nicsim::profile_workload(&e.module, &trace, &port, b.nic(), |_| {});
            writeln!(
                out,
                "ported {} {} cycles={:.3}",
                e.name(),
                b.name(),
                wp.compute
            )
            .expect("write to string");
        }
    }
    check_golden("backend_matrix.txt", &out);
}

/// Cross-device accelerator-variant pin: porting a CRC NF onto each
/// device charges the device's CRC engine, and `dpu-offpath`'s declared
/// `crc64-ecma` variant (2x per-iteration cost) produces a compute delta
/// attributable to *nothing but* the catalog variant. The per-device
/// ported cycle counts are pinned in `backend_matrix.txt` alongside the
/// prediction rows (see `cross_device_matrix_matches_golden`).
#[test]
fn dpu_crc_variant_delta_is_attributable_to_the_catalog() {
    let _g = obs_lock();
    let clara = clara();
    let trace = Trace::generate(&WorkloadSpec::imix(), 60, 7);
    let e = clara_repro::click::corpus()
        .into_iter()
        .find(|e| e.name() == "wepdecap")
        .expect("known corpus element");
    let dpu = hal::builtin("dpu-offpath").expect("shipped");
    let insights = clara
        .analyze_on_prec(&e.module, &trace, dpu, clara.precision)
        .expect("analyze");
    let (class, _) = insights.accel.clone().expect("wepdecap has a CRC region");
    assert_eq!(class.name(), "crc");
    let port = insights.port_config();

    // The same manifest with the `variant` key stripped lowers to the
    // catalog default (crc32-ieee, scale 1.0).
    let text = std::fs::read_to_string(format!(
        "{}/crates/hal/manifests/dpu-offpath.toml",
        env!("CARGO_MANIFEST_DIR")
    ))
    .expect("shipped manifest readable");
    let stripped: String = text
        .lines()
        .filter(|l| !l.trim_start().starts_with("variant"))
        .collect::<Vec<_>>()
        .join("\n");
    let base = hal::DeviceBackend::parse("dpu-default-crc.toml", &stripped).expect("valid");
    assert_eq!(base.manifest().crc.variant, "crc32-ieee");
    assert_eq!(
        dpu.nic().crc_accel_per_iter,
        2.0 * base.nic().crc_accel_per_iter
    );

    // Profile the ported NF under both lowered configs: identical except
    // for the CRC engine's per-iteration cost, so the compute delta is
    // exactly the collapsed CRC iterations' share.
    let with = clara_repro::nicsim::profile_workload(&e.module, &trace, &port, dpu.nic(), |_| {});
    let without =
        clara_repro::nicsim::profile_workload(&e.module, &trace, &port, base.nic(), |_| {});
    assert!(
        with.compute > without.compute,
        "crc64-ecma must cost more per packet: {} vs {}",
        with.compute,
        without.compute
    );
    assert_eq!(with.pkts, without.pkts);
    assert_eq!(with.fixed_accesses, without.fixed_accesses);
    assert_eq!(with.global_access, without.global_access);
}

#[test]
fn default_backend_report_is_byte_identical_to_legacy() {
    let _g = obs_lock();
    let clara = clara();
    let e = clara_repro::click::corpus()
        .into_iter()
        .find(|e| e.name() == "cmsketch")
        .expect("known corpus element");
    let trace = Trace::generate(&WorkloadSpec::imix(), 60, 7);
    // Capture a full deterministic telemetry report for one analysis.
    // Caches are cleared before each capture so both runs do identical
    // cold work and their counters agree.
    let capture = |run: &dyn Fn()| {
        engine::Engine::new().clear_caches();
        clara_repro::obs::enable();
        clara_repro::obs::reset();
        run();
        let json = clara_repro::obs::RunReport::capture().to_json_deterministic();
        clara_repro::obs::disable();
        json
    };
    let legacy = capture(&|| {
        clara.analyze(&e.module, &trace).expect("legacy analyze");
    });
    let default_backend = hal::default_backend();
    assert_eq!(default_backend.name(), hal::DEFAULT_BACKEND);
    let on_default = capture(&|| {
        clara
            .analyze_on_prec(&e.module, &trace, default_backend, clara.precision)
            .expect("analyze on default backend");
    });
    assert!(legacy.contains("clara-analyze"), "{legacy}");
    assert_eq!(
        legacy, on_default,
        "analyze_on(default) must be byte-identical to the legacy path"
    );
    // Pin the deterministic report shape itself, so a change to the span
    // tree or the work-derived counters is an explicit golden update.
    let fp = format!("{:016x}\n", engine::value_fingerprint(&legacy));
    check_golden("backend_report_fp.txt", &fp);
}

/// `analyze` on the model's default device and `analyze_on_prec` on the
/// default backend share one profile-cache entry: the second run hits.
#[test]
fn default_device_shares_the_default_backend_profile() {
    let _g = obs_lock();
    let clara = clara();
    let e = clara_repro::click::corpus()
        .into_iter()
        .find(|e| e.name() == "udpcount")
        .expect("known corpus element");
    let trace = Trace::generate(&WorkloadSpec::small_flows(), 80, 23);
    let eng = engine::Engine::new();
    eng.clear_caches();
    let before = eng.stats();
    let legacy = clara.analyze(&e.module, &trace).expect("analyze");
    let on_default = clara
        .analyze_on_prec(&e.module, &trace, hal::default_backend(), clara.precision)
        .expect("analyze on default backend");
    let after = eng.stats();
    assert_eq!(format!("{legacy:?}"), format!("{on_default:?}"));
    assert_eq!(
        (
            after.profile_misses - before.profile_misses,
            after.profile_hits - before.profile_hits
        ),
        (1, 1),
        "one profile computed, then served from the cache"
    );
}

#[test]
fn cli_predict_prints_the_facade_answer() {
    let _g = obs_lock();
    let got = stdout_of(&clara_cli(&[
        "predict",
        "cmsketch",
        "--backend",
        "dpu-offpath",
        "--precision",
        "q16",
        "--packets",
        "300",
        "--seed",
        "5",
    ]));
    let loaded = Clara::load(model_file()).expect("load saved model");
    let e = clara_repro::click::extended_corpus()
        .into_iter()
        .find(|e| e.name() == "cmsketch")
        .expect("known corpus element");
    let trace = Trace::generate(&WorkloadSpec::large_flows(), 300, 5);
    let dpu = hal::builtin("dpu-offpath").expect("shipped");
    let p = loaded
        .predict_batch_on_prec_cached(
            &[(&e.module, &trace)],
            dpu,
            Precision::Q16,
            loaded.predictor_fingerprint(),
        )
        .pop()
        .expect("one item in, one result out")
        .expect("facade predict");
    let want = protocol::predict_response(None, "cmsketch", "dpu-offpath", Precision::Q16, &p);
    assert_eq!(got, format!("{want}\n"));
}

#[test]
fn cli_analyze_all_backends_matches_golden() {
    let _g = obs_lock();
    let got = stdout_of(&clara_cli(&[
        "analyze",
        "cmsketch",
        "--backend",
        "all",
        "--packets",
        "200",
    ]));
    check_golden("cli_analyze_all.txt", &got);
}

/// One-shot `clara analyze` stdout for NFs that between them print every
/// line kind: accelerator regions, placements and pack clusters. Each run
/// pays a model load and both operating points, so this pins the load
/// path and the naive/tuned simulation answers together.
#[test]
fn cli_analyze_one_shot_matches_golden() {
    let _g = obs_lock();
    let mut got = String::new();
    for nf in [
        "cmsketch",
        "iplookup",
        "firewall",
        "mazunat",
        "dpi",
        "tcpgen",
        "flowstats",
    ] {
        got.push_str(&stdout_of(&clara_cli(&[
            "analyze",
            nf,
            "--packets",
            "400",
            "--seed",
            "3",
        ])));
    }
    check_golden("cli_analyze_oneshot.txt", &got);
}

#[test]
fn cli_unknown_backend_exits_8() {
    let _g = obs_lock();
    for cmd in ["analyze", "predict"] {
        let args = [
            cmd,
            "cmsketch",
            "--backend",
            "no-such-device",
            "--packets",
            "200",
        ];
        let out = clara_cli(&args);
        assert_eq!(
            out.status.code(),
            Some(8),
            "clara {cmd} with an unknown backend: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

/// A device whose whole memory hierarchy holds 960 bytes: cmsketch's
/// state does not fit, so placing it is infeasible.
const CAPACITY_STARVED_MANIFEST: &str = r#"schema_version = 1
name = "capacity-starved"
description = "capacity-starved device for the infeasible-placement pin"
class = "on-path"

[cores]
count = 4
freq_ghz = 1.0

[io]
max_mpps = 10.0
line_rate_gbps = 10.0

[[memory]]
level = "CLS"
capacity_bytes = 64
latency_cycles = 25
bandwidth = 2.5

[[memory]]
level = "CTM"
capacity_bytes = 128
latency_cycles = 55
bandwidth = 1.8

[[memory]]
level = "IMEM"
capacity_bytes = 256
latency_cycles = 150
bandwidth = 0.45

[[memory]]
level = "EMEM"
capacity_bytes = 512
latency_cycles = 500
bandwidth = 0.085

[memory_cache]
capacity_bytes = 256
hit_latency_cycles = 130
bandwidth = 0.40

[[accelerator]]
op = "checksum"
accel_cycles = 300
sw_cycles = 2000

[[accelerator]]
op = "crc"
base_cycles = 30
per_iter_cycles = 0.25

[[accelerator]]
op = "lpm-cam"
hit_cycles = 50
insert_cycles = 120
entries = 64

[vendor_lib]
call_overhead_cycles = 12

[[port]]
id = 0
speed_gbps = 10.0
"#;

/// The CLI's typed failures keep their exit codes: a q16 speed floor no
/// build can reach exits 9, and a placement on a device too small for
/// the NF exits 10.
#[test]
fn cli_typed_failures_keep_their_exit_codes() {
    let _g = obs_lock();
    let tiny = Path::new(env!("CARGO_TARGET_TMPDIR")).join("backend_matrix_tiny.toml");
    std::fs::write(&tiny, CAPACITY_STARVED_MANIFEST).expect("write manifest");
    let tiny = tiny.to_str().expect("UTF-8 target dir");
    let speed_floor: &[&str] = &[
        "quantcheck",
        "--packets",
        "20",
        "--reps",
        "1",
        "--require-speedup",
        "1000000",
    ];
    let infeasible: &[&str] = &["place", "cmsketch", "--backend", tiny, "--packets", "200"];
    for (args, code) in [(speed_floor, 9), (infeasible, 10)] {
        let out = clara_cli(args);
        assert_eq!(
            out.status.code(),
            Some(code),
            "clara {}: {}",
            args.join(" "),
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
