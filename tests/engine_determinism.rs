//! The engine's parallel execution is bit-identical to a serial run.
//!
//! ISSUE requirement: for 3 corpus elements × 2 workloads × 2 seeds, the
//! outputs computed with a multi-worker pool must equal — bit for bit —
//! the outputs of the same computation on a single worker. Determinism
//! comes from index-assigned tasks and order-restoring merges, not from
//! luck: these tests run both modes in one process (via
//! [`engine::set_threads`]) and compare both the values and their
//! serialized fingerprints.

use std::sync::Mutex;

use clara_repro::clara::engine;
use clara_repro::clara::predict::block_samples;
use clara_repro::clara::scaleout::training_set;
use clara_repro::ir::Module;
use clara_repro::nicsim::{NicConfig, PortConfig};
use clara_repro::trafgen::WorkloadSpec;

/// `set_threads` is a process global; tests in this binary run on
/// separate threads, so every test that flips it holds this lock.
static THREADS_LOCK: Mutex<()> = Mutex::new(());

/// Takes [`THREADS_LOCK`], ignoring poison: one test's failure must report
/// as one failure, not cascade into the others.
fn threads_lock() -> std::sync::MutexGuard<'static, ()> {
    THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Three corpus elements of different character: CRC loops, plain
/// stateful counting, and an LPM table.
fn elements() -> Vec<Module> {
    ["cmsketch", "aggcounter", "mazunat"]
        .iter()
        .map(|name| {
            clara_repro::click::corpus()
                .into_iter()
                .find(|e| e.name() == *name)
                .expect("known corpus element")
                .module
        })
        .collect()
}

/// Runs `f` serially, then with a 4-worker pool, caches cleared in
/// between, and returns both results.
fn serial_then_parallel<R>(f: impl Fn() -> R) -> (R, R) {
    engine::set_threads(1);
    engine::Engine::new().clear_caches();
    let serial = f();
    engine::set_threads(4);
    engine::Engine::new().clear_caches();
    let parallel = f();
    engine::set_threads(0); // back to CLARA_THREADS / machine default
    (serial, parallel)
}

#[test]
fn profile_matrix_is_bit_identical_across_worker_counts() {
    let _g = threads_lock();
    let modules = elements();
    let workloads = [
        WorkloadSpec::large_flows(),
        WorkloadSpec::small_flows().with_flows(512),
    ];
    let cfg = NicConfig::default();
    let port = PortConfig::naive();
    for seed in [11u64, 42] {
        let (serial, parallel) = serial_then_parallel(|| {
            engine::profile_matrix(&modules, &workloads, 120, seed, &port, &cfg)
        });
        assert_eq!(serial.len(), modules.len() * workloads.len());
        assert_eq!(serial.len(), parallel.len());
        for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
            assert_eq!(s, p, "profile cell {i} diverged for seed {seed}");
            // Bit-identical serialized form, not just PartialEq.
            assert_eq!(
                engine::value_fingerprint(s),
                engine::value_fingerprint(p),
                "profile cell {i} fingerprint diverged for seed {seed}"
            );
        }
    }
}

#[test]
fn block_samples_are_bit_identical_across_worker_counts() {
    let _g = threads_lock();
    for seed in [3u64, 8] {
        let modules = clara_repro::synth::synth_corpus(10, true, seed);
        let (serial, parallel) = serial_then_parallel(|| block_samples(&modules));
        assert_eq!(serial, parallel, "block samples diverged for seed {seed}");
    }
}

#[test]
fn scaleout_training_set_is_bit_identical_across_worker_counts() {
    let _g = threads_lock();
    let cfg = NicConfig::default();
    for seed in [5u64, 21] {
        let (serial, parallel) = serial_then_parallel(|| training_set(6, seed, &cfg));
        assert_eq!(serial.x, parallel.x, "features diverged for seed {seed}");
        assert_eq!(serial.y, parallel.y, "labels diverged for seed {seed}");
    }
}

#[test]
fn trained_pipeline_is_bit_identical_across_worker_counts() {
    use clara_repro::clara::{Clara, ClaraConfig};
    let _g = threads_lock();
    let cfg = ClaraConfig::fast(17)
        .to_builder()
        .predict_programs(12)
        .algid_per_class(8)
        .scaleout_programs(4)
        .epochs(4)
        .build();
    let (serial, parallel) = serial_then_parallel(|| Clara::train(&cfg).expect("train"));
    // Whole-model comparison via the serialized form: every weight of
    // every sub-model must match bit for bit.
    assert_eq!(
        engine::value_fingerprint(&serial),
        engine::value_fingerprint(&parallel),
        "trained pipeline diverged between 1 and 4 workers"
    );
}

#[test]
fn deterministic_run_report_is_byte_identical_across_worker_counts() {
    let _g = threads_lock();
    let modules = elements();
    let workloads = [WorkloadSpec::large_flows()];
    let cfg = NicConfig::default();
    let port = PortConfig::naive();
    // One full telemetry capture per worker count: same work-derived
    // counters and span tree, so the deterministic rendering (volatile
    // metrics and timestamps stripped, siblings sorted) must not change
    // by a single byte.
    let capture = |threads: usize| {
        engine::set_threads(threads);
        engine::Engine::new().clear_caches();
        clara_repro::obs::enable();
        clara_repro::obs::reset();
        let profiles = engine::profile_matrix(&modules, &workloads, 80, 7, &port, &cfg);
        assert_eq!(profiles.len(), modules.len());
        let json = clara_repro::obs::RunReport::capture().to_json_deterministic();
        clara_repro::obs::disable();
        json
    };
    let serial = capture(1);
    let parallel = capture(4);
    engine::set_threads(0);
    assert!(serial.contains("nicsim.profile_runs"), "{serial}");
    assert!(serial.contains("nfcc.modules_compiled"), "{serial}");
    assert_eq!(
        serial, parallel,
        "deterministic run report diverged between 1 and 4 workers"
    );
}

/// ISSUE acceptance: with a seeded fault plan whose faults all stay
/// within the retry budget, the trained pipeline is bit-identical to a
/// fault-free run — at one worker and at four. Injection decisions hash
/// `(seed, stage, index, attempt)`, never wall-clock or scheduling, and
/// an injected fault fires *before* the task body runs, so a retried
/// attempt replays the exact same pure computation.
#[test]
fn faulted_training_within_retry_budget_is_bit_identical_to_fault_free() {
    use clara_repro::clara::{Clara, ClaraConfig};
    let _g = threads_lock();
    let small = ClaraConfig::fast(29)
        .to_builder()
        .predict_programs(10)
        .algid_per_class(6)
        .scaleout_programs(3)
        .epochs(3)
        .build();

    engine::set_threads(1);
    engine::Engine::new().clear_caches();
    let clean = Clara::train(&small).expect("fault-free train");
    let clean_fp = engine::value_fingerprint(&clean);

    for threads in [1usize, 4] {
        engine::set_threads(threads);
        engine::Engine::new().clear_caches();
        // Seed 61, rate 0.35, depth 2 ≤ 2 retries: every selected task
        // faults twice, then its third attempt succeeds — nothing fails
        // permanently.
        std::env::set_var("CLARA_FAULTS", "61:0.35:2");
        let faulted = Clara::train(&small);
        std::env::remove_var("CLARA_FAULTS");
        let faulted = faulted.expect("within-budget faults must retry out");
        let stats = engine::EngineStats::snapshot();
        assert!(
            stats.faults_injected > 0,
            "a 35% plan must inject something at {threads} worker(s)"
        );
        assert_eq!(
            engine::value_fingerprint(&faulted),
            clean_fp,
            "faulted pipeline diverged from fault-free run at {threads} worker(s)"
        );
    }
    engine::set_threads(0);
}

#[test]
fn par_map_preserves_input_order() {
    let _g = threads_lock();
    engine::set_threads(4);
    let items: Vec<u64> = (0..257).collect();
    let out = engine::par_map("order-test", &items, |i, &x| (i as u64, x * x));
    engine::set_threads(0);
    for (i, (idx, sq)) in out.iter().enumerate() {
        assert_eq!(*idx, i as u64);
        assert_eq!(*sq, (i as u64) * (i as u64));
    }
}
