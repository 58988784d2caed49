//! Fault tolerance at the facade boundary: runs whose engine tasks fail
//! permanently surface as [`ClaraError::Degraded`] with exact counts,
//! while within-budget faults are invisible (see
//! `tests/engine_determinism.rs` for the bit-identity half). Plans reach
//! the engine through `CLARA_FAULTS`, its one fault channel, and the
//! `clara` binary turns a degraded training run into exit code 3.

use std::process::Command;
use std::sync::Mutex;

use clara_repro::clara::engine::{self, FaultKind, FaultPlan};
use clara_repro::clara::{Clara, ClaraConfig, ClaraError};
use clara_repro::trafgen::{Trace, WorkloadSpec};

/// The engine's environment is a process global; tests in this binary
/// serialize on this lock and remove `CLARA_FAULTS` before releasing it.
static ENGINE_LOCK: Mutex<()> = Mutex::new(());

/// Takes [`ENGINE_LOCK`], ignoring poison: one test's failure must report
/// as one failure, not cascade into the others.
fn engine_lock() -> std::sync::MutexGuard<'static, ()> {
    ENGINE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn tiny() -> ClaraConfig {
    ClaraConfig::fast(31)
        .to_builder()
        .predict_programs(6)
        .algid_per_class(4)
        .scaleout_programs(2)
        .epochs(2)
        .build()
}

/// Runs `f` with `CLARA_FAULTS` set to `plan`.
fn with_faults<R>(plan: &str, f: impl FnOnce() -> R) -> R {
    std::env::set_var("CLARA_FAULTS", plan);
    let r = f();
    std::env::remove_var("CLARA_FAULTS");
    r
}

/// The first seed whose rate-1.0, depth-9 plan hard-fails task 0 of
/// every stage in `stages`. Stall injections succeed after sleeping, so
/// only Panic and Error count. The search is deterministic.
fn hard_fault_seed(stages: &[&str]) -> u64 {
    (0..500u64)
        .find(|&seed| {
            let mut plan = FaultPlan::new(seed, 1.0);
            plan.depth = 9;
            stages.iter().all(|stage| {
                matches!(
                    plan.decide(stage, 0, 0),
                    Some(FaultKind::Panic | FaultKind::Error)
                )
            })
        })
        .expect("some seed hard-faults every stage")
}

#[test]
fn over_budget_faults_degrade_training_with_exact_counts() {
    let _g = engine_lock();
    // Seed 3, rate 0.6, depth 9, beyond the two retries: every selected
    // Panic/Error task fails permanently (Stall tasks still succeed — a
    // stall delays the attempt, it does not fail it).
    engine::Engine::new().clear_caches();
    let before = engine::EngineStats::snapshot();
    let result = with_faults("3:0.6:9", || Clara::train(&tiny()));
    let after = engine::EngineStats::snapshot();

    match result {
        Err(ClaraError::Degraded { failed, total }) => {
            assert!(failed > 0, "a 60% permanent plan must fail something");
            assert!(total >= failed, "failed {failed} of {total}");
            assert_eq!(ClaraError::Degraded { failed, total }.exit_code(), 3);
        }
        Err(other) => panic!("expected Degraded, got {other}"),
        Ok(_) => panic!("expected Degraded, got a trained pipeline"),
    }
    assert!(
        after.faults_injected > before.faults_injected,
        "injection counter must move"
    );
    assert!(
        after.task_failures > before.task_failures,
        "permanent-failure counter must move"
    );
    assert!(after.retries > before.retries, "retry counter must move");
}

#[test]
fn within_budget_faults_still_produce_a_pipeline() {
    let _g = engine_lock();
    // Seed 12, rate 0.3, depth 1 ≤ 2 retries: every fault retries out.
    engine::Engine::new().clear_caches();
    let result = with_faults("12:0.3", || Clara::train(&tiny()));
    let clara = result.expect("within-budget faults must not degrade the run");
    let trace = Trace::generate(&WorkloadSpec::large_flows(), 60, 4);
    let module = clara_repro::click::corpus()
        .into_iter()
        .find(|e| e.name() == "aggcounter")
        .expect("known element")
        .module;
    let insights = clara.analyze(&module, &trace).expect("analysis succeeds");
    assert!(insights.suggested_cores >= 1);
}

#[test]
fn analyze_profile_fault_surfaces_as_degraded() {
    let _g = engine_lock();
    engine::Engine::new().clear_caches();
    let clara = Clara::train(&tiny()).expect("clean train");
    let seed = hard_fault_seed(&["analyze-profile"]);
    let trace = Trace::generate(&WorkloadSpec::large_flows(), 60, 4);
    let module = clara_repro::click::corpus()
        .into_iter()
        .find(|e| e.name() == "cmsketch")
        .expect("known element")
        .module;
    let result = with_faults(&format!("{seed}:1.0:9"), || clara.analyze(&module, &trace));
    match result {
        Err(ClaraError::Degraded {
            failed: 1,
            total: 1,
        }) => {}
        Err(other) => panic!("expected Degraded {{1, 1}}, got {other}"),
        Ok(_) => panic!("expected Degraded, got insights"),
    }
}

#[test]
fn clara_faults_env_override_reaches_the_engine() {
    let _g = engine_lock();
    let seed = hard_fault_seed(&["env-fault-stage"]);
    let items: Vec<u64> = (0..8).collect();
    let out = with_faults(&format!("{seed}:1.0:9"), || {
        engine::try_par_map("env-fault-stage", &items, |_, &x| x)
    });
    assert!(
        !out.failures.is_empty(),
        "a CLARA_FAULTS plan must reach the engine"
    );
    // Malformed env values are ignored, not fatal.
    let ok = with_faults("not-a-plan", || {
        engine::try_par_map("env-fault-stage", &items, |_, &x| x)
    });
    assert!(ok.is_complete(), "malformed CLARA_FAULTS must be ignored");
}

/// The value of a counter in a compact run report (`"name":N`).
fn report_counter(report: &str, name: &str) -> u64 {
    let key = format!("\"{name}\":");
    let at = report
        .find(&key)
        .unwrap_or_else(|| panic!("report has no {name}: {report}"))
        + key.len();
    let digits: String = report[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().expect("counter value is an integer")
}

/// A saturating plan given to the binary through `CLARA_FAULTS` degrades
/// training: `clara analyze` exits 3 and still writes the training
/// report, whose counters record the injections and permanent failures.
/// The seed hard-fails all three model fits, so no model is trained.
#[test]
fn degraded_cli_run_exits_three_and_reports_its_failures() {
    let seed = hard_fault_seed(&["train-predict", "train-algid", "train-scaleout"]);
    let report = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("fault_tolerance_{}.json", std::process::id()));
    let _ = std::fs::remove_file(&report);
    let out = Command::new(env!("CARGO_BIN_EXE_clara"))
        .args(["analyze", "aggcounter", "--packets", "200"])
        .env("CLARA_FAULTS", format!("{seed}:1.0:9"))
        .env("CLARA_REPORT", &report)
        .env("CLARA_THREADS", "2")
        .env_remove("CLARA_CACHE_DIR")
        .output()
        .expect("spawn clara analyze");
    assert_eq!(
        out.status.code(),
        Some(3),
        "a degraded run exits 3 (stderr: {})",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&report).expect("degraded runs still write the report");
    let _ = std::fs::remove_file(&report);
    assert!(report_counter(&json, "engine.faults_injected") > 0);
    assert!(report_counter(&json, "engine.task_failures") > 0);
}
