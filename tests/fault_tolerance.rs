//! Fault tolerance at the facade boundary: runs whose engine tasks fail
//! permanently surface as [`ClaraError::Degraded`] with exact counts,
//! while within-budget faults are invisible (see
//! `tests/engine_determinism.rs` for the bit-identity half).

use std::sync::Mutex;

use clara_repro::clara::engine::{self, EngineOptions, FaultKind, FaultPlan};
use clara_repro::clara::{Clara, ClaraConfig, ClaraError};
use clara_repro::trafgen::{Trace, WorkloadSpec};

/// Engine configuration is a process global; tests in this binary
/// serialize on this lock and restore the defaults before releasing it.
static ENGINE_LOCK: Mutex<()> = Mutex::new(());

/// Takes [`ENGINE_LOCK`], ignoring poison: one test's failure must report
/// as one failure, not cascade into the others.
fn engine_lock() -> std::sync::MutexGuard<'static, ()> {
    ENGINE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn tiny(engine_opts: EngineOptions) -> ClaraConfig {
    ClaraConfig::fast(31)
        .to_builder()
        .predict_programs(6)
        .algid_per_class(4)
        .scaleout_programs(2)
        .epochs(2)
        .engine(engine_opts)
        .build()
}

#[test]
fn over_budget_faults_degrade_training_with_exact_counts() {
    let _g = engine_lock();
    // depth 9 with a retry budget of 1: every selected Panic/Error task
    // fails permanently (Stall tasks still succeed — a stall delays the
    // attempt, it does not fail it).
    let plan = {
        let mut p = FaultPlan::new(3, 0.6);
        p.depth = 9;
        p
    };
    let opts = EngineOptions::builder().retries(1).faults(plan).build();
    engine::Engine::new().clear_caches();
    let before = engine::EngineStats::snapshot();
    let result = Clara::train(&tiny(opts));
    let after = engine::EngineStats::snapshot();
    engine::configure(&EngineOptions::default());

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
    // depth 1 ≤ retries 2: every fault retries out.
    let plan = FaultPlan::new(12, 0.3);
    let opts = EngineOptions::builder().retries(2).faults(plan).build();
    engine::Engine::new().clear_caches();
    let result = Clara::train(&tiny(opts));
    engine::configure(&EngineOptions::default());
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
    let clara = Clara::train(&tiny(EngineOptions::default())).expect("clean train");
    // Pick a seed whose injection for ("analyze-profile", task 0) is a
    // hard failure; Stall injections succeed after sleeping, so they
    // cannot drive this test. The search is deterministic.
    let plan = (0..500u64)
        .map(|seed| {
            let mut p = FaultPlan::new(seed, 1.0);
            p.depth = 9;
            p
        })
        .find(|p| {
            matches!(
                p.decide("analyze-profile", 0, 0),
                Some(FaultKind::Panic | FaultKind::Error)
            )
        })
        .expect("some seed selects a hard fault");
    engine::configure(&EngineOptions::builder().retries(1).faults(plan).build());
    let trace = Trace::generate(&WorkloadSpec::large_flows(), 60, 4);
    let module = clara_repro::click::corpus()
        .into_iter()
        .find(|e| e.name() == "cmsketch")
        .expect("known element")
        .module;
    let result = clara.analyze(&module, &trace);
    engine::configure(&EngineOptions::default());
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
    engine::configure(&EngineOptions::default());
    // Deterministically pick an env plan that permanently fails at least
    // one task of this stage under a zero-retry budget.
    let seed = (0..500u64)
        .find(|&s| {
            let p = {
                let mut p = FaultPlan::new(s, 0.8);
                p.depth = 9;
                p
            };
            (0..8usize).any(|i| {
                matches!(
                    p.decide("env-fault-stage", i, 0),
                    Some(FaultKind::Panic | FaultKind::Error)
                )
            })
        })
        .expect("some seed hard-faults the stage");
    engine::configure(&EngineOptions::builder().retries(0).build());
    std::env::set_var("CLARA_FAULTS", format!("{seed}:0.8:9"));
    let items: Vec<u64> = (0..8).collect();
    let out = engine::try_par_map("env-fault-stage", &items, |_, &x| x);
    std::env::remove_var("CLARA_FAULTS");
    engine::configure(&EngineOptions::default());
    assert!(
        !out.failures.is_empty(),
        "CLARA_FAULTS must inject without any configured plan"
    );
    // Malformed env values are ignored, not fatal.
    std::env::set_var("CLARA_FAULTS", "not-a-plan");
    let ok = engine::try_par_map("env-fault-stage", &items, |_, &x| x);
    std::env::remove_var("CLARA_FAULTS");
    assert!(ok.is_complete(), "malformed CLARA_FAULTS must be ignored");
}
