//! Property tests for the engine: cache transparency and fault-injection
//! determinism.
//!
//! For any synthesized NF, trace, and port, a cache-miss `profile_cached`
//! call, the subsequent cache-hit call, and a direct `profile_workload`
//! all return the same `WorkloadProfile`. And for *any* seeded
//! [`engine::FaultPlan`] whose fault depth stays within the retry budget,
//! a faulted stage produces output bit-identical to a fault-free run.

use std::sync::Mutex;

use proptest::prelude::*;

use clara_repro::clara::engine;
use clara_repro::nicsim::{self, NicConfig, PortConfig};
use clara_repro::trafgen::{Trace, WorkloadSpec};

/// The engine's environment, worker count and caches are process
/// globals; tests in this binary serialize on this lock.
static ENGINE_LOCK: Mutex<()> = Mutex::new(());

/// Takes [`ENGINE_LOCK`], ignoring poison: one test's failure must report
/// as one failure, not cascade into the others.
fn engine_lock() -> std::sync::MutexGuard<'static, ()> {
    ENGINE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn cache_hit_equals_cache_miss_equals_direct(seed in 0u64..3000) {
        let _g = engine_lock();
        let m = clara_repro::synth::synth_corpus(1, true, seed).remove(0);
        let trace = Trace::generate(&WorkloadSpec::imix(), 60, seed);
        let cfg = NicConfig::default();
        let port = PortConfig::naive();

        let eng = engine::Engine::new();
        eng.clear_caches();
        let stats0 = engine::EngineStats::snapshot();
        let direct = nicsim::profile_workload(&m, &trace, &port, &cfg, |_| {});
        let miss = eng.profile_cached(&m, &trace, &port, &cfg);
        let hit = eng.profile_cached(&m, &trace, &port, &cfg);
        let stats1 = engine::EngineStats::snapshot();

        prop_assert_eq!(&direct, &miss, "cache miss diverged from direct profiling");
        prop_assert_eq!(&miss, &hit, "cache hit diverged from cache miss");
        prop_assert!(stats1.profile_hits > stats0.profile_hits, "second call did not hit");
        prop_assert!(stats1.profile_misses > stats0.profile_misses, "first call did not miss");
    }

    /// ISSUE acceptance, generalized: for ANY plan seed and rate, faults
    /// whose depth stays within the retry budget leave stage output
    /// bit-identical to a fault-free run — the failure list is empty and
    /// the serialized results fingerprint-match.
    #[test]
    fn any_fault_plan_within_retry_budget_is_invisible(
        plan_seed in 0u64..100_000,
        rate in 0.0f64..=1.0,
        workers in 1usize..=4,
    ) {
        let _g = engine_lock();
        let items: Vec<u64> = (0..48).collect();
        let work = |i: usize, x: &u64| x.wrapping_mul(0x9e3779b97f4a7c15) ^ i as u64;

        let clean = engine::try_par_map("proptest-faults", &items, work);
        prop_assert!(clean.is_complete());
        let clean: Vec<u64> = clean.successes();

        // depth 2 ≤ 2 retries: every selected task faults on its first
        // two attempts and must succeed on the third.
        engine::set_threads(workers);
        std::env::set_var("CLARA_FAULTS", format!("{plan_seed}:{rate}:2"));
        let faulted = engine::try_par_map("proptest-faults", &items, work);
        std::env::remove_var("CLARA_FAULTS");
        engine::set_threads(0);

        prop_assert!(
            faulted.failures.is_empty(),
            "within-budget faults must retry out: {:?}",
            faulted.failures
        );
        let faulted: Vec<u64> = faulted.successes();
        prop_assert_eq!(
            engine::value_fingerprint(&faulted),
            engine::value_fingerprint(&clean),
            "faulted stage output diverged from fault-free run"
        );
    }
}
