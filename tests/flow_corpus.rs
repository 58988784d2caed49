//! Flow-state corpus acceptance.
//!
//! Two contracts from the stateful-NF engine:
//!
//! 1. a churn schedule drives real flow-table eviction *and* idle
//!    expiration in a corpus NF, with counter values pinned — any change
//!    to probe order, timeout comparison, or victim selection breaks the
//!    pin before it can silently shift a profile;
//! 2. eviction order is deterministic across engine worker counts: the
//!    full profile of every flow NF under flow-storm workloads is
//!    bit-identical between a 1-worker and a 4-worker pool.

use std::sync::Mutex;

use proptest::prelude::*;

use clara_repro::clara::engine;
use clara_repro::click::{elements, Machine};
use clara_repro::ir::{GlobalId, Module};
use clara_repro::nicsim::{NicConfig, PortConfig};
use clara_repro::trafgen::{Schedule, WorkloadSpec};

/// `set_threads` is a process global; every test that flips it holds
/// this lock (same pattern as `engine_determinism.rs`).
static THREADS_LOCK: Mutex<()> = Mutex::new(());

/// Takes [`THREADS_LOCK`], ignoring poison: one test's failure must report
/// as one failure, not cascade into the others.
fn threads_lock() -> std::sync::MutexGuard<'static, ()> {
    THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The five flow-table NFs added with the stateful corpus engine.
fn flow_modules() -> Vec<Module> {
    [
        elements::natchurn(),
        elements::fwstate(),
        elements::conntrack(),
        elements::dnscache(),
        elements::flowlimiter(),
    ]
    .into_iter()
    .map(|e| e.module)
    .collect()
}

#[test]
fn churn_schedule_drives_pinned_flow_table_eviction() {
    // natchurn's NAT table: 1024 entries x 4-way buckets, idle timeout 64
    // ticks, LRU. The churn schedule floods it with four disjoint
    // small-flow populations: every phase boundary inserts thousands of
    // never-seen keys while the previous phase's entries go idle.
    let nf = elements::natchurn();
    let mut m = Machine::new(&nf.module).expect("valid module");
    let s = Schedule::churn(8);
    for epoch in 0..s.epochs() {
        let trace = s.epoch_trace(epoch, 400, 1311).expect("in range");
        for p in &trace.pkts {
            m.run(p).expect("no step limit");
        }
    }
    let c = m.state.flow_counters(GlobalId(0));
    assert!(
        c.insertions > 0 && c.evictions > 0 && c.expirations > 0,
        "churn must exercise every counter: {c:?}"
    );
    // Pinned: these counters ARE the eviction semantics. If this pin
    // moves without an intentional semantics change, the difftest oracle
    // layers have silently diverged from what this test observed.
    assert_eq!(
        (c.insertions, c.evictions, c.expirations),
        (2823, 2505, 78),
        "flow-table churn counters moved"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Eviction order is deterministic across 1 vs 4 engine workers: the
    /// per-NF workload profiles (which fold in every stateful address
    /// touched, and therefore every slot-reuse decision the flow tables
    /// made) fingerprint-match bit for bit.
    #[test]
    fn flow_eviction_order_is_deterministic_across_worker_counts(seed in 0u64..1000) {
        let _g = threads_lock();
        let modules = flow_modules();
        let workloads = [
            WorkloadSpec::small_flows().with_flows(4096),
            WorkloadSpec::small_flows().with_flows(16384),
        ];
        let cfg = NicConfig::default();
        let port = PortConfig::naive();

        engine::set_threads(1);
        engine::Engine::new().clear_caches();
        let serial = engine::profile_matrix(&modules, &workloads, 300, seed, &port, &cfg);
        engine::set_threads(4);
        engine::Engine::new().clear_caches();
        let parallel = engine::profile_matrix(&modules, &workloads, 300, seed, &port, &cfg);
        engine::set_threads(0);

        prop_assert_eq!(serial.len(), modules.len() * workloads.len());
        for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
            prop_assert_eq!(
                engine::value_fingerprint(s),
                engine::value_fingerprint(p),
                "flow profile cell {} diverged between 1 and 4 workers (seed {})",
                i,
                seed
            );
        }
    }
}
