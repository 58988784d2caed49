//! Deterministic work counts of a plan request.
//!
//! The run report's `nicsim.*` counters are pure functions of the work a
//! request does, so they pin how many times a request runs NFs over its
//! trace and costs what they did, independent of timing. Two requests
//! are pinned, each on cold caches:
//!
//! - `analyze` of webtcp, an NF with seven scalar globals to pack: one
//!   pass of the NF over the trace, costed once. The profile and the
//!   coalescing summary share the pass, and every candidate plan is
//!   priced from the summary.
//! - a 2-NF `place`: three NF runs, each costed once. The chain pass runs
//!   both NFs, and its first stage is the first NF's standalone profile,
//!   so only the second NF also runs alone.
//!
//! `nicsim.record_runs` counts standalone passes over a trace (a chain
//! pass is not one), and `nicsim.profile_runs` counts costings, one per
//! NF run.

use std::sync::Mutex;

use clara_repro::clara::{engine, Clara, ClaraConfig, PlacementRequest};
use clara_repro::hal;
use clara_repro::obs;
use clara_repro::trafgen::{Trace, WorkloadSpec};

/// The engine caches and the obs registry are process globals.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A tiny trained pipeline: the counts do not depend on model quality.
fn clara() -> Clara {
    let cfg = ClaraConfig::fast(31)
        .to_builder()
        .predict_programs(6)
        .algid_per_class(4)
        .scaleout_programs(2)
        .epochs(2)
        .build();
    Clara::train(&cfg).expect("training succeeds")
}

/// `(nicsim.record_runs, nicsim.profile_runs)` of `run` on cold caches.
fn counts(run: impl FnOnce()) -> (u64, u64) {
    engine::Engine::new().clear_caches();
    obs::reset();
    run();
    let report = obs::RunReport::capture();
    let get = |name: &str| report.counter(name).unwrap_or(0);
    (get("nicsim.record_runs"), get("nicsim.profile_runs"))
}

#[test]
fn analyze_and_place_run_each_nf_over_the_trace_once() {
    let _g = lock();
    let clara = clara();
    let webtcp = clara_repro::click::extended_corpus()
        .into_iter()
        .find(|e| e.name() == "webtcp")
        .expect("known corpus element");
    let trace = Trace::generate(&WorkloadSpec::large_flows(), 200, 5);
    let analyze = counts(|| {
        clara
            .analyze_on_prec(
                &webtcp.module,
                &trace,
                hal::default_backend(),
                clara.precision,
            )
            .expect("analysis succeeds");
    });
    assert_eq!(
        analyze,
        (1, 1),
        "analyze of webtcp: (passes, costings) on cold caches"
    );

    let req = PlacementRequest::builder(["webtcp", "mazunat"])
        .packets(200)
        .build();
    let place = counts(|| {
        clara.place(&req).expect("feasible request");
    });
    assert_eq!(
        place,
        (1, 3),
        "2-NF place: (passes, costings) on cold caches"
    );
}
