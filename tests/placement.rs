//! Placement-API integration pins: the ILP-vs-greedy difftest across
//! the full corpus × every built-in device, a golden plan matrix, and
//! the drift-driven replay invariants.
//!
//! Three layers of pin live here:
//!
//! - `ilp_never_loses_to_greedy_across_corpus_and_backends` is the
//!   difftest the ISSUE asks for: on every (extended-corpus NF, HAL
//!   backend) pair the exact solver's objective must be at least the
//!   greedy fallback's, and the two must agree on feasibility in the
//!   one direction that is a theorem (an instance the greedy heuristic
//!   solves is feasible, so the ILP must solve it too).
//! - `placement_matrix_matches_golden` renders the chosen level per
//!   global (plus objective and greedy delta) into
//!   `tests/golden/place_matrix.txt`, so cost-model or solver changes
//!   surface as a readable diff. Regenerate intentionally with
//!   `CLARA_BLESS=1 cargo test --test placement`.
//! - the replay properties: a single-phase (drift-free) schedule never
//!   migrates state, a phase-shifting schedule re-solves at least once,
//!   and two identical `place` calls render byte-identical responses.
//! - `repeated_place_compiles_nothing`: a second identical `place` adds
//!   no compile-cache miss.

use std::fmt::Write as _;
use std::sync::{Mutex, OnceLock};

use proptest::prelude::*;

use clara_repro::clara::engine::Engine;
use clara_repro::clara::placement::plan::{self, DEFAULT_NODE_BUDGET};
use clara_repro::clara::{Clara, ClaraConfig, ClaraError, PlacementFailure, PlacementRequest};
use clara_repro::hal::{self, Backend as _};
use clara_repro::nicsim::PortConfig;
use clara_repro::trafgen::{Trace, WorkloadSpec};

/// Replay tests drive the process-global telemetry registry; keep them
/// from interleaving with each other.
static OBS_LOCK: Mutex<()> = Mutex::new(());

/// Takes [`OBS_LOCK`], ignoring poison: one test's failure must report
/// as one failure, not cascade into the others.
fn obs_lock() -> std::sync::MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// One trained pipeline shared by every facade-level test here.
fn clara() -> &'static Clara {
    static CLARA: OnceLock<Clara> = OnceLock::new();
    CLARA.get_or_init(|| Clara::train(&ClaraConfig::fast(11)).expect("training succeeds"))
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
        panic!("{path} missing; regenerate with CLARA_BLESS=1 cargo test --test placement")
    });
    assert_eq!(
        got, &want,
        "{name} changed; if intentional, regenerate with CLARA_BLESS=1 cargo test --test placement"
    );
}

/// Profiles one corpus element on one backend (no trained model needed:
/// placement inputs are pure profiling artifacts).
fn profile(
    e: &clara_repro::click::NfElement,
    b: &hal::DeviceBackend,
) -> clara_repro::nicsim::WorkloadProfile {
    let trace = Trace::generate(&WorkloadSpec::small_flows().with_flows(2048), 300, 5);
    clara_repro::nicsim::profile_workload(&e.module, &trace, &PortConfig::naive(), b.nic(), |_| {})
}

#[test]
fn ilp_never_loses_to_greedy_across_corpus_and_backends() {
    for e in clara_repro::click::extended_corpus() {
        for b in hal::builtins() {
            let wp = profile(&e, b);
            match plan::solve_nf(&e.module, &wp, b.nic(), DEFAULT_NODE_BUDGET) {
                Ok(solve) => {
                    assert!(
                        solve.objective >= -1e-9,
                        "{} on {}: negative objective {}",
                        e.name(),
                        b.name(),
                        solve.objective
                    );
                    if let Some(g) = &solve.greedy {
                        assert!(
                            solve.objective >= g.objective - 1e-9,
                            "{} on {}: ILP objective {} below greedy {}",
                            e.name(),
                            b.name(),
                            solve.objective,
                            g.objective
                        );
                        // Shared NFs must agree on per-global feasibility:
                        // both placements cover exactly the module's globals.
                        assert_eq!(solve.placement.len(), e.module.globals.len());
                        assert_eq!(g.placement.len(), e.module.globals.len());
                    }
                }
                Err(ClaraError::Placement {
                    kind: PlacementFailure::Infeasible,
                    ..
                }) => {
                    // Greedy never solves an instance the exact search
                    // proves infeasible.
                    assert!(
                        plan::greedy_placement(&e.module, &wp, b.nic()).is_none(),
                        "{} on {}: greedy found a plan the ILP called infeasible",
                        e.name(),
                        b.name()
                    );
                }
                Err(other) => panic!("{} on {}: unexpected error {other}", e.name(), b.name()),
            }
        }
    }
}

#[test]
fn placement_matrix_matches_golden() {
    let mut out = String::from(
        "# placement matrix golden: <element> <backend> obj=<saved cycles/pkt> \
         greedy=<greedy objective|none> <global>=<level>...\n",
    );
    for e in clara_repro::click::extended_corpus() {
        for b in hal::builtins() {
            let wp = profile(&e, b);
            match plan::solve_nf(&e.module, &wp, b.nic(), DEFAULT_NODE_BUDGET) {
                Ok(solve) => {
                    let greedy = solve
                        .greedy
                        .as_ref()
                        .map_or("none".to_string(), |g| format!("{:.3}", g.objective));
                    let levels: Vec<String> = solve
                        .placement
                        .iter()
                        .map(|(g, l)| {
                            format!(
                                "{}={}",
                                e.module.global(*g).map_or("?", |d| d.name.as_str()),
                                l.name()
                            )
                        })
                        .collect();
                    writeln!(
                        out,
                        "{} {} obj={:.3} greedy={} {}",
                        e.name(),
                        b.name(),
                        solve.objective,
                        greedy,
                        levels.join(" ")
                    )
                    .expect("write to string");
                }
                Err(e2) => {
                    writeln!(out, "{} {} error={e2}", e.name(), b.name()).expect("write to string");
                }
            }
        }
    }
    check_golden("place_matrix.txt", &out);
}

#[test]
fn place_plan_has_the_request_shape_and_beats_greedy() {
    let _g = obs_lock();
    let req = PlacementRequest::new(["firewall", "mazunat"]);
    let plan = clara().place(&req).expect("feasible request");
    assert_eq!(plan.nfs.len(), 2);
    assert_eq!(plan.nfs[0].nf, "firewall");
    assert_eq!(plan.nfs[1].nf, "mazunat");
    assert!(plan.total_objective >= plan.greedy_total_objective - 1e-9);
    assert_eq!(plan.split.total_stages, 2);
    assert!(plan.split.nic_stages <= plan.split.total_stages);
    assert!(plan.replay.is_none());
    for nf in &plan.nfs {
        assert!(nf.throughput_mpps > 0.0 && nf.throughput_mpps.is_finite());
        assert!(nf.latency_us > 0.0 && nf.latency_us.is_finite());
        assert!(nf.suggested_cores >= 1);
        assert!(nf.solve.delta() >= -1e-9, "delta {}", nf.solve.delta());
    }
}

/// The chain split re-profiles every stage on each `place`, but its
/// vendor compiles come from the engine's compile cache: a repeated
/// request compiles nothing.
#[test]
fn repeated_place_compiles_nothing() {
    let _g = obs_lock();
    let req = PlacementRequest::new(["firewall", "mazunat", "flowstats"]);
    let engine = Engine::new();
    let first = clara().place(&req).expect("feasible request");
    let before = engine.stats();
    let again = clara().place(&req).expect("feasible request");
    let after = engine.stats();
    assert_eq!(
        after.compile_misses, before.compile_misses,
        "a repeated place must not compile"
    );
    assert!(
        after.compile_hits > before.compile_hits,
        "the split's compiles are cache hits"
    );
    assert_eq!(
        clara_repro::serve::protocol::place_response(None, &first),
        clara_repro::serve::protocol::place_response(None, &again),
    );
}

#[test]
fn unknown_nf_is_a_typed_placement_error() {
    let _g = obs_lock();
    let err = clara()
        .place(&PlacementRequest::new(["not-an-nf"]))
        .expect_err("must fail");
    match err {
        ClaraError::Placement { kind, .. } => assert_eq!(kind, PlacementFailure::UnknownNf),
        other => panic!("unexpected error {other}"),
    }
    assert_eq!(err.exit_code(), 10);
}

#[test]
fn shifting_replay_resolves_and_renders_deterministically() {
    let _g = obs_lock();
    let req = PlacementRequest::builder(["mazunat"])
        .replay("shift")
        .epochs(4)
        .build();
    let a = clara().place(&req).expect("feasible replay");
    let replay = a.replay.as_ref().expect("replay summary present");
    assert_eq!(replay.schedule, "shift");
    assert_eq!(replay.epochs.len(), 4);
    assert!(
        replay.resolves >= 1,
        "phase boundary must trigger a re-solve: {replay:?}"
    );
    // Epoch 0 always solves but is not a re-solve.
    assert!(replay.epochs[0].resolved);
    assert_eq!(replay.epochs[0].drift, 0.0);
    // Byte-determinism: the same request renders the same response.
    let b = clara().place(&req).expect("feasible replay");
    assert_eq!(
        clara_repro::serve::protocol::place_response(None, &a),
        clara_repro::serve::protocol::place_response(None, &b),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A drift-free (single-phase) replay never migrates: every epoch of
    /// a `steady` schedule regenerates a bit-identical trace, so drift
    /// is exactly zero and the epoch-0 plan survives the whole replay.
    #[test]
    fn steady_replay_never_migrates(seed in 0u64..500, epochs in 2usize..5) {
        let _g = obs_lock();
        let req = PlacementRequest::builder(["udpcount"])
            .seed(seed)
            .packets(200)
            .replay("steady")
            .epochs(epochs)
            .build();
        let plan = clara().place(&req).expect("feasible replay");
        let replay = plan.replay.as_ref().expect("replay summary present");
        prop_assert_eq!(replay.resolves, 0, "{:?}", replay);
        prop_assert_eq!(replay.migrated_globals, 0);
        prop_assert_eq!(replay.migration_bytes, 0);
        for ep in replay.epochs.iter().skip(1) {
            prop_assert_eq!(ep.drift, 0.0);
            prop_assert!(!ep.resolved);
        }
    }
}
