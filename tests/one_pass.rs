//! One pass per NF: the shortcuts a plan request takes give the answers
//! of the passes they replace, bit for bit.
//!
//! - A coalescing plan's cost priced from a summary of a pass on any
//!   built-in device equals its cost from a pass on the default device:
//!   only `compute` depends on the device, and the cost does not read it.
//! - A chain pass's first stage is the first NF's standalone profile, for
//!   every ordered pair of corpus NFs on every built-in device, and ports
//!   that only place state change no stage profile.
//! - `analyze` equals the two-pass path (a profile, then a coalescing
//!   search of its own pass), whether its summary rode the profiling pass
//!   (cold cache) or ran as its own pass (warm cache).
//! - `place` equals the two-pass path (every NF profiled alone, then the
//!   placed chain profiled again for the split).
//! - A warm disk cache changes neither `analyze`'s answer nor its
//!   deterministic run report.
//!
//! The corpus runs on every built-in device and, where a model is
//! involved, at both precisions.

use std::sync::{Mutex, OnceLock};

use clara_repro::clara::coalesce;
use clara_repro::clara::partial::{best_split, suggest_split, HostConfig};
use clara_repro::clara::placement::apply_placement;
use clara_repro::clara::placement::plan::{solve_nf, DEFAULT_NODE_BUDGET, DEFAULT_SPLIT_SLACK};
use clara_repro::clara::{engine, Clara, ClaraConfig, PlacementRequest, Precision};
use clara_repro::hal::{self, Backend as _};
use clara_repro::ir::StateKind;
use clara_repro::nicsim::{self, CoalescePlan, NicConfig, PortConfig};
use clara_repro::trafgen::{Trace, WorkloadSpec};

/// The engine caches are process globals.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A tiny trained pipeline, shared: the answers compared here do not
/// depend on model quality.
fn clara() -> &'static Clara {
    static CLARA: OnceLock<Clara> = OnceLock::new();
    CLARA.get_or_init(|| {
        let cfg = ClaraConfig::fast(31)
            .to_builder()
            .predict_programs(6)
            .algid_per_class(4)
            .scaleout_programs(2)
            .epochs(2)
            .build();
        Clara::train(&cfg).expect("training succeeds")
    })
}

fn specs() -> [WorkloadSpec; 2] {
    [
        WorkloadSpec::large_flows(),
        WorkloadSpec::small_flows().with_flows(8192),
    ]
}

/// Plans over a module's scalars: every scalar in one pack, adjacent
/// pairs, and the suggested plan.
fn plans(module: &clara_repro::ir::Module, trace: &Trace) -> Vec<CoalescePlan> {
    let scalars: Vec<_> = module
        .globals
        .iter()
        .filter(|g| g.kind == StateKind::Scalar)
        .map(|g| (g.id, 0))
        .collect();
    vec![
        CoalescePlan::default(),
        CoalescePlan {
            clusters: vec![scalars.clone()],
        },
        CoalescePlan {
            clusters: scalars.chunks(2).map(<[_]>::to_vec).collect(),
        },
        coalesce::suggest_coalescing(module, trace, 7),
    ]
}

#[test]
fn plan_costs_do_not_depend_on_the_device_of_the_pass() {
    let _g = lock();
    let default = NicConfig::default();
    for (s, spec) in specs().iter().enumerate() {
        let trace = Trace::generate(spec, 100, 40 + s as u64);
        for e in clara_repro::click::extended_corpus() {
            let base = coalesce::summarize(&e.module, &trace, &default);
            for plan in plans(&e.module, &trace) {
                let want = base.price(&plan);
                let port = PortConfig::naive().with_coalesce(plan.clone());
                for b in hal::builtins() {
                    let on_device = coalesce::summarize(&e.module, &trace, b.nic());
                    let got = on_device.price(&plan);
                    let what = format!("{} on {} under {plan:?}", e.name(), b.name());
                    assert_eq!(
                        coalesce::plan_accesses(&on_device, &default, &plan).to_bits(),
                        coalesce::plan_accesses(&base, &default, &plan).to_bits(),
                        "{what}"
                    );
                    assert_eq!(
                        got.channel_demand(&default, &port),
                        want.channel_demand(&default, &port),
                        "{what}"
                    );
                    assert_eq!(
                        format!(
                            "{:?}",
                            nicsim::WorkloadProfile {
                                compute: 0.0,
                                ..got
                            }
                        ),
                        format!(
                            "{:?}",
                            nicsim::WorkloadProfile {
                                compute: 0.0,
                                ..want.clone()
                            }
                        ),
                        "{what}: only compute may differ"
                    );
                }
            }
        }
    }
}

#[test]
fn chain_first_stage_is_the_standalone_profile() {
    let _g = lock();
    let corpus = clara_repro::click::extended_corpus();
    let nics: Vec<_> = corpus
        .iter()
        .map(|e| nfcc::compile_module(&e.module))
        .collect();
    let naive = PortConfig::naive();
    let trace = Trace::generate(&WorkloadSpec::small_flows().with_flows(64), 48, 17);
    let mut pairs = 0;
    for b in hal::builtins() {
        let alone: Vec<String> = corpus
            .iter()
            .zip(&nics)
            .map(|(e, nic)| {
                let wp = nicsim::profile_workload_compiled(&e.module, nic, &trace, &naive, b.nic());
                format!("{wp:?}")
            })
            .collect();
        for (i, a) in corpus.iter().enumerate() {
            for (j, z) in corpus.iter().enumerate() {
                let modules = [&a.module, &z.module];
                let stage_nics = [&nics[i], &nics[j]];
                let pass = nicsim::run_chain(
                    &modules,
                    &stage_nics,
                    &trace,
                    &[&naive, &naive],
                    b.nic(),
                    |_| {},
                );
                let what = format!("{}+{} on {}", a.name(), z.name(), b.name());
                let stages = pass.stage_profiles();
                assert_eq!(format!("{:?}", stages[0]), alone[i], "{what}: stage 0");
                if j == (i + 1) % corpus.len() {
                    // Ports that only place state change no stage profile.
                    let placed: Vec<PortConfig> = modules
                        .iter()
                        .map(|m| {
                            m.globals.iter().fold(PortConfig::naive(), |p, g| {
                                p.place(g.id, nicsim::MemLevel::ALL[g.id.index() % 4])
                            })
                        })
                        .collect();
                    let placed_stages = nicsim::profile_chain_stages(
                        &modules,
                        &stage_nics,
                        &trace,
                        &[&placed[0], &placed[1]],
                        b.nic(),
                        |_| {},
                    );
                    assert_eq!(
                        format!("{placed_stages:?}"),
                        format!("{stages:?}"),
                        "{what}: placed ports"
                    );
                }
                pairs += 1;
            }
        }
    }
    assert_eq!(pairs, 4 * corpus.len() * corpus.len());
}

#[test]
fn analyze_matches_the_two_pass_path() {
    let _g = lock();
    let clara = clara();
    let naive = PortConfig::naive();
    for (s, spec) in specs().iter().enumerate() {
        let trace = Trace::generate(spec, 100, 60 + s as u64);
        for e in clara_repro::click::extended_corpus() {
            // The coalescing search of a pass of its own, on the default
            // device.
            let plan = coalesce::suggest_coalescing(&e.module, &trace, 7);
            for b in hal::builtins() {
                let profile = nicsim::profile_workload(&e.module, &trace, &naive, b.nic(), |_| {});
                for p in [Precision::F64, Precision::Q16] {
                    let what = format!("{} on {} at {p:?}, trace {s}", e.name(), b.name());
                    engine::Engine::new().clear_caches();
                    let cold = clara
                        .analyze_on_prec(&e.module, &trace, b, p)
                        .expect("analysis succeeds");
                    let warm = clara
                        .analyze_on_prec(&e.module, &trace, b, p)
                        .expect("analysis succeeds");
                    assert_eq!(format!("{cold:?}"), format!("{warm:?}"), "{what}");
                    assert_eq!(cold.coalesce, plan, "{what}");
                    assert_eq!(
                        format!("{:?}", cold.profile),
                        format!("{profile:?}"),
                        "{what}"
                    );
                }
            }
        }
    }
}

/// The summary rides the profiling pass on a warm disk cache too: a
/// warm-disk `analyze` runs the one pass a cold one does and reports
/// byte-identically.
#[test]
fn warm_disk_analyze_reports_as_a_cold_one() {
    use clara_repro::obs;
    let _g = lock();
    let clara = clara();
    let dir = std::env::temp_dir().join(format!("clara_one_pass_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::env::set_var("CLARA_CACHE_DIR", &dir);
    let trace = Trace::generate(&WorkloadSpec::large_flows(), 120, 5);
    for e in clara_repro::click::extended_corpus() {
        let run = || {
            engine::Engine::new().clear_caches();
            obs::enable();
            obs::reset();
            let insights = clara.analyze(&e.module, &trace).expect("analysis succeeds");
            let report = obs::RunReport::capture();
            obs::disable();
            (
                format!("{insights:?}"),
                report.counter("nicsim.record_runs"),
                report.to_json_deterministic(),
            )
        };
        let cold = run();
        let warm = run();
        assert_eq!(cold.1, Some(1), "{}: one pass", e.name());
        assert_eq!(cold, warm, "{}: cold vs warm disk", e.name());
    }
    std::env::remove_var("CLARA_CACHE_DIR");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn place_matches_the_two_pass_path() {
    let _g = lock();
    let clara = clara();
    let corpus = clara_repro::click::extended_corpus();
    let naive = PortConfig::naive();
    for b in hal::builtins() {
        let nic = b.nic();
        for (i, a) in corpus.iter().enumerate() {
            let z = &corpus[(i + 1) % corpus.len()];
            let req = PlacementRequest::builder([a.name(), z.name()])
                .packets(120)
                .seed(i as u64)
                .small_flows(i % 2 == 1)
                .build();
            let trace = req.trace();
            let modules = [&a.module, &z.module];
            // Every NF profiled alone, then solved.
            let profiles: Vec<_> = modules
                .iter()
                .map(|m| nicsim::profile_workload(m, &trace, &naive, nic, |_| {}))
                .collect();
            let solves: Result<Vec<_>, _> = modules
                .iter()
                .zip(&profiles)
                .map(|(m, wp)| solve_nf(m, wp, nic, DEFAULT_NODE_BUDGET))
                .collect();
            for p in [Precision::F64, Precision::Q16] {
                let what = format!("{}+{} on {} at {p:?}", a.name(), z.name(), b.name());
                match (&solves, clara.place_on_prec(&req, b, p)) {
                    (Ok(solves), Ok(plan)) => {
                        // The placed chain profiled again for the split.
                        let ports: Vec<PortConfig> = solves
                            .iter()
                            .map(|s| apply_placement(naive.clone(), &s.placement))
                            .collect();
                        for (k, nf) in plan.nfs.iter().enumerate() {
                            assert_eq!(nf.solve, solves[k], "{what}");
                            let cores = clara
                                .scaleout
                                .predict_prec(&profiles[k], nic, &naive, p)
                                .expect("finite")
                                .min(nic.cores);
                            let perf = nicsim::solve_perf(&profiles[k], nic, &ports[k], cores);
                            assert_eq!(nf.suggested_cores, cores, "{what}");
                            assert_eq!(
                                nf.throughput_mpps.to_bits(),
                                perf.throughput_mpps.to_bits(),
                                "{what}"
                            );
                            assert_eq!(
                                nf.latency_us.to_bits(),
                                perf.latency_us.to_bits(),
                                "{what}"
                            );
                        }
                        let nics = modules.map(nfcc::compile_module);
                        let plans = suggest_split(
                            &modules,
                            &nics.each_ref(),
                            &trace,
                            &[&ports[0], &ports[1]],
                            nic,
                            nic.cores,
                            &HostConfig::default(),
                            |_| {},
                        );
                        let chosen = best_split(&plans, DEFAULT_SPLIT_SLACK).expect("a split");
                        assert_eq!(plan.split.nic_stages, chosen.nic_stages, "{what}");
                        assert_eq!(
                            plan.split.throughput_mpps.to_bits(),
                            chosen.throughput_mpps.to_bits(),
                            "{what}"
                        );
                        assert_eq!(
                            plan.split.latency_us.to_bits(),
                            chosen.latency_us.to_bits(),
                            "{what}"
                        );
                        assert_eq!(
                            plan.split.host_cores_needed, chosen.host_cores_needed,
                            "{what}"
                        );
                    }
                    // Both paths fail on the same NF, with the same error
                    // (place names the device too).
                    (Err(want), Err(got)) => {
                        let (want, got) = (want.to_string(), got.to_string());
                        assert!(got.starts_with(&want), "{what}: {got} vs {want}");
                    }
                    (want, got) => panic!("{what}: two-pass {want:?} vs place {got:?}"),
                }
            }
        }
    }
}
