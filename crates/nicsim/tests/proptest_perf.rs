//! Property tests for the analytic performance model (`solve_perf`).
//!
//! The model must behave like hardware: adding cores never reduces
//! sustained throughput, and latency is always a positive finite number,
//! for any ported corpus element under any workload shape.

use proptest::prelude::*;

use nic_sim::{profile_workload, solve_perf, NicConfig, PortConfig, WorkloadProfile};
use trafgen::{Trace, WorkloadSpec};

/// A profile for one corpus element under one of several workload shapes.
fn profile(elem: usize, workload: usize, seed: u64) -> WorkloadProfile {
    let corpus = click_model::corpus();
    let e = &corpus[elem % corpus.len()];
    let spec = match workload % 4 {
        0 => WorkloadSpec::large_flows(),
        1 => WorkloadSpec::small_flows().with_flows(1024),
        2 => WorkloadSpec::min_size(),
        _ => WorkloadSpec::imix(),
    };
    let trace = Trace::generate(&spec, 80, seed);
    profile_workload(
        &e.module,
        &trace,
        &PortConfig::naive(),
        &NicConfig::default(),
        |_| {},
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Throughput is monotone non-decreasing in the core count.
    #[test]
    fn throughput_never_drops_with_more_cores(
        elem in 0usize..64,
        workload in 0usize..4,
        seed in 0u64..1000,
    ) {
        let cfg = NicConfig::default();
        let port = PortConfig::naive();
        let wp = profile(elem, workload, seed);
        let mut prev = 0.0f64;
        for cores in 1..=cfg.cores {
            let p = solve_perf(&wp, &cfg, &port, cores);
            prop_assert!(
                p.throughput_mpps + 1e-9 >= prev,
                "throughput dropped at {} cores: {} -> {}",
                cores, prev, p.throughput_mpps
            );
            prev = p.throughput_mpps;
        }
    }

    /// Latency is positive and finite at every operating point.
    #[test]
    fn latency_is_positive_and_finite(
        elem in 0usize..64,
        workload in 0usize..4,
        seed in 0u64..1000,
        cores in 1u32..60,
    ) {
        let cfg = NicConfig::default();
        let port = PortConfig::naive();
        let wp = profile(elem, workload, seed);
        let p = solve_perf(&wp, &cfg, &port, cores.min(cfg.cores));
        prop_assert!(p.latency_us.is_finite(), "latency not finite: {}", p.latency_us);
        prop_assert!(p.latency_us > 0.0, "latency not positive: {}", p.latency_us);
        prop_assert!(p.throughput_mpps.is_finite() && p.throughput_mpps > 0.0);
    }
}
