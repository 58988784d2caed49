//! Figure 16: Clara's K-means coalescing vs 'expert' exhaustive layout
//! sweep over the hottest variables.

use clara_bench::{banner, f2, nic, table, trace_len};
use clara_core::coalesce::{exhaustive_coalescing, plan_accesses, suggest_coalescing, summarize};
use nic_sim::{solve_perf, NicConfig, PerfPoint, PortConfig};
use trafgen::{Trace, WorkloadSpec};

fn cores_to_saturate(pts: &[PerfPoint]) -> u32 {
    let peak = pts.last().expect("non-empty").throughput_mpps;
    pts.iter()
        .find(|p| p.throughput_mpps >= 0.98 * peak)
        .map_or(60, |p| p.cores)
}

fn main() {
    let _report = clara_bench::report_scope("fig16_expert_coalescing");
    banner(
        "Figure 16",
        "memory coalescing: Clara K-means vs expert exhaustive sweep",
    );
    let cfg = NicConfig {
        emem_cache_bytes: 32 * 1024,
        ..nic()
    };
    let spec = WorkloadSpec {
        tcp_ratio: 1.0,
        ..WorkloadSpec::large_flows()
    };
    let trace = Trace::generate(&spec, trace_len(), 91);

    let mut rows = Vec::new();
    for name in ["aggcounter", "timefilter", "webtcp", "tcpgen"] {
        let e = clara_bench::element(name);
        let clara_plan = suggest_coalescing(&e.module, &trace, 91);
        let expert_plan = exhaustive_coalescing(&e.module, &trace, &cfg, 8);

        // Both plans are priced from one pass of the NF over the trace:
        // the priced profile is the plan's costed profile, bit for bit.
        let summary = summarize(&e.module, &trace, &cfg);
        let eval = |plan: &nic_sim::CoalescePlan| -> (u32, f64, f64) {
            let port = PortConfig::naive().with_coalesce(plan.clone());
            let wp = summary.price(plan);
            let pts: Vec<PerfPoint> = (1..=60).map(|c| solve_perf(&wp, &cfg, &port, c)).collect();
            let sat = cores_to_saturate(&pts);
            (
                sat,
                pts[(sat - 1) as usize].latency_us,
                plan_accesses(&summary, &cfg, plan),
            )
        };
        let (c_cores, c_lat, c_acc) = eval(&clara_plan);
        let (e_cores, e_lat, e_acc) = eval(&expert_plan);
        rows.push(vec![
            name.to_string(),
            c_cores.to_string(),
            e_cores.to_string(),
            f2(c_lat),
            f2(e_lat),
            f2(c_acc),
            f2(e_acc),
        ]);
    }
    table(
        &[
            "NF",
            "Clara cores",
            "expert cores",
            "Clara us",
            "expert us",
            "Clara acc/pkt",
            "expert acc/pkt",
        ],
        &rows,
    );
    println!("\nPaper reference: expert delivers a small advantage (it also tunes the");
    println!("relative position of clusters); Clara remains competitive.");
}
