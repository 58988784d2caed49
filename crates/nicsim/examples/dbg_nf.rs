//! Scratch: inspect a real NF's workload profile and sweep.
use click_model::elements;
use nic_sim::*;
use trafgen::{Trace, WorkloadSpec};

fn main() {
    let e = elements::mazunat();
    let spec = WorkloadSpec {
        tcp_ratio: 1.0,
        ..WorkloadSpec::small_flows().with_flows(4096)
    };
    let trace = Trace::generate(&spec, 3000, 2);
    let cfg = NicConfig {
        emem_cache_bytes: 64 * 1024,
        ..NicConfig::default()
    };
    let port = PortConfig::naive().with_csum_accel();
    let wp = profile_workload(&e.module, &trace, &port, &cfg, |_| {});
    println!(
        "compute={:.1} accesses={:?}",
        wp.compute,
        wp.level_accesses(&port)
    );
    println!("ws={:?}", wp.working_set);
    let (h, m) = wp.emem_split(&cfg, &port);
    println!(
        "emem hits={h:.2} misses={m:.2} mean_size={}",
        wp.mean_pkt_size
    );
    for c in [1u32, 8, 16, 24, 32, 40, 48, 56, 60] {
        let p = solve_perf(&wp, &cfg, &port, c);
        println!(
            "{c:3}: {:7.3} Mpps {:7.3} us ratio={:.4} util={:.3}",
            p.throughput_mpps,
            p.latency_us,
            p.ratio(),
            p.max_channel_util
        );
    }
}
