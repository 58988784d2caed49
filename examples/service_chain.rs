//! Service chain: port a whole NF pipeline to one SmartNIC.
//!
//! Run with: `cargo run --release --example service_chain`
//!
//! Scenario: an edge box runs `firewall → mazunat → flowstats` as a
//! pipeline. We push traffic through the chain functionally (header
//! rewrites and drops propagate stage to stage), profile the combined
//! per-packet cost, place every stage's state with Clara's ILP, and
//! compare naive vs tuned chain deployments across core counts.

use clara_repro::clara::partial::{best_split, HostConfig};
use clara_repro::clara::placement::{self, plan::suggest_split};
use clara_repro::click::{elements, Chain};
use clara_repro::nicsim::{self, NicConfig, PortConfig};
use clara_repro::trafgen::{Trace, WorkloadSpec};

fn main() {
    println!("=== service chain: firewall -> mazunat -> flowstats ===\n");
    let fw = elements::firewall();
    let nat = elements::mazunat();
    let stats = elements::flowstats();
    let spec = WorkloadSpec {
        tcp_ratio: 1.0,
        syn_ratio: 0.01,
        ..WorkloadSpec::small_flows().with_flows(64)
    };
    let trace = Trace::generate(&spec, 8000, 11);
    let cfg = NicConfig::default();

    // Functional run: admit every flow at the firewall, then watch the
    // chain behave.
    let mut chain = Chain::new([&fw.module, &nat.module, &stats.module]).expect("verifies");
    let pfx = u64::from(trace.pkts[0].flow.src_ip >> 12);
    chain
        .stage_mut(0)
        .expect("stage 0")
        .state
        .store(nf_ir::GlobalId(1), 0, 0, 4, pfx);
    let mut dropped = 0usize;
    for p in &trace.pkts {
        let r = chain.run(p).expect("runs");
        if r.dropped_at.is_some() {
            dropped += 1;
        }
    }
    println!(
        "functional run: {} packets, {} dropped by the chain",
        trace.pkts.len(),
        dropped
    );
    let exports = chain
        .stage_mut(2)
        .expect("stage 2")
        .state
        .load(nf_ir::GlobalId(2), 0, 0, 4);
    println!("flowstats exported {exports} records\n");

    // Combined profile and per-stage ILP placement.
    let naive = PortConfig::naive();
    let modules = [&fw.module, &nat.module, &stats.module];
    let ports = [&naive, &naive, &naive];
    let install_rule = |chain: &mut Chain| {
        chain
            .stage_mut(0)
            .expect("stage 0")
            .state
            .store(nf_ir::GlobalId(1), 0, 0, 4, pfx);
    };
    let nics = modules.map(nfcc::compile_module);
    let wp = nicsim::profile_chain(
        &modules,
        &nics.each_ref(),
        &trace,
        &ports,
        &cfg,
        install_rule,
    );
    println!(
        "chain cost: {:.0} compute cycles/pkt, {:.1} state accesses/pkt",
        wp.compute,
        wp.global_access.values().sum::<f64>()
    );

    // Clara placement per stage (profiled individually).
    // Build a combined port over the chain's namespaced global ids so the
    // performance model maps every stage's state to its chosen level.
    let mut combined = PortConfig::naive();
    for (i, m) in modules.iter().enumerate() {
        let stage_wp = nicsim::profile_workload(m, &trace, &naive, &cfg, |_| {});
        let map = placement::plan::suggest_placement(m, &stage_wp, &cfg).expect("feasible");
        println!(
            "stage {i} ({}) placement: {}",
            m.name,
            map.iter()
                .map(|(g, l)| format!(
                    "{}→{}",
                    m.global(*g).map_or("?", |d| d.name.as_str()),
                    l.name()
                ))
                .collect::<Vec<_>>()
                .join(" ")
        );
        for (g, l) in map {
            combined = combined.place(nicsim::chain_global(i, g), l);
        }
    }

    println!("\ncores   naive Mpps / us      Clara Mpps / us");
    for cores in [8u32, 16, 24, 32, 48, 60] {
        let a = nicsim::solve_perf(&wp, &cfg, &naive, cores);
        let b = nicsim::solve_perf(&wp, &cfg, &combined, cores);
        println!(
            "{cores:>5}   {:>6.2} / {:<6.2}     {:>6.2} / {:<6.2}",
            a.throughput_mpps, a.latency_us, b.throughput_mpps, b.latency_us
        );
    }

    // Partial offloading (paper §6): which chain prefix belongs on the NIC?
    println!("\npartial offloading (NIC prefix | host suffix, 40 NIC cores):");
    let host = HostConfig::default();
    let plans = suggest_split(
        &modules,
        &nics.each_ref(),
        &trace,
        &ports,
        &cfg,
        40,
        &host,
        install_rule,
    );
    for p in &plans {
        let (on_nic, on_host) = (
            chain.names()[..p.nic_stages].join("+"),
            chain.names()[p.nic_stages..].join("+"),
        );
        println!(
            "  [{:<28}|{:<28}]  {:>6.2} Mpps  {:>5.2} us  {} host cores",
            on_nic, on_host, p.throughput_mpps, p.latency_us, p.host_cores_needed
        );
    }
    if let Some(best) = best_split(&plans, 0.9) {
        println!(
            "\nClara recommends offloading {} of {} stages (frees {} of {} host cores)",
            best.nic_stages,
            modules.len(),
            host.cores - best.host_cores_needed,
            host.cores
        );
    }
}
