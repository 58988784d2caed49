//! Partial offloading: splitting an NF chain between SmartNIC and host.
//!
//! The paper's Discussion (§6) names this as the natural extension:
//! "a partial offloading scenario might split the NF program between
//! host CPUs and SmartNICs … Clara would also need to reason about the
//! communication between SmartNICs and the host". This module implements
//! that reasoning for linear service chains:
//!
//! - a simple **host cost model** ([`HostConfig`]): few fast wide cores,
//!   cache-served state, per-packet kernel-bypass IO overhead;
//! - a **PCIe crossing model**: per-packet DMA latency plus a bandwidth
//!   ceiling, paid once when the packet moves from NIC to host;
//! - [`suggest_split`]: evaluates every prefix split (stages `0..k` on
//!   the NIC, `k..n` on the host) and reports throughput, latency, and —
//!   the quantity the paper's introduction optimizes — **host CPU cores
//!   freed** for revenue work. [`crate::placement::plan`] re-exports it
//!   with [`best_split`], and [`crate::Clara::place`] builds the
//!   chain-split half of every placement plan with [`split_plans`], from
//!   the chain pass that also gave it the first NF's profile.

use nic_sim::{solve_perf, NicConfig, PortConfig, WorkloadProfile};
use serde::{Deserialize, Serialize};
use trafgen::Trace;

/// Host-side execution model (x86 server, kernel-bypass IO).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HostConfig {
    /// Host core clock in GHz.
    pub freq_ghz: f64,
    /// Host cores available for packet processing.
    pub cores: u32,
    /// Host cycles per NIC compute instruction (wide OoO cores retire
    /// several of the NIC's simple ops per cycle).
    pub cycles_per_inst: f64,
    /// Host cycles per state access (large caches make most hits cheap).
    pub mem_access_cycles: f64,
    /// Per-packet IO/framework overhead in host cycles (DPDK-style).
    pub io_overhead_cycles: f64,
    /// PCIe one-way crossing latency in microseconds.
    pub pcie_latency_us: f64,
    /// PCIe packet ceiling in Mpps (descriptor ring + DMA limits).
    pub pcie_mpps_cap: f64,
}

impl Default for HostConfig {
    fn default() -> HostConfig {
        HostConfig {
            freq_ghz: 3.4,
            cores: 8,
            cycles_per_inst: 0.45,
            mem_access_cycles: 12.0,
            io_overhead_cycles: 180.0,
            pcie_latency_us: 0.9,
            pcie_mpps_cap: 38.0,
        }
    }
}

/// A host-side operating point for a (partial) workload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HostPoint {
    /// Host cores used.
    pub cores: u32,
    /// Sustained throughput in Mpps.
    pub throughput_mpps: f64,
    /// Per-packet latency in microseconds.
    pub latency_us: f64,
}

/// Evaluates a workload profile on host cores.
pub fn host_point(wp: &WorkloadProfile, host: &HostConfig, cores: u32) -> HostPoint {
    let accesses: f64 =
        wp.fixed_accesses.iter().sum::<f64>() + wp.global_access.values().sum::<f64>();
    let cycles = host.io_overhead_cycles
        + wp.compute * host.cycles_per_inst
        + accesses * host.mem_access_cycles;
    let per_core_mpps = host.freq_ghz * 1e3 / cycles.max(1.0);
    HostPoint {
        cores,
        throughput_mpps: per_core_mpps * f64::from(cores.max(1)),
        latency_us: cycles / (host.freq_ghz * 1e3),
    }
}

/// One candidate split of a chain.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SplitPlan {
    /// Stages `0..nic_stages` run on the NIC; the rest on the host.
    pub nic_stages: usize,
    /// End-to-end sustainable throughput in Mpps.
    pub throughput_mpps: f64,
    /// End-to-end per-packet latency in microseconds.
    pub latency_us: f64,
    /// Host cores needed to keep up with the NIC at this split (the
    /// complement of "host cores freed").
    pub host_cores_needed: u32,
}

/// Evaluates every prefix split of a chain and returns one plan per
/// split point (`0..=n` NIC stages), ordered by split point. `nics[s]`
/// is stage `s`'s vendor-compiled module.
///
/// # Panics
///
/// Panics if inputs mismatch or the chain fails to run (element bugs).
#[allow(clippy::too_many_arguments)]
pub fn suggest_split(
    modules: &[&nf_ir::Module],
    nics: &[&nfcc::NicModule],
    trace: &Trace,
    ports: &[&PortConfig],
    nic_cfg: &NicConfig,
    nic_cores: u32,
    host: &HostConfig,
    setup: impl FnOnce(&mut click_model::Chain),
) -> Vec<SplitPlan> {
    let stages = nic_sim::profile_chain_stages(modules, nics, trace, ports, nic_cfg, setup);
    split_plans(&stages, trace, nic_cfg, nic_cores, host)
}

/// [`suggest_split`] from the chain's stage profiles
/// ([`nic_sim::profile_chain_stages`] over `trace`), for a caller that
/// already ran the chain.
pub fn split_plans(
    stages: &[WorkloadProfile],
    trace: &Trace,
    nic_cfg: &NicConfig,
    nic_cores: u32,
    host: &HostConfig,
) -> Vec<SplitPlan> {
    let n = stages.len();
    let mut plans = Vec::with_capacity(n + 1);
    for k in 0..=n {
        // NIC side: stages 0..k.
        let (nic_thpt, nic_lat) = if k == 0 {
            (f64::INFINITY, 0.0)
        } else {
            let nic_wp = nic_sim::merge_stage_profiles(&stages[..k], trace);
            let p = solve_perf(&nic_wp, nic_cfg, &PortConfig::naive(), nic_cores);
            (p.throughput_mpps, p.latency_us)
        };
        // Host side: stages k..n (cost per chain packet; reach-weighting
        // is already folded into the stage profiles).
        let (host_thpt_per_core, host_lat) = if k == n {
            (f64::INFINITY, 0.0)
        } else {
            let host_wp = nic_sim::merge_stage_profiles(&stages[k..], trace);
            let hp = host_point(&host_wp, host, 1);
            (hp.throughput_mpps, hp.latency_us)
        };
        // PCIe crossing: paid whenever any stage runs on the host.
        let (pcie_cap, pcie_lat) = if k == n {
            (f64::INFINITY, 0.0)
        } else {
            (host.pcie_mpps_cap, host.pcie_latency_us)
        };

        // Host cores needed to match the upstream bottleneck.
        let upstream = nic_thpt.min(pcie_cap);
        let host_cores_needed = if k == n {
            0
        } else {
            ((upstream / host_thpt_per_core).ceil() as u32).clamp(1, host.cores)
        };
        let host_thpt = if k == n {
            f64::INFINITY
        } else {
            host_thpt_per_core * f64::from(host_cores_needed)
        };

        let throughput = nic_thpt.min(pcie_cap).min(host_thpt);
        plans.push(SplitPlan {
            nic_stages: k,
            throughput_mpps: if throughput.is_finite() {
                throughput
            } else {
                0.0
            },
            latency_us: nic_lat + pcie_lat + host_lat,
            host_cores_needed,
        });
    }
    plans
}

/// Picks the split that minimizes host cores while staying within
/// `slack` (e.g. 0.95) of the best achievable throughput.
pub fn best_split(plans: &[SplitPlan], slack: f64) -> Option<&SplitPlan> {
    let best = plans
        .iter()
        .map(|p| p.throughput_mpps)
        .fold(0.0f64, f64::max);
    plans
        .iter()
        .filter(|p| p.throughput_mpps >= best * slack.clamp(0.0, 1.0))
        .min_by_key(|p| (p.host_cores_needed, std::cmp::Reverse(p.nic_stages)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use click_model::elements;
    use trafgen::WorkloadSpec;

    fn chain_plans() -> Vec<SplitPlan> {
        let fw = elements::firewall();
        let nat = elements::mazunat();
        let stats = elements::flowstats();
        let spec = WorkloadSpec {
            tcp_ratio: 1.0,
            ..WorkloadSpec::large_flows().with_flows(64)
        };
        let trace = Trace::generate(&spec, 1500, 1);
        let cfg = NicConfig::default();
        let naive = PortConfig::naive();
        let pfx = u64::from(trace.pkts[0].flow.src_ip >> 12);
        let modules = [&fw.module, &nat.module, &stats.module];
        let nics = modules.map(nfcc::compile_module);
        suggest_split(
            &modules,
            &nics.each_ref(),
            &trace,
            &[&naive, &naive, &naive],
            &cfg,
            40,
            &HostConfig::default(),
            |chain| {
                chain
                    .stage_mut(0)
                    .expect("stage 0")
                    .state
                    .store(nf_ir::GlobalId(1), 0, 0, 4, pfx);
            },
        )
    }

    #[test]
    fn evaluates_every_split_point() {
        let plans = chain_plans();
        assert_eq!(plans.len(), 4); // 0..=3 NIC stages.
        for (k, p) in plans.iter().enumerate() {
            assert_eq!(p.nic_stages, k);
            assert!(p.throughput_mpps > 0.0, "split {k}");
            assert!(p.latency_us > 0.0 && p.latency_us.is_finite());
        }
    }

    #[test]
    fn full_offload_frees_all_host_cores() {
        let plans = chain_plans();
        assert_eq!(plans.last().unwrap().host_cores_needed, 0);
        // Any partial split needs at least one host core.
        assert!(plans[..3].iter().all(|p| p.host_cores_needed >= 1));
    }

    #[test]
    fn partial_splits_pay_pcie_latency() {
        let plans = chain_plans();
        let host_cfg = HostConfig::default();
        // Every split with host stages carries at least the PCIe latency.
        for p in &plans[..3] {
            assert!(
                p.latency_us >= host_cfg.pcie_latency_us,
                "split {} too fast: {}",
                p.nic_stages,
                p.latency_us
            );
        }
    }

    #[test]
    fn best_split_prefers_fewer_host_cores() {
        let plans = chain_plans();
        let best = best_split(&plans, 0.9).expect("some plan");
        // Whatever the numbers, the chosen plan is within slack of the
        // fastest and no other qualifying plan uses fewer host cores.
        let fastest = plans
            .iter()
            .map(|p| p.throughput_mpps)
            .fold(0.0f64, f64::max);
        assert!(best.throughput_mpps >= 0.9 * fastest);
        for p in &plans {
            if p.throughput_mpps >= 0.9 * fastest {
                assert!(best.host_cores_needed <= p.host_cores_needed);
            }
        }
    }

    #[test]
    fn host_point_scales_with_cores() {
        let wp = WorkloadProfile {
            compute: 400.0,
            fixed_accesses: [0.0, 4.0, 0.0, 0.0],
            mean_pkt_size: 128.0,
            pkts: 100,
            ..Default::default()
        };
        let host = HostConfig::default();
        let one = host_point(&wp, &host, 1);
        let four = host_point(&wp, &host, 4);
        assert!((four.throughput_mpps / one.throughput_mpps - 4.0).abs() < 1e-9);
        assert_eq!(one.latency_us, four.latency_us);
    }
}
