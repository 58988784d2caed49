//! NF state placement via ILP (paper Section 4.3).
//!
//! Clara collects per-structure access frequencies by running the NF on
//! the host against the workload trace, then solves
//! `min Σ L_j · p_ij · f_i` subject to one-location-per-structure and
//! per-level capacity constraints. The paper's expert emulation
//! (Section 5.8) — an exhaustive sweep over all placements, evaluated on
//! the real (here: simulated) NIC — is also provided; it can beat the ILP
//! exactly where the paper says it does, because the ILP's cost model
//! ignores the EMEM cache and bandwidth-spreading effects.
//!
//! The canonical placement API lives in [`plan`]: a typed
//! [`plan::PlacementRequest`] flows into [`crate::Clara::place`] and
//! returns a [`plan::PlacementPlan`]. The free functions kept at this
//! level are placement-agnostic helpers ([`apply_placement`],
//! [`exhaustive_placement`]).

use std::collections::BTreeMap;

use nf_ir::{GlobalId, Module};
use nic_sim::{solve_perf, MemLevel, NicConfig, PerfPoint, PortConfig, WorkloadProfile};

pub mod plan;

/// Fraction of each level's capacity available to NF state (the runtime
/// reserves the rest for packet buffers and metadata).
pub const CAPACITY_HEADROOM: f64 = 0.9;

/// Applies a placement map to a port configuration.
pub fn apply_placement(
    mut port: PortConfig,
    placement: &BTreeMap<GlobalId, MemLevel>,
) -> PortConfig {
    for (g, l) in placement {
        port = port.place(*g, *l);
    }
    port
}

/// Expert emulation: exhaustively tries every feasible placement on the
/// simulator and returns the best (by throughput/latency ratio at the
/// given core count), together with its operating point.
///
/// Exponential in the number of globals; fine for real NFs (≤ 6 globals).
pub fn exhaustive_placement(
    module: &Module,
    wp: &WorkloadProfile,
    cfg: &NicConfig,
    base: &PortConfig,
    cores: u32,
) -> Option<(BTreeMap<GlobalId, MemLevel>, PerfPoint)> {
    let n = module.globals.len();
    if n == 0 {
        return Some((BTreeMap::new(), solve_perf(wp, cfg, base, cores)));
    }
    let caps: Vec<u64> = MemLevel::ALL
        .iter()
        .map(|l| (cfg.level(*l).capacity as f64 * CAPACITY_HEADROOM) as u64)
        .collect();
    let mut assign = vec![0usize; n];
    let mut best: Option<(BTreeMap<GlobalId, MemLevel>, PerfPoint)> = None;
    loop {
        // Feasibility.
        let mut used = [0u64; 4];
        for (i, g) in module.globals.iter().enumerate() {
            used[assign[i]] += g.total_bytes();
        }
        if used.iter().zip(caps.iter()).all(|(u, c)| u <= c) {
            let placement: BTreeMap<GlobalId, MemLevel> = module
                .globals
                .iter()
                .enumerate()
                .map(|(i, g)| (g.id, MemLevel::ALL[assign[i]]))
                .collect();
            let port = apply_placement(base.clone(), &placement);
            let p = solve_perf(wp, cfg, &port, cores);
            if best.as_ref().is_none_or(|(_, b)| p.ratio() > b.ratio()) {
                best = Some((placement, p));
            }
        }
        // Odometer.
        let mut k = 0;
        loop {
            if k == n {
                return best;
            }
            assign[k] += 1;
            if assign[k] < 4 {
                break;
            }
            assign[k] = 0;
            k += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nic_sim::profile_workload;
    use trafgen::{Trace, WorkloadSpec};

    fn profiled(e: &click_model::NfElement) -> (WorkloadProfile, NicConfig) {
        let cfg = NicConfig::default();
        let trace = Trace::generate(&WorkloadSpec::small_flows().with_flows(2048), 500, 1);
        let wp = profile_workload(&e.module, &trace, &PortConfig::naive(), &cfg, |_| {});
        (wp, cfg)
    }

    #[test]
    fn hot_small_structures_move_to_fast_memory() {
        let e = click_model::elements::udpcount();
        let (wp, cfg) = profiled(&e);
        let placement = plan::suggest_placement(&e.module, &wp, &cfg).expect("feasible");
        // Every structure in udpcount is small; none should stay in EMEM.
        for (g, l) in &placement {
            assert_ne!(
                *l,
                MemLevel::Emem,
                "global {g:?} left in EMEM: {placement:?}"
            );
        }
    }

    #[test]
    fn capacity_forces_large_tables_out_of_cls() {
        let e = click_model::elements::mazunat();
        let (wp, cfg) = profiled(&e);
        let placement = plan::suggest_placement(&e.module, &wp, &cfg).expect("feasible");
        for g in &e.module.globals {
            if g.total_bytes() > cfg.level(MemLevel::Cls).capacity {
                assert_ne!(placement[&g.id], MemLevel::Cls, "{}", g.name);
            }
        }
    }

    #[test]
    fn ilp_placement_beats_naive_port() {
        let e = click_model::elements::udpcount();
        let (wp, cfg) = profiled(&e);
        let placement = plan::suggest_placement(&e.module, &wp, &cfg).expect("feasible");
        let naive = solve_perf(&wp, &cfg, &PortConfig::naive(), 20);
        let tuned_port = apply_placement(PortConfig::naive(), &placement);
        let tuned = solve_perf(&wp, &cfg, &tuned_port, 20);
        assert!(
            tuned.latency_us < naive.latency_us,
            "tuned {} vs naive {}",
            tuned.latency_us,
            naive.latency_us
        );
        assert!(tuned.throughput_mpps >= naive.throughput_mpps);
    }

    #[test]
    fn expert_is_at_least_as_good_as_ilp() {
        let e = click_model::elements::udpcount();
        let (wp, cfg) = profiled(&e);
        let ilp = plan::suggest_placement(&e.module, &wp, &cfg).expect("feasible");
        let ilp_port = apply_placement(PortConfig::naive(), &ilp);
        let ilp_point = solve_perf(&wp, &cfg, &ilp_port, 20);
        let (_, expert_point) =
            exhaustive_placement(&e.module, &wp, &cfg, &PortConfig::naive(), 20).expect("feasible");
        assert!(
            expert_point.ratio() >= ilp_point.ratio() - 1e-9,
            "expert {} vs ilp {}",
            expert_point.ratio(),
            ilp_point.ratio()
        );
    }

    #[test]
    fn infeasible_state_returns_none() {
        let mut m = nf_ir::Module::new("huge");
        let _ = m.add_global("big", nf_ir::StateKind::Array, 1024, 16 * 1024 * 1024); // 16 GB
        let mut fb = nf_ir::FunctionBuilder::new("process");
        let bb = fb.entry_block();
        fb.switch_to(bb);
        fb.ret(None);
        m.funcs.push(fb.finish());
        let wp = WorkloadProfile::default();
        assert!(plan::suggest_placement(&m, &wp, &NicConfig::default()).is_none());
    }
}
