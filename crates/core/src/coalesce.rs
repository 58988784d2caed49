//! Memory access coalescing (paper Section 4.4).
//!
//! Clara computes, for each stateful variable, an *access vector* over
//! the NF's code blocks (how the variable's accesses distribute across
//! blocks), clusters variables with similar vectors via K-means, and
//! suggests packing each cluster contiguously so it can be fetched with
//! one coalesced access. Variables never accessed together (`good_pkt`
//! vs `bad_pkt` in the paper's tcpgen example) land in different
//! clusters.
//!
//! Both the access vectors and the price of every candidate plan come
//! from one profiling pass's [`CoalesceSummary`]: a search runs the NF
//! over the trace once, however many plans it tries.

use std::collections::BTreeMap;

use nf_ir::{GlobalId, Module, StateKind};
use nic_sim::{CoalescePlan, CoalesceSummary, NicConfig, PortConfig};
use tinyml::kmeans::KMeans;
use trafgen::Trace;

use crate::engine::Engine;

/// A coalescing variable: a scalar global (the paper's "global variables").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Var(pub GlobalId);

/// Per-variable access vectors over code blocks.
#[derive(Debug, Clone)]
pub struct AccessVectors {
    /// The variables, in module order.
    pub vars: Vec<Var>,
    /// `vectors[v][b]` = normalized access share of variable `v` from
    /// block `b`.
    pub vectors: Vec<Vec<f64>>,
    /// Raw access totals per variable.
    pub totals: Vec<f64>,
}

/// Whether a module has anything to pack: at least two scalar globals.
pub(crate) fn packs(module: &Module) -> bool {
    module
        .globals
        .iter()
        .filter(|g| g.kind == StateKind::Scalar)
        .nth(1)
        .is_some()
}

/// Runs the NF over the trace once under the naive port and `cfg`, and
/// summarizes the pass for coalescing: the access vectors and the price
/// of any plan. The compile comes from the engine's cache.
///
/// # Panics
///
/// Panics if the module fails verification or the interpreter hits its
/// step limit (both indicate element bugs, not user errors).
pub fn summarize(module: &Module, trace: &Trace, cfg: &NicConfig) -> CoalesceSummary {
    let nic = Engine::new().compile_cached(module);
    nic_sim::profile_summarized(module, &nic, trace, cfg).1
}

/// The access vectors of the scalar globals a summary saw, from each
/// access's block on the host (the paper's profiling step).
pub fn access_vectors(summary: &CoalesceSummary) -> AccessVectors {
    let (vars, counts): (Vec<Var>, Vec<Vec<f64>>) = summary
        .block_accesses()
        .iter()
        .map(|(g, c)| (Var(*g), c.iter().map(|&n| n as f64).collect()))
        .unzip();
    let totals: Vec<f64> = counts.iter().map(|c| c.iter().sum()).collect();
    let vectors = counts
        .into_iter()
        .zip(totals.iter())
        .map(|(c, &t)| {
            if t <= 0.0 {
                c
            } else {
                c.into_iter().map(|x| x / t).collect()
            }
        })
        .collect();
    AccessVectors {
        vars,
        vectors,
        totals,
    }
}

/// Clara's K-means coalescing suggestion.
///
/// Clusters variables by access-vector similarity for each candidate
/// cluster count, then keeps the clustering that minimizes profiled
/// memory accesses (the paper's "cutoff threshold to determine a suitable
/// inter-cluster distance", chosen by validation).
pub fn suggest_coalescing(module: &Module, trace: &Trace, seed: u64) -> CoalescePlan {
    // Fewer than two scalars leave nothing to pack: answer before
    // running (or even compiling) the NF at all.
    if !packs(module) {
        return CoalescePlan::default();
    }
    suggest_from(&summarize(module, trace, &NicConfig::default()), seed)
}

/// The K-means sweep over a summary: every candidate plan is priced from
/// it. Candidates are costed on the default device; a summary of a pass
/// on any device prices them the same (only `compute` depends on the
/// device, and the cost does not read it).
pub(crate) fn suggest_from(summary: &CoalesceSummary, seed: u64) -> CoalescePlan {
    let av = access_vectors(summary);
    if av.vars.len() < 2 {
        return CoalescePlan::default();
    }
    let cfg = NicConfig::default();
    let mut best = CoalescePlan::default();
    let mut best_cost = plan_accesses(summary, &cfg, &best);
    for k in 1..=av.vars.len().min(6) {
        let km = KMeans::fit(&av.vectors, k, seed);
        let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (vi, &c) in km.assignment.iter().enumerate() {
            groups.entry(c).or_default().push(vi);
        }
        // Variables never accessed in the same blocks must not share a
        // pack (the paper's good_pkt/bad_pkt example), even where the
        // beat-granular cost model is indifferent to the extra bytes.
        let mut clusters: Vec<Vec<(GlobalId, u32)>> = Vec::new();
        for members in groups.values() {
            for comp in co_access_components(members, &av.vectors) {
                // Only multi-variable clusters are worth packing.
                if comp.len() >= 2 {
                    clusters.push(comp.into_iter().map(|vi| (av.vars[vi].0, 0)).collect());
                }
            }
        }
        let plan = CoalescePlan { clusters };
        let cost = plan_accesses(summary, &cfg, &plan);
        if cost < best_cost {
            best_cost = cost;
            best = plan;
        }
    }
    best
}

/// Splits a candidate cluster into connected components of co-access:
/// two variables are linked when their access vectors overlap (they are
/// accessed from at least one common block).
fn co_access_components(members: &[usize], vectors: &[Vec<f64>]) -> Vec<Vec<usize>> {
    let overlap = |a: usize, b: usize| {
        vectors[a]
            .iter()
            .zip(vectors[b].iter())
            .any(|(x, y)| *x > 0.0 && *y > 0.0)
    };
    let mut comps: Vec<Vec<usize>> = Vec::new();
    let mut seen = vec![false; members.len()];
    for start in 0..members.len() {
        if seen[start] {
            continue;
        }
        let mut comp = vec![members[start]];
        seen[start] = true;
        let mut frontier = vec![start];
        while let Some(i) = frontier.pop() {
            for (j, seen_j) in seen.iter_mut().enumerate() {
                if !*seen_j && overlap(members[i], members[j]) {
                    *seen_j = true;
                    comp.push(members[j]);
                    frontier.push(j);
                }
            }
        }
        comp.sort_unstable();
        comps.push(comp);
    }
    comps
}

/// Expert emulation (Section 5.8): exhaustively tries every partition of
/// the hottest `k` variables and keeps the plan with the fewest profiled
/// memory accesses (a proxy for latency at saturation).
pub fn exhaustive_coalescing(
    module: &Module,
    trace: &Trace,
    cfg: &NicConfig,
    k: usize,
) -> CoalescePlan {
    if !packs(module) {
        return CoalescePlan::default();
    }
    let summary = summarize(module, trace, cfg);
    let av = access_vectors(&summary);
    // Hottest k variables.
    let mut order: Vec<usize> = (0..av.vars.len()).collect();
    order.sort_by(|&a, &b| av.totals[b].partial_cmp(&av.totals[a]).expect("finite"));
    order.truncate(k.min(av.vars.len()));
    if order.len() < 2 {
        return CoalescePlan::default();
    }

    let mut best_plan = CoalescePlan::default();
    let mut best_cost = plan_accesses(&summary, cfg, &best_plan);
    // Enumerate set partitions via restricted-growth strings.
    let n = order.len();
    let mut rgs = vec![0usize; n];
    loop {
        let nclusters = rgs.iter().copied().max().unwrap_or(0) + 1;
        let mut clusters: Vec<Vec<(GlobalId, u32)>> = vec![Vec::new(); nclusters];
        for (pos, &vi) in order.iter().enumerate() {
            clusters[rgs[pos]].push((av.vars[vi].0, 0));
        }
        let plan = CoalescePlan {
            clusters: clusters.into_iter().filter(|c| c.len() >= 2).collect(),
        };
        let cost = plan_accesses(&summary, cfg, &plan);
        if cost < best_cost {
            best_cost = cost;
            best_plan = plan;
        }
        if !next_rgs(&mut rgs) {
            break;
        }
    }
    best_plan
}

/// Total profiled memory accesses per packet under a plan (lower = better
/// packing): one pass of the NF over the trace, priced as
/// [`plan_accesses`] prices it.
pub fn eval_plan(module: &Module, trace: &Trace, cfg: &NicConfig, plan: &CoalescePlan) -> f64 {
    plan_accesses(&summarize(module, trace, cfg), cfg, plan)
}

/// Total per-packet demand on the memory channels of `cfg` under the
/// naive port plus `plan`, priced from a summary: the cost every
/// coalescing search minimizes.
///
/// # Panics
///
/// Panics if the plan packs a global that is not a scalar (see
/// [`CoalesceSummary::price`]).
pub fn plan_accesses(summary: &CoalesceSummary, cfg: &NicConfig, plan: &CoalescePlan) -> f64 {
    let port = PortConfig::naive().with_coalesce(plan.clone());
    summary.price(plan).channel_demand(cfg, &port).iter().sum()
}

/// Advances a restricted-growth string to the next set partition.
fn next_rgs(rgs: &mut [usize]) -> bool {
    let n = rgs.len();
    for i in (1..n).rev() {
        let max_prefix = rgs[..i].iter().copied().max().unwrap_or(0);
        if rgs[i] <= max_prefix {
            rgs[i] += 1;
            for r in rgs.iter_mut().skip(i + 1) {
                *r = 0;
            }
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use trafgen::WorkloadSpec;

    fn tcp_trace() -> Trace {
        let spec = WorkloadSpec {
            tcp_ratio: 1.0,
            ..WorkloadSpec::large_flows()
        };
        Trace::generate(&spec, 300, 1)
    }

    #[test]
    fn access_vectors_cover_all_scalars() {
        let e = click_model::elements::tcpgen();
        let summary = summarize(&e.module, &tcp_trace(), &NicConfig::default());
        let av = access_vectors(&summary);
        // tcpgen has eight scalar globals.
        assert_eq!(av.vars.len(), 8);
        // Co-accessed variables have similar vectors: sport/dport are
        // always written together in the SYN block.
        let sport = av.vars.iter().position(|v| v.0 == GlobalId(4)).unwrap();
        let dport = av.vars.iter().position(|v| v.0 == GlobalId(5)).unwrap();
        assert_eq!(av.vectors[sport], av.vectors[dport]);
    }

    /// Reference: the access vectors of one direct interpreter pass over
    /// the trace, from each packet's recorded events.
    fn machine_loop_vectors(module: &Module, trace: &Trace) -> AccessVectors {
        let vars: Vec<Var> = module
            .globals
            .iter()
            .filter(|g| g.kind == StateKind::Scalar)
            .map(|g| Var(g.id))
            .collect();
        let n_blocks = module.handler().map_or(0, |f| f.blocks.len());
        let mut counts = vec![vec![0.0f64; n_blocks]; vars.len()];
        let mut machine = click_model::Machine::new(module).expect("module verifies");
        for pkt in &trace.pkts {
            let t = machine.run(pkt).expect("no step limit");
            let mut cur_block = 0usize;
            for ev in &t.events {
                match ev {
                    click_model::Event::Block(b) => cur_block = b.index(),
                    click_model::Event::State { global, .. } => {
                        if let Some(vi) = vars.iter().position(|v| v.0 == *global) {
                            counts[vi][cur_block] += 1.0;
                        }
                    }
                    _ => {}
                }
            }
        }
        let totals: Vec<f64> = counts.iter().map(|c| c.iter().sum()).collect();
        let vectors = counts
            .into_iter()
            .zip(&totals)
            .map(|(c, &t)| {
                if t <= 0.0 {
                    c
                } else {
                    c.into_iter().map(|x| x / t).collect()
                }
            })
            .collect();
        AccessVectors {
            vars,
            vectors,
            totals,
        }
    }

    #[test]
    fn summary_access_vectors_match_a_direct_interpreter_pass() {
        let workloads = [WorkloadSpec::large_flows(), WorkloadSpec::small_flows()];
        for e in click_model::extended_corpus() {
            for (w, spec) in workloads.iter().enumerate() {
                let trace = Trace::generate(spec, 120, 3 + w as u64);
                let got = access_vectors(&summarize(&e.module, &trace, &NicConfig::default()));
                let want = machine_loop_vectors(&e.module, &trace);
                let what = format!("{} on workload {w}", e.name());
                assert_eq!(got.vars, want.vars, "{what}");
                assert_eq!(got.vectors, want.vectors, "{what}");
                assert_eq!(got.totals, want.totals, "{what}");
            }
        }
    }

    #[test]
    fn kmeans_groups_coaccessed_variables() {
        let e = click_model::elements::tcpgen();
        let plan = suggest_coalescing(&e.module, &tcp_trace(), 2);
        assert!(!plan.clusters.is_empty(), "no clusters suggested");
        // sport (g4) and dport (g5) must share a cluster.
        let c_sport = plan.cluster_of(GlobalId(4), 0);
        let c_dport = plan.cluster_of(GlobalId(5), 0);
        assert!(c_sport.is_some());
        assert_eq!(c_sport, c_dport, "sport/dport split: {plan:?}");
        // good_pkt (g6) and bad_pkt (g7) are never accessed together; they
        // must not share a cluster.
        let c_good = plan.cluster_of(GlobalId(6), 0);
        let c_bad = plan.cluster_of(GlobalId(7), 0);
        if let (Some(a), Some(b)) = (c_good, c_bad) {
            assert_ne!(a, b, "good/bad packed together: {plan:?}");
        }
    }

    #[test]
    fn coalescing_reduces_channel_demand() {
        let e = click_model::elements::tcpgen();
        let trace = tcp_trace();
        let cfg = nic_sim::NicConfig::default();
        let none = eval_plan(&e.module, &trace, &cfg, &CoalescePlan::default());
        let plan = suggest_coalescing(&e.module, &trace, 3);
        let packed = eval_plan(&e.module, &trace, &cfg, &plan);
        assert!(packed < none, "packed {packed} vs none {none}");
    }

    #[test]
    fn expert_is_at_least_as_good_as_kmeans() {
        let e = click_model::elements::webtcp();
        let trace = tcp_trace();
        let cfg = nic_sim::NicConfig::default();
        let clara = suggest_coalescing(&e.module, &trace, 4);
        let clara_cost = eval_plan(&e.module, &trace, &cfg, &clara);
        let expert = exhaustive_coalescing(&e.module, &trace, &cfg, 7);
        let expert_cost = eval_plan(&e.module, &trace, &cfg, &expert);
        assert!(
            expert_cost <= clara_cost + 1e-9,
            "expert {expert_cost} vs clara {clara_cost}"
        );
    }

    #[test]
    fn rgs_enumerates_bell_number_of_partitions() {
        let mut rgs = vec![0usize; 4];
        let mut count = 1;
        while next_rgs(&mut rgs) {
            count += 1;
        }
        assert_eq!(count, 15); // Bell(4).
    }
}
