//! NF colocation analysis via pairwise ranking (paper Section 4.5).
//!
//! Colocated NFs interfere through the shared memory subsystem. Clara
//! ranks candidate colocation pairs by "friendliness" with a
//! LambdaMART-style model over contention features: each NF's arithmetic
//! intensity, compute volume, and the pair's intensity ratio. Ground
//! truth comes from colocated runs: the aggregate colocated throughput
//! normalized by the NFs' exclusive-use peaks (or the latency analogue).

use nic_sim::{solve_colocated, solve_perf, NicConfig, PortConfig, WorkloadProfile};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use tinyml::gbdt::GbdtConfig;
use tinyml::rank::{LambdaMart, RankGroup};

/// The four ranking objectives evaluated in Figure 14a.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RankObjective {
    /// Aggregate colocated throughput over the sum of solo throughputs.
    TotalThroughput,
    /// Mean of per-NF relative throughput retention.
    AvgThroughput,
    /// Negated aggregate latency inflation.
    TotalLatency,
    /// Negated mean per-NF latency inflation.
    AvgLatency,
}

impl RankObjective {
    /// Display name (as in Figure 14a's x axis).
    pub fn name(self) -> &'static str {
        match self {
            RankObjective::TotalThroughput => "Th.Tot.",
            RankObjective::AvgThroughput => "Th.Avg.",
            RankObjective::TotalLatency => "Lat.Tot.",
            RankObjective::AvgLatency => "Lat.Avg.",
        }
    }

    /// All objectives.
    pub const ALL: [RankObjective; 4] = [
        RankObjective::TotalThroughput,
        RankObjective::AvgThroughput,
        RankObjective::TotalLatency,
        RankObjective::AvgLatency,
    ];
}

/// Contention features of a candidate pair.
pub fn pair_features(
    a: &WorkloadProfile,
    b: &WorkloadProfile,
    cfg: &NicConfig,
    port: &PortConfig,
) -> Vec<f64> {
    let da = a.channel_demand(cfg, port);
    let db = b.channel_demand(cfg, port);
    let mem_a: f64 = da.iter().sum();
    let mem_b: f64 = db.iter().sum();
    let ai_a = a.compute / mem_a.max(1e-9);
    let ai_b = b.compute / mem_b.max(1e-9);
    // Shared-port pressure: what fraction of the (shared) line each NF
    // would use alone on its half of the cores. The port's capacity is
    // set by the smaller packet size of the pair — the same convention
    // the colocated solver uses.
    let half = (cfg.cores / 2).max(1);
    let shared_line = cfg
        .line_rate_mpps(a.mean_pkt_size.min(b.mean_pkt_size))
        .max(1e-9);
    let io_a = solve_perf(a, cfg, port, half).throughput_mpps / shared_line;
    let io_b = solve_perf(b, cfg, port, half).throughput_mpps / shared_line;
    vec![
        ai_a.min(100.0),
        ai_b.min(100.0),
        (ai_a / ai_b.max(1e-9)).min(100.0),
        a.compute / 100.0,
        b.compute / 100.0,
        da[3] + db[3], // Combined EMEM-miss pressure.
        da[4] + db[4], // Combined cache pressure.
        mem_a + mem_b,
        io_a,
        io_b,
        io_a + io_b, // Joint line-rate pressure (>1 = guaranteed contention).
    ]
}

/// Measured colocation quality of a pair under an objective
/// (higher = friendlier).
pub fn measure_pair(
    a: &WorkloadProfile,
    b: &WorkloadProfile,
    cfg: &NicConfig,
    port: &PortConfig,
    objective: RankObjective,
) -> f64 {
    let half = (cfg.cores / 2).max(1);
    let solo_a = solve_perf(a, cfg, port, half);
    let solo_b = solve_perf(b, cfg, port, half);
    let pair = solve_colocated(&[a, b], cfg, &[port, port], &[half, half]);
    match objective {
        RankObjective::TotalThroughput => {
            (pair[0].throughput_mpps + pair[1].throughput_mpps)
                / (solo_a.throughput_mpps + solo_b.throughput_mpps).max(1e-9)
        }
        RankObjective::AvgThroughput => {
            0.5 * (pair[0].throughput_mpps / solo_a.throughput_mpps.max(1e-9)
                + pair[1].throughput_mpps / solo_b.throughput_mpps.max(1e-9))
        }
        RankObjective::TotalLatency => {
            -(pair[0].latency_us + pair[1].latency_us)
                / (solo_a.latency_us + solo_b.latency_us).max(1e-9)
        }
        RankObjective::AvgLatency => {
            -0.5 * (pair[0].latency_us / solo_a.latency_us.max(1e-9)
                + pair[1].latency_us / solo_b.latency_us.max(1e-9))
        }
    }
}

/// Builds ranking groups from a pool of NF workload profiles: each group
/// fixes a random subset of NFs and ranks all pairs within it.
pub fn training_groups(
    profiles: &[WorkloadProfile],
    cfg: &NicConfig,
    objective: RankObjective,
    groups: usize,
    group_nfs: usize,
    seed: u64,
) -> Vec<RankGroup> {
    let port = PortConfig::naive();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(groups);
    let mut idx: Vec<usize> = (0..profiles.len()).collect();
    for _ in 0..groups {
        idx.shuffle(&mut rng);
        let chosen = &idx[..group_nfs.min(idx.len())];
        let mut features = Vec::new();
        let mut relevance = Vec::new();
        for (pos, &i) in chosen.iter().enumerate() {
            for &j in &chosen[pos + 1..] {
                features.push(pair_features(&profiles[i], &profiles[j], cfg, &port));
                relevance.push(measure_pair(
                    &profiles[i],
                    &profiles[j],
                    cfg,
                    &port,
                    objective,
                ));
            }
        }
        if features.len() >= 2 {
            out.push(RankGroup {
                features,
                relevance,
            });
        }
    }
    out
}

/// A trained colocation ranker.
#[derive(Serialize, Deserialize)]
pub struct ColocRanker {
    model: LambdaMart,
    /// The objective this ranker was trained for.
    pub objective: RankObjective,
}

impl ColocRanker {
    /// Trains on ranking groups.
    pub fn train(groups: &[RankGroup], objective: RankObjective) -> ColocRanker {
        ColocRanker {
            model: LambdaMart::fit(
                groups,
                &GbdtConfig {
                    rounds: 150,
                    shrinkage: 0.08,
                    tree: tinyml::tree::TreeConfig {
                        max_depth: 5,
                        min_split: 4,
                        min_leaf: 2,
                    },
                },
            ),
            objective,
        }
    }

    /// Friendliness score of a pair (higher = ranked better).
    pub fn score(
        &self,
        a: &WorkloadProfile,
        b: &WorkloadProfile,
        cfg: &NicConfig,
        port: &PortConfig,
    ) -> f64 {
        self.model.score(&pair_features(a, b, cfg, port))
    }

    /// Top-k accuracy over held-out groups: fraction of groups whose true
    /// best pair appears in the predicted top k.
    pub fn topk_accuracy(&self, groups: &[RankGroup], k: usize) -> f64 {
        if groups.is_empty() {
            return 0.0;
        }
        let hits = groups
            .iter()
            .filter(|g| {
                let scores: Vec<f64> = g.features.iter().map(|f| self.model.score(f)).collect();
                tinyml::metrics::topk_contains_best(&g.relevance, &scores, k)
            })
            .count();
        hits as f64 / groups.len() as f64
    }
}

/// Predicted pairwise interference when two workloads are colocated on
/// one device: each side's relative throughput loss versus running alone
/// on half the cores (the colocated solver's split convention).
///
/// This is the operator-facing form of [`measure_pair`]: instead of a
/// unitless friendliness score it answers "tenant A loses X% next to
/// tenant B", which `clara serve` surfaces per registered tenant pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairInterference {
    /// Throughput loss of the first workload, percent of its solo peak.
    pub a_loss_pct: f64,
    /// Throughput loss of the second workload, percent of its solo peak.
    pub b_loss_pct: f64,
}

/// Predicts the colocation interference of a pair of workload profiles.
pub fn pair_interference(
    a: &WorkloadProfile,
    b: &WorkloadProfile,
    cfg: &NicConfig,
    port: &PortConfig,
) -> PairInterference {
    let half = (cfg.cores / 2).max(1);
    let solo_a = solve_perf(a, cfg, port, half);
    let solo_b = solve_perf(b, cfg, port, half);
    let pair = solve_colocated(&[a, b], cfg, &[port, port], &[half, half]);
    let loss =
        |solo: f64, colocated: f64| ((1.0 - colocated / solo.max(1e-9)) * 100.0).clamp(0.0, 100.0);
    PairInterference {
        a_loss_pct: loss(solo_a.throughput_mpps, pair[0].throughput_mpps),
        b_loss_pct: loss(solo_b.throughput_mpps, pair[1].throughput_mpps),
    }
}

/// Deterministic representative profile of an NF set, for tenant-level
/// colocation predictions: every module is profiled on the same fixed
/// small trace and the heaviest (largest compute volume) profile stands
/// in for the set. Returns `None` for an empty set.
pub fn representative_profile(
    modules: &[&nf_ir::Module],
    cfg: &NicConfig,
) -> Option<WorkloadProfile> {
    use trafgen::{Trace, WorkloadSpec};
    let port = PortConfig::naive();
    let trace = Trace::generate(&WorkloadSpec::large_flows(), 300, 42);
    modules
        .iter()
        .map(|m| nic_sim::profile_workload(m, &trace, &port, cfg, |_| {}))
        .max_by(|a, b| {
            a.compute
                .partial_cmp(&b.compute)
                .expect("profile compute volumes are finite")
        })
}

/// Profiles a pool of synthesized NFs for ranking experiments.
pub fn synth_profiles(n: usize, cfg: &NicConfig, seed: u64) -> Vec<WorkloadProfile> {
    use trafgen::{Trace, WorkloadSpec};
    let modules = nf_synth::synth_corpus(n, true, seed);
    let port = PortConfig::naive();
    modules
        .iter()
        .enumerate()
        .map(|(i, m)| {
            // Vary flow counts and packet sizes so the pool spans the
            // arithmetic-intensity spectrum (cache-resident to DRAM-bound,
            // IO-bound to memory-bound).
            let flows = [32u32, 512, 4096, 16384][i % 4];
            let size = [64u16, 128, 512, 1400][(i / 4) % 4];
            let spec = WorkloadSpec::small_flows()
                .with_flows(flows)
                .with_pkt_size(size);
            let trace = Trace::generate(&spec, 600, seed ^ i as u64);
            nic_sim::profile_workload(m, &trace, &port, cfg, |_| {})
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranker_beats_random_on_held_out_groups() {
        let cfg = NicConfig::default();
        let profiles = synth_profiles(24, &cfg, 1);
        let train = training_groups(&profiles, &cfg, RankObjective::TotalThroughput, 40, 5, 2);
        let test = training_groups(&profiles, &cfg, RankObjective::TotalThroughput, 20, 5, 99);
        let ranker = ColocRanker::train(&train, RankObjective::TotalThroughput);
        let top1 = ranker.topk_accuracy(&test, 1);
        let top3 = ranker.topk_accuracy(&test, 3);
        // Groups of 5 NFs have C(5,2)=10 candidate pairs: random top-1 is
        // 10%, random top-3 is 30%.
        // Random guessing gets 10% top-1 / 30% top-3 on 10-pair groups.
        assert!(top1 > 0.2, "top-1 {top1}");
        assert!(top3 > 0.5, "top-3 {top3}");
        assert!(top3 >= top1);
    }

    #[test]
    fn friendliness_measure_prefers_compute_bound_partner() {
        let cfg = NicConfig::default();
        let port = PortConfig::naive();
        let mut mem_hog = WorkloadProfile {
            pkts: 100,
            compute: 150.0,
            fixed_accesses: [0.0, 2.0, 0.0, 0.0],
            mean_pkt_size: 128.0,
            ..Default::default()
        };
        mem_hog.global_access.insert(nf_ir::GlobalId(0), 10.0);
        mem_hog.working_set.insert(nf_ir::GlobalId(0), 1 << 30);
        let compute_nf = WorkloadProfile {
            pkts: 100,
            compute: 2000.0,
            fixed_accesses: [0.0, 1.0, 0.0, 0.0],
            mean_pkt_size: 128.0,
            ..Default::default()
        };
        let victim = mem_hog.clone();
        let with_hog = measure_pair(
            &victim,
            &mem_hog,
            &cfg,
            &port,
            RankObjective::TotalThroughput,
        );
        let with_friend = measure_pair(
            &victim,
            &compute_nf,
            &cfg,
            &port,
            RankObjective::TotalThroughput,
        );
        assert!(
            with_friend > with_hog,
            "friend {with_friend} vs hog {with_hog}"
        );
    }

    #[test]
    fn objectives_have_names() {
        for o in RankObjective::ALL {
            assert!(!o.name().is_empty());
        }
    }
}
