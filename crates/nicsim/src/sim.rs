//! High-level simulation driver: NF module + workload + port → numbers.

use clara_obs as obs;
use click_model::Machine;
use nf_ir::Module;
use trafgen::Trace;

use crate::config::NicConfig;
use crate::model::{solve_colocated, solve_perf, PerfPoint};
use crate::port::PortConfig;
use crate::profile::{per_packet, profile_workload, Costing, Totals, WorkloadProfile};
use nfcc::NicModule;

/// A reusable simulation context for one NF.
#[derive(Debug, Clone)]
pub struct Simulation {
    /// The NF under simulation.
    pub module: Module,
    /// NIC hardware configuration.
    pub cfg: NicConfig,
}

impl Simulation {
    /// Creates a context (verifying the module via the interpreter).
    ///
    /// # Panics
    ///
    /// Panics if the module does not verify.
    pub fn new(module: &Module, cfg: NicConfig) -> Simulation {
        let _ = Machine::new(module).expect("module must verify");
        Simulation {
            module: module.clone(),
            cfg,
        }
    }

    /// Profiles a workload under a port configuration.
    pub fn profile(&self, trace: &Trace, port: &PortConfig) -> WorkloadProfile {
        profile_workload(&self.module, trace, port, &self.cfg, |_| {})
    }

    /// Simulates one operating point.
    pub fn run(&self, trace: &Trace, port: &PortConfig, cores: u32) -> PerfPoint {
        solve_perf(&self.profile(trace, port), &self.cfg, port, cores)
    }

    /// Sweeps core counts, returning one point per count.
    pub fn sweep(&self, trace: &Trace, port: &PortConfig, counts: &[u32]) -> Vec<PerfPoint> {
        let wp = self.profile(trace, port);
        counts
            .iter()
            .map(|&c| solve_perf(&wp, &self.cfg, port, c))
            .collect()
    }
}

/// One-shot simulation of an NF at a given core count.
pub fn simulate(
    module: &Module,
    trace: &Trace,
    port: &PortConfig,
    cfg: &NicConfig,
    cores: u32,
) -> PerfPoint {
    Simulation::new(module, cfg.clone()).run(trace, port, cores)
}

/// Sweeps 1..=max_cores and returns every operating point.
pub fn sweep_cores(
    module: &Module,
    trace: &Trace,
    port: &PortConfig,
    cfg: &NicConfig,
    max_cores: u32,
) -> Vec<PerfPoint> {
    let counts: Vec<u32> = (1..=max_cores).collect();
    Simulation::new(module, cfg.clone()).sweep(trace, port, &counts)
}

/// Simulates two NFs colocated on the NIC with an even core split.
pub fn simulate_colocated(
    a: (&Module, &Trace, &PortConfig),
    b: (&Module, &Trace, &PortConfig),
    cfg: &NicConfig,
) -> (PerfPoint, PerfPoint) {
    let wa = profile_workload(a.0, a.1, a.2, cfg, |_| {});
    let wb = profile_workload(b.0, b.1, b.2, cfg, |_| {});
    let half = (cfg.cores / 2).max(1);
    let pts = solve_colocated(&[&wa, &wb], cfg, &[a.2, b.2], &[half, half]);
    (pts[0], pts[1])
}

/// Finds the core count (in `1..=max`) maximizing throughput/latency.
pub fn optimal_cores(points: &[PerfPoint]) -> u32 {
    // First maximum: the fewest cores achieving the best ratio (ties go
    // to the smaller configuration — extra cores past a line-rate cap
    // buy nothing).
    let mut best = None::<&PerfPoint>;
    for p in points {
        if best.is_none_or(|b| p.ratio() > b.ratio() * (1.0 + 1e-9)) {
            best = Some(p);
        }
    }
    best.map_or(1, |p| p.cores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use click_model::elements;
    use trafgen::WorkloadSpec;

    #[test]
    fn end_to_end_simulation_runs() {
        let e = elements::aggcounter();
        let trace = Trace::generate(&WorkloadSpec::large_flows(), 200, 1);
        let p = simulate(
            &e.module,
            &trace,
            &PortConfig::naive(),
            &NicConfig::default(),
            8,
        );
        assert!(p.throughput_mpps > 0.1);
        assert!(p.latency_us > 0.1);
    }

    #[test]
    fn sweep_shows_knee_for_stateful_nf() {
        let e = elements::mazunat();
        let spec = WorkloadSpec {
            tcp_ratio: 1.0,
            ..WorkloadSpec::small_flows().with_flows(4096)
        };
        let trace = Trace::generate(&spec, 3000, 2);
        // Shrink the EMEM cache so the 4096-flow working set misses, and
        // use the checksum engine so compute doesn't dominate.
        let cfg = NicConfig {
            emem_cache_bytes: 4 * 1024,
            ..NicConfig::default()
        };
        let pts = sweep_cores(
            &e.module,
            &trace,
            &PortConfig::naive().with_csum_accel(),
            &cfg,
            60,
        );
        let best = optimal_cores(&pts);
        assert!(
            (2..=59).contains(&best),
            "expected interior optimum, got {best}"
        );
        // Throughput at the end must be near-flat (plateau).
        let t58 = pts[57].throughput_mpps;
        let t60 = pts[59].throughput_mpps;
        assert!((t60 - t58).abs() / t58 < 0.05);
    }

    #[test]
    fn better_placement_improves_simulated_performance() {
        let e = elements::udpcount();
        let spec = WorkloadSpec::small_flows();
        let trace = Trace::generate(&spec, 400, 3);
        let cfg = NicConfig::default();
        let naive = simulate(&e.module, &trace, &PortConfig::naive(), &cfg, 20);
        // Small counters to CLS (strictly faster than any EMEM path).
        let mut port = PortConfig::naive();
        for g in &e.module.globals {
            if g.total_bytes() < 8 * 1024 {
                port = port.place(g.id, crate::config::MemLevel::Cls);
            }
        }
        let placed = simulate(&e.module, &trace, &port, &cfg, 20);
        assert!(
            placed.latency_us < naive.latency_us,
            "placed {} vs naive {}",
            placed.latency_us,
            naive.latency_us
        );
        assert!(placed.throughput_mpps >= naive.throughput_mpps);
    }

    #[test]
    fn colocated_pair_is_slower_than_solo() {
        let a = elements::mazunat();
        let b = elements::dnsproxy();
        let spec = WorkloadSpec::small_flows().with_flows(2048);
        let trace = Trace::generate(&spec, 300, 4);
        let cfg = NicConfig::default();
        let solo = simulate(&a.module, &trace, &PortConfig::naive(), &cfg, 30);
        let (pa, _pb) = simulate_colocated(
            (&a.module, &trace, &PortConfig::naive()),
            (&b.module, &trace, &PortConfig::naive()),
            &cfg,
        );
        assert!(pa.throughput_mpps <= solo.throughput_mpps + 1e-9);
    }
}

/// Profiles a linear service chain on one NIC: every packet pays the sum
/// of the stages it traverses (drops cut the chain short).
///
/// Stage `s`'s globals are namespaced as `GlobalId(s * CHAIN_STRIDE + g)`
/// in the combined profile so placements and working sets stay per-stage.
///
/// `nics[s]` is stage `s`'s vendor-compiled module, so a caller that
/// profiles the same stages again (every `place` request does) compiles
/// each once, through its compile cache.
///
/// # Panics
///
/// Panics if `modules`/`nics`/`ports` lengths differ, a module fails
/// verification, or the interpreter hits its step limit.
pub fn profile_chain(
    modules: &[&Module],
    nics: &[&NicModule],
    trace: &Trace,
    ports: &[&PortConfig],
    cfg: &NicConfig,
    setup: impl FnOnce(&mut click_model::Chain),
) -> WorkloadProfile {
    let stages = profile_chain_stages(modules, nics, trace, ports, cfg, setup);
    merge_stage_profiles(&stages, trace)
}

/// Profiles every chain stage separately: stage `s`'s profile is scaled
/// to *per chain packet* (stages past a drop contribute less), with its
/// globals namespaced via [`chain_global`].
///
/// # Panics
///
/// Panics under the same conditions as [`profile_chain`].
pub fn profile_chain_stages(
    modules: &[&Module],
    nics: &[&NicModule],
    trace: &Trace,
    ports: &[&PortConfig],
    cfg: &NicConfig,
    setup: impl FnOnce(&mut click_model::Chain),
) -> Vec<WorkloadProfile> {
    let pass = run_chain(modules, nics, trace, ports, cfg, setup);
    let stages = pass.stage_profiles();
    pass.record(ports);
    stages
}

/// Runs a linear service chain over a trace in one interpreter pass, with
/// one costing sink per stage costing under that stage's port. The
/// stages' simulator counters wait for [`ChainPass::record`], so a caller
/// that costs under ports which differ only in placement (placement never
/// changes a profile) can record them under the placement it settles on
/// afterwards.
///
/// # Panics
///
/// Panics under the same conditions as [`profile_chain`].
pub fn run_chain(
    modules: &[&Module],
    nics: &[&NicModule],
    trace: &Trace,
    ports: &[&PortConfig],
    cfg: &NicConfig,
    setup: impl FnOnce(&mut click_model::Chain),
) -> ChainPass {
    assert_eq!(modules.len(), ports.len(), "modules/ports mismatch");
    assert_eq!(modules.len(), nics.len(), "modules/nics mismatch");
    let mut chain =
        click_model::Chain::new(modules.iter().copied()).expect("chain modules must verify");
    setup(&mut chain);
    // One costing sink per stage, fed in one interpreter pass.
    let mut sinks: Vec<Costing> = modules
        .iter()
        .zip(nics)
        .zip(ports)
        .map(|((m, nic), port)| Costing::new(m, nic, port, cfg))
        .collect();
    for pkt in &trace.pkts {
        for sink in &mut sinks {
            sink.begin(pkt.flow_id);
        }
        let (_, dropped_at) = chain
            .run_into(pkt, &mut sinks)
            .expect("interpreter step limit");
        let ran = dropped_at.map_or(sinks.len(), |i| i + 1);
        for sink in &mut sinks[..ran] {
            sink.end(pkt.size);
        }
    }
    let n = trace.pkts.len().max(1) as f64;
    ChainPass {
        stages: modules
            .iter()
            .zip(sinks)
            .map(|(m, sink)| (m.name.clone(), sink.totals()))
            .collect(),
        pkts: trace.pkts.len(),
        mean_size: trace.pkts.iter().map(|p| f64::from(p.size)).sum::<f64>() / n,
    }
}

/// A chain's interpreter pass, costed per stage: see [`run_chain`].
#[derive(Debug, Clone)]
pub struct ChainPass {
    /// Each stage's module name and raw totals (over the packets that
    /// reached it).
    stages: Vec<(String, Totals)>,
    /// Packets in the trace.
    pkts: usize,
    /// Mean wire size of the trace's packets.
    mean_size: f64,
}

impl ChainPass {
    /// Every stage's profile per chain packet, namespaced: the stages of
    /// [`profile_chain_stages`].
    ///
    /// Stage 0's is the first module's standalone profile under its port
    /// ([`profile_workload`]), bit for bit: the first stage sees every
    /// packet fresh from the trace, as a standalone run does, its sink
    /// costs and divides as a standalone profile's does, its reach scale
    /// is exactly 1, and its namespace is the identity.
    pub fn stage_profiles(&self) -> Vec<WorkloadProfile> {
        let n = self.pkts.max(1) as f64;
        self.stages
            .iter()
            .enumerate()
            .map(|(s, (name, totals))| {
                let reached = totals.sums.pkts;
                if reached == 0 {
                    return WorkloadProfile {
                        pkts: self.pkts,
                        mean_pkt_size: self.mean_size,
                        ..WorkloadProfile::default()
                    };
                }
                let wp = {
                    let _span = obs::span!("nicsim-profile", "module={} pkts={}", name, reached);
                    per_packet(totals.sums.clone())
                };
                let scale = reached as f64 / n;
                let mut out = WorkloadProfile {
                    pkts: self.pkts,
                    compute: wp.compute * scale,
                    mean_pkt_size: self.mean_size,
                    ..WorkloadProfile::default()
                };
                for (a, b) in out.fixed_accesses.iter_mut().zip(wp.fixed_accesses.iter()) {
                    *a = b * scale;
                }
                for (g, a) in wp.global_access {
                    out.global_access.insert(chain_global(s, g), a * scale);
                }
                for (g, ws) in wp.working_set {
                    out.working_set.insert(chain_global(s, g), ws);
                }
                out
            })
            .collect()
    }

    /// Records the simulator counters of every stage a packet reached,
    /// attributing stage `s`'s accesses to levels under `ports[s]`. It
    /// consumes the pass, so a pass is counted once.
    pub fn record(self, ports: &[&PortConfig]) {
        for ((_, totals), port) in self.stages.iter().zip(ports) {
            if totals.sums.pkts > 0 {
                totals.record(port);
            }
        }
    }
}

/// Merges per-stage chain profiles (already per-chain-packet scaled and
/// namespaced) into one combined profile.
pub fn merge_stage_profiles(stages: &[WorkloadProfile], trace: &Trace) -> WorkloadProfile {
    let n = trace.pkts.len().max(1) as f64;
    let mut combined = WorkloadProfile {
        mean_pkt_size: trace.pkts.iter().map(|p| f64::from(p.size)).sum::<f64>() / n,
        pkts: trace.pkts.len(),
        ..WorkloadProfile::default()
    };
    for wp in stages {
        combined.compute += wp.compute;
        for (a, b) in combined
            .fixed_accesses
            .iter_mut()
            .zip(wp.fixed_accesses.iter())
        {
            *a += b;
        }
        for (g, a) in &wp.global_access {
            *combined.global_access.entry(*g).or_insert(0.0) += a;
        }
        for (g, ws) in &wp.working_set {
            combined.working_set.insert(*g, *ws);
        }
    }
    combined
}

/// Stride separating stages' global-id namespaces in chain profiles.
pub const CHAIN_STRIDE: u32 = 1 << 16;

/// Namespaces stage `s`'s global `g` for a chain profile.
pub fn chain_global(stage: usize, g: nf_ir::GlobalId) -> nf_ir::GlobalId {
    nf_ir::GlobalId(stage as u32 * CHAIN_STRIDE + g.0)
}

#[cfg(test)]
mod chain_tests {
    use super::*;
    use click_model::elements;
    use trafgen::WorkloadSpec;

    #[test]
    fn chain_profile_sums_stage_costs() {
        let a = elements::anonipaddr();
        let b = elements::aggcounter();
        let trace = Trace::generate(&WorkloadSpec::large_flows(), 200, 1);
        let cfg = NicConfig::default();
        let port = PortConfig::naive();
        let solo_a = profile_workload(&a.module, &trace, &port, &cfg, |_| {});
        let solo_b = profile_workload(&b.module, &trace, &port, &cfg, |_| {});
        let nics = [
            &nfcc::compile_module(&a.module),
            &nfcc::compile_module(&b.module),
        ];
        let chain = profile_chain(
            &[&a.module, &b.module],
            &nics,
            &trace,
            &[&port, &port],
            &cfg,
            |_| {},
        );
        // No drops: chain compute = sum of stages (both see every packet).
        let expected = solo_a.compute + solo_b.compute;
        assert!(
            (chain.compute - expected).abs() / expected < 0.02,
            "chain {} vs sum {}",
            chain.compute,
            expected
        );
        // Stage-1 globals are namespaced past CHAIN_STRIDE.
        assert!(chain.global_access.keys().any(|g| g.0 >= CHAIN_STRIDE));
    }

    #[test]
    fn drops_shorten_the_chain() {
        // Rule-less firewall drops everything; stage 2 contributes nothing.
        let fw = elements::firewall();
        let agg = elements::aggcounter();
        let spec = WorkloadSpec {
            tcp_ratio: 1.0,
            ..WorkloadSpec::large_flows()
        };
        let trace = Trace::generate(&spec, 100, 2);
        let cfg = NicConfig::default();
        let port = PortConfig::naive();
        let nics = [
            &nfcc::compile_module(&fw.module),
            &nfcc::compile_module(&agg.module),
        ];
        let chain = profile_chain(
            &[&fw.module, &agg.module],
            &nics,
            &trace,
            &[&port, &port],
            &cfg,
            |_| {},
        );
        let agg_globals: f64 = chain
            .global_access
            .iter()
            .filter(|(g, _)| g.0 >= CHAIN_STRIDE)
            .map(|(_, a)| a)
            .sum();
        assert_eq!(agg_globals, 0.0, "dropped packets must not reach stage 2");
    }

    #[test]
    fn chain_point_solves() {
        let a = elements::vlantag();
        let b = elements::udpcount();
        let trace = Trace::generate(&WorkloadSpec::imix(), 150, 3);
        let cfg = NicConfig::default();
        let port = PortConfig::naive();
        let nics = [
            &nfcc::compile_module(&a.module),
            &nfcc::compile_module(&b.module),
        ];
        let wp = profile_chain(
            &[&a.module, &b.module],
            &nics,
            &trace,
            &[&port, &port],
            &cfg,
            |_| {},
        );
        let p = solve_perf(&wp, &cfg, &port, 16);
        assert!(p.throughput_mpps > 0.0 && p.latency_us.is_finite());
    }
}
