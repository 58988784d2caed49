//! Converting execution traces into per-packet NIC cost profiles.

use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};
use std::sync::OnceLock;

use clara_obs as obs;
use click_model::{ApiEvent, Event, ExecTrace, Machine};
use nf_ir::{ApiCall, GlobalId, Module};
use nfcc::NicModule;
use serde::{Deserialize, Serialize};
use trafgen::Trace;

use crate::config::{MemLevel, NicConfig};
use crate::port::{Accel, PortConfig};

/// Memory channels used by the performance model: the four hierarchy
/// levels plus the EMEM cache (hits are served by the cache's SRAM).
pub const CHANNELS: usize = 5;
/// Channel index of the EMEM SRAM cache.
pub const CH_EMEM_CACHE: usize = 4;

/// Process-global simulator counters, registered once and cached so the
/// profiling hot loop only touches atomics.
struct SimCounters {
    profile_runs: obs::Counter,
    pkts_profiled: obs::Counter,
    compute_cycles: obs::Counter,
    /// Per-hierarchy-level access totals, indexed by [`MemLevel::index`].
    mem: [obs::Counter; 4],
    pkt_drops: obs::Counter,
    record_runs: obs::Counter,
    pkts_recorded: obs::Counter,
}

fn counters() -> &'static SimCounters {
    static CELL: OnceLock<SimCounters> = OnceLock::new();
    CELL.get_or_init(|| SimCounters {
        profile_runs: obs::counter("nicsim.profile_runs"),
        pkts_profiled: obs::counter("nicsim.pkts_profiled"),
        compute_cycles: obs::counter("nicsim.compute_cycles"),
        mem: [
            obs::counter("nicsim.mem.cls"),
            obs::counter("nicsim.mem.ctm"),
            obs::counter("nicsim.mem.imem"),
            obs::counter("nicsim.mem.emem"),
        ],
        pkt_drops: obs::counter("nicsim.pkt_drops"),
        record_runs: obs::counter("nicsim.record_runs"),
        pkts_recorded: obs::counter("nicsim.pkts_recorded"),
    })
}

impl SimCounters {
    /// Records one profiling run from its raw (pre-normalization) sums.
    fn record_profile(&self, agg: &WorkloadProfile, port: &PortConfig, drops: f64) {
        self.profile_runs.incr();
        self.pkts_profiled.add(agg.pkts as u64);
        self.compute_cycles.add(agg.compute.round() as u64);
        let mut levels = agg.fixed_accesses;
        for (g, a) in &agg.global_access {
            levels[port.level_of(*g).index()] += a;
        }
        for (c, total) in self.mem.iter().zip(levels) {
            c.add(total.round() as u64);
        }
        self.pkt_drops.add(drops.round() as u64);
    }
}

/// Costs of processing one packet on the NIC.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PacketProfile {
    /// Core compute cycles (instruction issue + library + accelerators).
    pub compute_cycles: f64,
    /// Fixed (non-global) memory accesses per level — packet data, egress.
    pub fixed_accesses: [f64; 4],
    /// Stateful accesses by global (level assigned later by placement).
    pub global_access: BTreeMap<GlobalId, f64>,
    /// Packets dropped by the NF (`PktDrop` library calls).
    pub drops: f64,
}

/// Aggregated workload profile: what the performance model consumes.
///
/// Stateful accesses are kept *per global*, not per level, so different
/// placements can be evaluated analytically from one profiling run — the
/// property Clara's placement ILP (Section 4.3) and the paper's expert
/// exhaustive sweep (Section 5.8) both rely on.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WorkloadProfile {
    /// Packets profiled.
    pub pkts: usize,
    /// Mean compute cycles per packet.
    pub compute: f64,
    /// Mean fixed (non-global) accesses per packet per hierarchy level.
    pub fixed_accesses: [f64; 4],
    /// Mean per-packet stateful accesses by global.
    pub global_access: BTreeMap<GlobalId, f64>,
    /// Touched bytes per global over the workload (working set).
    pub working_set: BTreeMap<GlobalId, u64>,
    /// Mean wire packet size in bytes.
    pub mean_pkt_size: f64,
}

impl WorkloadProfile {
    /// Mean per-packet accesses per level under a placement, EMEM not yet
    /// split by the cache.
    pub fn level_accesses(&self, port: &PortConfig) -> [f64; 4] {
        let mut acc = self.fixed_accesses;
        for (g, a) in &self.global_access {
            acc[port.level_of(*g).index()] += a;
        }
        acc
    }

    /// Splits per-packet EMEM accesses into `(cache_hits, misses)`,
    /// allocating the EMEM cache to globals in proportion to access share.
    pub fn emem_split(&self, cfg: &NicConfig, port: &PortConfig) -> (f64, f64) {
        let emem: Vec<(GlobalId, f64)> = self
            .global_access
            .iter()
            .filter(|(g, _)| port.level_of(**g) == MemLevel::Emem)
            .map(|(g, a)| (*g, *a))
            .collect();
        let total: f64 = emem.iter().map(|(_, a)| a).sum();
        if total <= 0.0 {
            return (0.0, 0.0);
        }
        let mut hits = 0.0;
        for (g, a) in &emem {
            let ws = self.working_set.get(g).copied().unwrap_or(0).max(1);
            let alloc = cfg.emem_cache_bytes as f64 * (a / total);
            let hit_rate = (alloc / ws as f64).min(1.0);
            hits += a * hit_rate;
        }
        (hits, total - hits)
    }

    /// Per-packet demand on each of the model's memory channels.
    pub fn channel_demand(&self, cfg: &NicConfig, port: &PortConfig) -> [f64; CHANNELS] {
        let acc = self.level_accesses(port);
        let (hits, misses) = self.emem_split(cfg, port);
        [acc[0], acc[1], acc[2], misses, hits]
    }

    /// Total per-packet accesses to one global (any level).
    pub fn accesses_to(&self, g: GlobalId) -> f64 {
        self.global_access.get(&g).copied().unwrap_or(0.0)
    }

    /// Compares the *access* portion of two profiles, ignoring `compute`.
    ///
    /// `clara difftest` uses this as its profile oracle between the raw
    /// and the `nf_ir::opt`-optimized module: optimization legitimately
    /// removes issue cycles (compute), but every memory-facing signal the
    /// insights consume — fixed accesses, per-global access frequencies,
    /// working sets, packet counts and sizes — must be bit-identical,
    /// because both are derived from the same `State`/`Pkt`/`Api` event
    /// stream. Returns a description of the first mismatch, or `None`
    /// when the profiles agree.
    pub fn access_divergence_from(&self, other: &WorkloadProfile) -> Option<String> {
        if self.pkts != other.pkts {
            return Some(format!("pkts: {} vs {}", self.pkts, other.pkts));
        }
        if self.mean_pkt_size != other.mean_pkt_size {
            return Some(format!(
                "mean_pkt_size: {} vs {}",
                self.mean_pkt_size, other.mean_pkt_size
            ));
        }
        if self.fixed_accesses != other.fixed_accesses {
            return Some(format!(
                "fixed_accesses: {:?} vs {:?}",
                self.fixed_accesses, other.fixed_accesses
            ));
        }
        if self.global_access != other.global_access {
            return Some(format!(
                "global_access: {:?} vs {:?}",
                self.global_access, other.global_access
            ));
        }
        if self.working_set != other.working_set {
            return Some(format!(
                "working_set: {:?} vs {:?}",
                self.working_set, other.working_set
            ));
        }
        None
    }
}

/// Interpreter traces recorded once and re-costed under many ports.
///
/// Execution traces are port-independent (porting changes *costs*, not
/// functional behaviour), so placement/coalescing sweeps record once and
/// re-cost cheaply.
#[derive(Debug, Clone)]
pub struct RecordedWorkload {
    entries: Vec<(u32, u16, ExecTrace)>,
}

impl RecordedWorkload {
    /// Builds a recorded workload from raw `(flow_id, size, trace)`
    /// entries (used by chain profiling, which records all stages in one
    /// interpreter pass).
    pub fn from_entries(entries: Vec<(u32, u16, ExecTrace)>) -> RecordedWorkload {
        RecordedWorkload { entries }
    }
}

/// Runs the NF over a trace and records the interpreter traces.
///
/// `setup` runs once against the fresh machine (e.g. to install LPM rules
/// or firewall entries) before any packet is processed.
///
/// # Panics
///
/// Panics if the module fails verification or the interpreter hits its
/// step limit (both indicate element bugs, not user errors).
pub fn record_workload(
    module: &Module,
    trace: &Trace,
    setup: impl FnOnce(&mut Machine),
) -> RecordedWorkload {
    let _span = obs::span!("nicsim-record", "module={} pkts={}", module.name, trace.pkts.len());
    let mut machine = Machine::new(module).expect("module must verify");
    setup(&mut machine);
    let entries: Vec<(u32, u16, ExecTrace)> = trace
        .pkts
        .iter()
        .map(|pkt| {
            let t = machine.run(pkt).expect("interpreter step limit");
            (pkt.flow_id, pkt.size, t)
        })
        .collect();
    let c = counters();
    c.record_runs.incr();
    c.pkts_recorded.add(entries.len() as u64);
    RecordedWorkload { entries }
}

/// Costs a recorded workload under a port configuration.
pub fn profile_recorded(
    module: &Module,
    rec: &RecordedWorkload,
    port: &PortConfig,
    cfg: &NicConfig,
) -> WorkloadProfile {
    let nic = nfcc::compile_module(module);
    profile_recorded_compiled(module, &nic, rec, port, cfg)
}

/// [`profile_recorded`] with a pre-compiled NIC module supplied by the
/// caller, so a compile memoized elsewhere (e.g. `clara-core`'s engine
/// cache) is reused instead of recompiling per profiling run.
pub fn profile_recorded_compiled(
    module: &Module,
    nic: &NicModule,
    rec: &RecordedWorkload,
    port: &PortConfig,
    cfg: &NicConfig,
) -> WorkloadProfile {
    let _span = obs::span!("nicsim-profile", "module={} pkts={}", module.name, rec.entries.len());
    let mut costing = Costing::new(module, nic, port, cfg);
    for (flow_id, size, t) in &rec.entries {
        costing.add(*flow_id, *size, t);
    }
    costing.finish()
}

/// [`record_workload`] (no setup) and [`profile_recorded_compiled`] in one
/// pass: each packet is costed as soon as the interpreter has run it, so
/// no recording is kept. Same profile, counters and span names as the
/// two calls; the `nicsim-record` span also covers the costing. The
/// engine's profile miss takes this path: a recording of a heavy NF is
/// megabytes (2 MB for 400 `cmsketch` packets), allocated and freed per
/// miss.
///
/// # Panics
///
/// Panics if the module fails verification or the interpreter hits its
/// step limit (both indicate element bugs, not user errors).
pub fn profile_workload_compiled(
    module: &Module,
    nic: &NicModule,
    trace: &Trace,
    port: &PortConfig,
    cfg: &NicConfig,
) -> WorkloadProfile {
    let mut costing = Costing::new(module, nic, port, cfg);
    {
        let _span = obs::span!(
            "nicsim-record",
            "module={} pkts={}",
            module.name,
            trace.pkts.len()
        );
        let mut machine = Machine::new(module).expect("module must verify");
        for pkt in &trace.pkts {
            let t = machine.run(pkt).expect("interpreter step limit");
            costing.add(pkt.flow_id, pkt.size, &t);
        }
        let c = counters();
        c.record_runs.incr();
        c.pkts_recorded.add(trace.pkts.len() as u64);
    }
    let _span = obs::span!(
        "nicsim-profile",
        "module={} pkts={}",
        module.name,
        trace.pkts.len()
    );
    costing.finish()
}

/// Running totals of one profiling run, fed one packet at a time.
struct Costing<'a> {
    module: &'a Module,
    nic: &'a NicModule,
    port: &'a PortConfig,
    cfg: &'a NicConfig,
    agg: WorkloadProfile,
    touched: BTreeMap<GlobalId, BTreeSet<u64>>,
    cam: CamState,
    drops_total: f64,
}

impl<'a> Costing<'a> {
    fn new(
        module: &'a Module,
        nic: &'a NicModule,
        port: &'a PortConfig,
        cfg: &'a NicConfig,
    ) -> Costing<'a> {
        Costing {
            module,
            nic,
            port,
            cfg,
            agg: WorkloadProfile::default(),
            touched: BTreeMap::new(),
            cam: CamState::new(cfg.cam_entries as usize),
            drops_total: 0.0,
        }
    }

    fn add(&mut self, flow_id: u32, size: u16, t: &ExecTrace) {
        let p = cost_packet(
            t,
            self.nic,
            self.module,
            self.port,
            self.cfg,
            flow_id,
            &mut self.cam,
            &mut self.touched,
        );
        let agg = &mut self.agg;
        agg.pkts += 1;
        agg.compute += p.compute_cycles;
        for (a, b) in agg.fixed_accesses.iter_mut().zip(p.fixed_accesses.iter()) {
            *a += b;
        }
        for (g, a) in p.global_access {
            *agg.global_access.entry(g).or_insert(0.0) += a;
        }
        agg.mean_pkt_size += f64::from(size);
        self.drops_total += p.drops;
    }

    fn finish(self) -> WorkloadProfile {
        let Costing {
            module,
            port,
            mut agg,
            touched,
            drops_total,
            ..
        } = self;
        // Flush the raw (pre-normalization) totals to the metrics registry.
        // Each total is a pure function of the profiling inputs and is
        // rounded to a whole count per run, so the counters reconcile
        // bit-identically across worker layouts.
        counters().record_profile(&agg, port, drops_total);

        let n = agg.pkts.max(1) as f64;
        agg.compute /= n;
        agg.fixed_accesses.iter_mut().for_each(|a| *a /= n);
        agg.global_access.values_mut().for_each(|a| *a /= n);
        agg.mean_pkt_size /= n;
        for (g, set) in touched {
            let entry_bytes = module.global(g).map_or(4, |d| u64::from(d.entry_bytes));
            agg.working_set.insert(g, set.len() as u64 * entry_bytes);
        }
        agg
    }
}

/// Profiles a workload: records interpreter traces and costs them.
///
/// `setup` runs once against the fresh machine before any packet.
///
/// # Panics
///
/// Panics if the module fails verification or the interpreter hits its
/// step limit (both indicate element bugs, not user errors).
pub fn profile_workload(
    module: &Module,
    trace: &Trace,
    port: &PortConfig,
    cfg: &NicConfig,
    setup: impl FnOnce(&mut Machine),
) -> WorkloadProfile {
    let rec = record_workload(module, trace, setup);
    profile_recorded(module, &rec, port, cfg)
}

/// LPM flow-cache (CAM) state shared across packets.
struct CamState {
    cap: usize,
    set: HashSet<u32>,
    fifo: VecDeque<u32>,
}

impl CamState {
    fn new(cap: usize) -> CamState {
        CamState {
            cap: cap.max(1),
            set: HashSet::new(),
            fifo: VecDeque::new(),
        }
    }

    fn lookup_or_insert(&mut self, flow: u32) -> bool {
        if self.set.contains(&flow) {
            return true;
        }
        if self.set.len() >= self.cap {
            if let Some(old) = self.fifo.pop_front() {
                self.set.remove(&old);
            }
        }
        self.set.insert(flow);
        self.fifo.push_back(flow);
        false
    }
}

#[allow(clippy::too_many_arguments)]
fn cost_packet(
    trace: &ExecTrace,
    nic: &NicModule,
    module: &Module,
    port: &PortConfig,
    cfg: &NicConfig,
    flow_id: u32,
    cam: &mut CamState,
    touched: &mut BTreeMap<GlobalId, BTreeSet<u64>>,
) -> PacketProfile {
    let handler = nic.handler();
    let mut p = PacketProfile::default();
    let mut charge =
        |p: &mut PacketProfile, level: MemLevel, g: Option<GlobalId>, weight: f64| match g {
            Some(g) => *p.global_access.entry(g).or_insert(0.0) += weight,
            None => p.fixed_accesses[level.index()] += weight,
        };

    // Accelerator-region state.
    let mut crc_active = false;
    let mut lpm_skip = false; // Inside an LPM region served by the CAM.
    let mut lpm_walked = false; // Walked the region in software this packet.
                                // Coalescing: a packed cluster is fetched into transfer registers once
                                // per packet and written back once if dirtied.
    let mut fetched_clusters: HashSet<usize> = HashSet::new();
    let mut dirty_clusters: HashSet<usize> = HashSet::new();

    for ev in &trace.events {
        match ev {
            Event::Block(b) => {
                match port.accel_blocks.get(b) {
                    Some(Accel::Crc) => {
                        if !crc_active {
                            crc_active = true;
                            p.compute_cycles += f64::from(cfg.crc_accel_base);
                        }
                        p.compute_cycles += cfg.crc_accel_per_iter;
                        continue;
                    }
                    Some(Accel::Lpm) => {
                        crc_active = false;
                        if !lpm_skip && !lpm_walked {
                            // Entering the region: consult the CAM once.
                            if cam.lookup_or_insert(flow_id) {
                                lpm_skip = true;
                                p.compute_cycles += f64::from(cfg.cam_hit_cycles);
                            } else {
                                lpm_walked = true;
                                p.compute_cycles += f64::from(cfg.cam_insert_cycles);
                            }
                        }
                        if lpm_skip {
                            continue; // Whole region served by the CAM.
                        }
                        // Software walk: fall through and cost normally.
                    }
                    None => {
                        crc_active = false;
                        if lpm_skip {
                            lpm_skip = false;
                        }
                    }
                }
                if let Some(nb) = handler.blocks.get(b.index()) {
                    p.compute_cycles += f64::from(nb.issue_cycles());
                }
            }
            Event::State {
                global,
                index,
                offset,
                write,
                ..
            } => {
                touched.entry(*global).or_default().insert(*index);
                if crc_active || lpm_skip {
                    continue; // The engine's internal accesses are in its base cost.
                }
                // Coalescing: one fetch per cluster per packet (plus one
                // writeback, charged after the loop, when dirtied). Wide
                // packs cost proportionally to the 16-byte memory beats
                // they occupy, so over-packing wastes bandwidth.
                if let Some(c) = port.coalesce.cluster_of(*global, *offset) {
                    if *write {
                        dirty_clusters.insert(c);
                    }
                    if !fetched_clusters.insert(c) {
                        continue;
                    }
                    let w = (f64::from(port.coalesce.cluster_bytes(c)) / 16.0).max(1.0);
                    charge(&mut p, port.level_of(*global), Some(*global), w);
                    continue;
                }
                charge(&mut p, port.level_of(*global), Some(*global), 1.0);
            }
            Event::Pkt { .. } => {
                if crc_active || lpm_skip {
                    continue;
                }
                charge(&mut p, MemLevel::Ctm, None, 1.0);
            }
            Event::Api(api) => {
                if crc_active || lpm_skip {
                    continue;
                }
                cost_api(api, port, cfg, module, &mut p, &mut charge);
            }
        }
    }
    // Write dirtied packs back once.
    for c in dirty_clusters {
        if let Some(&(g, _)) = port.coalesce.clusters.get(c).and_then(|v| v.first()) {
            let w = (f64::from(port.coalesce.cluster_bytes(c)) / 16.0).max(1.0);
            charge(&mut p, port.level_of(g), Some(g), w);
        }
    }
    p
}

fn cost_api(
    api: &ApiEvent,
    port: &PortConfig,
    cfg: &NicConfig,
    _module: &Module,
    p: &mut PacketProfile,
    charge: &mut impl FnMut(&mut PacketProfile, MemLevel, Option<GlobalId>, f64),
) {
    let ovh = f64::from(cfg.libcall_overhead);
    match &api.call {
        ApiCall::IpHeader | ApiCall::TcpHeader | ApiCall::UdpHeader | ApiCall::EthHeader => {
            p.compute_cycles += ovh;
            charge(p, MemLevel::Ctm, None, 1.0);
        }
        ApiCall::PktLen | ApiCall::Timestamp | ApiCall::Random => {
            p.compute_cycles += ovh;
        }
        ApiCall::HashMapFind(g) | ApiCall::HashMapErase(g) => {
            p.compute_cycles += ovh + 6.0 * f64::from(api.probes);
            for _ in 0..api.probes {
                charge(p, port.level_of(*g), Some(*g), 1.0);
            }
        }
        ApiCall::HashMapInsert(g) => {
            p.compute_cycles += ovh + 6.0 * f64::from(api.probes) + 8.0;
            for _ in 0..api.probes {
                charge(p, port.level_of(*g), Some(*g), 1.0);
            }
            charge(p, port.level_of(*g), Some(*g), 1.0); // Key write.
        }
        ApiCall::VectorGet(g) | ApiCall::VectorPush(g) | ApiCall::VectorDelete(g) => {
            p.compute_cycles += ovh + 4.0;
            charge(p, port.level_of(*g), Some(*g), 1.0);
        }
        ApiCall::FlowLookup(g) | ApiCall::FlowRemove(g) => {
            // Bucket walk plus a timestamp compare per probed slot.
            p.compute_cycles += ovh + 8.0 * f64::from(api.probes);
            for _ in 0..api.probes {
                charge(p, port.level_of(*g), Some(*g), 1.0);
            }
        }
        ApiCall::FlowUpsert(g) => {
            // Bucket walk, then key + timestamp writes on insert/refresh.
            p.compute_cycles += ovh + 8.0 * f64::from(api.probes) + 10.0;
            for _ in 0..api.probes {
                charge(p, port.level_of(*g), Some(*g), 1.0);
            }
            charge(p, port.level_of(*g), Some(*g), 1.0); // Entry write.
        }
        ApiCall::FlowChurn(g) => {
            // Single counter read, kept near the table.
            p.compute_cycles += ovh;
            charge(p, port.level_of(*g), Some(*g), 1.0);
        }
        ApiCall::PktSend => {
            p.compute_cycles += ovh;
            charge(p, MemLevel::Ctm, None, 1.0);
        }
        ApiCall::PktDrop => {
            p.drops += 1.0;
            p.compute_cycles += ovh;
            charge(p, MemLevel::Ctm, None, 1.0);
        }
        ApiCall::ChecksumUpdate => {
            p.compute_cycles += if port.csum_accel {
                f64::from(cfg.csum_accel_cycles)
            } else {
                f64::from(cfg.csum_sw_cycles)
            };
            charge(p, MemLevel::Ctm, None, 1.0);
        }
        ApiCall::ChecksumFull => {
            let bytes = f64::from(api.bytes);
            p.compute_cycles += if port.csum_accel {
                f64::from(cfg.csum_accel_cycles) + bytes / 4.0
            } else {
                100.0 + 10.0 * bytes
            };
            charge(p, MemLevel::Ctm, None, 1.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use click_model::elements;
    use trafgen::WorkloadSpec;

    fn profile(
        e: &click_model::NfElement,
        spec: &WorkloadSpec,
        port: &PortConfig,
        n: usize,
    ) -> WorkloadProfile {
        let trace = Trace::generate(spec, n, 42);
        profile_workload(&e.module, &trace, port, &NicConfig::default(), |_| {})
    }

    #[test]
    fn streamed_profile_equals_record_then_cost() {
        let cfg = NicConfig::default();
        let port = PortConfig::naive();
        for e in click_model::extended_corpus() {
            let nic = nfcc::compile_module(&e.module);
            for spec in [WorkloadSpec::large_flows(), WorkloadSpec::small_flows()] {
                let trace = Trace::generate(&spec, 150, 9);
                let rec = record_workload(&e.module, &trace, |_| {});
                assert_eq!(
                    profile_workload_compiled(&e.module, &nic, &trace, &port, &cfg),
                    profile_recorded_compiled(&e.module, &nic, &rec, &port, &cfg),
                    "{} on {}",
                    e.name(),
                    spec.name
                );
            }
        }
    }

    #[test]
    fn naive_port_sends_state_to_emem() {
        let e = elements::aggcounter();
        let wp = profile(&e, &WorkloadSpec::large_flows(), &PortConfig::naive(), 100);
        let acc = wp.level_accesses(&PortConfig::naive());
        assert!(acc[MemLevel::Emem.index()] > 3.0, "{acc:?}");
        assert!(wp.compute > 10.0);
        assert_eq!(wp.pkts, 100);
    }

    #[test]
    fn placement_moves_accesses_between_levels() {
        let e = elements::aggcounter();
        let spec = WorkloadSpec::large_flows();
        let naive = profile(&e, &spec, &PortConfig::naive(), 100);
        let mut placed = PortConfig::naive();
        for g in &e.module.globals {
            placed = placed.place(g.id, MemLevel::Cls);
        }
        let tuned = profile(&e, &spec, &placed, 100);
        let tuned_acc = tuned.level_accesses(&placed);
        let naive_acc = naive.level_accesses(&PortConfig::naive());
        assert_eq!(tuned_acc[MemLevel::Emem.index()], 0.0);
        assert!(
            (tuned_acc[MemLevel::Cls.index()] + tuned.fixed_accesses[MemLevel::Cls.index()]
                - naive_acc[MemLevel::Emem.index()]
                - naive.fixed_accesses[MemLevel::Cls.index()])
            .abs()
                < 1e-9
        );
    }

    #[test]
    fn csum_accel_cuts_compute() {
        let e = elements::udpipencap();
        let spec = WorkloadSpec::large_flows();
        let sw = profile(&e, &spec, &PortConfig::naive(), 50);
        let hw = profile(&e, &spec, &PortConfig::naive().with_csum_accel(), 50);
        let cfg = NicConfig::default();
        let delta = sw.compute - hw.compute;
        let expected = f64::from(cfg.csum_sw_cycles - cfg.csum_accel_cycles);
        assert!(
            (delta - expected).abs() < 1.0,
            "delta {delta} expected {expected}"
        );
    }

    #[test]
    fn crc_accel_collapses_loop_cost() {
        let e = elements::cmsketch();
        let spec = WorkloadSpec::large_flows();
        let naive = profile(&e, &spec, &PortConfig::naive(), 50);
        // Accelerate the CRC loop blocks (bb1..bb8 = the two loops).
        let crc_blocks: Vec<nf_ir::BlockId> = (1..=8).map(nf_ir::BlockId).collect();
        let port = PortConfig::naive().accelerate(crc_blocks, Accel::Crc);
        let accel = profile(&e, &spec, &port, 50);
        assert!(
            accel.compute < naive.compute / 3.0,
            "accel {} vs naive {}",
            accel.compute,
            naive.compute
        );
    }

    #[test]
    fn working_set_scales_with_flow_count() {
        let e = elements::timefilter();
        let few = profile(
            &e,
            &WorkloadSpec::large_flows().with_flows(8),
            &PortConfig::naive(),
            400,
        );
        let many = profile(
            &e,
            &WorkloadSpec::small_flows().with_flows(2048),
            &PortConfig::naive(),
            400,
        );
        let ws = |wp: &WorkloadProfile| -> u64 { wp.working_set.values().sum() };
        assert!(
            ws(&many) > 4 * ws(&few),
            "many {} vs few {}",
            ws(&many),
            ws(&few)
        );
    }

    #[test]
    fn emem_cache_hits_more_with_small_working_set() {
        let e = elements::timefilter();
        let cfg = NicConfig::default();
        let few = profile(
            &e,
            &WorkloadSpec::large_flows().with_flows(8),
            &PortConfig::naive(),
            400,
        );
        let (h, m) = few.emem_split(&cfg, &PortConfig::naive());
        assert!(h > 0.0 && m >= 0.0);
        let hit_rate_few = h / (h + m);
        assert!(
            hit_rate_few > 0.99,
            "small working set should hit: {hit_rate_few}"
        );
    }

    #[test]
    fn coalescing_reduces_accesses() {
        let e = elements::tcpgen();
        let spec = WorkloadSpec {
            tcp_ratio: 1.0,
            ..WorkloadSpec::large_flows()
        };
        let naive = profile(&e, &spec, &PortConfig::naive(), 100);
        // Pack all eight scalars into one cluster.
        let plan = crate::port::CoalescePlan {
            clusters: vec![e.module.globals.iter().map(|g| (g.id, 0)).collect()],
        };
        let packed = profile(&e, &spec, &PortConfig::naive().with_coalesce(plan), 100);
        let packed_emem = packed.level_accesses(&PortConfig::naive())[MemLevel::Emem.index()];
        let naive_emem = naive.level_accesses(&PortConfig::naive())[MemLevel::Emem.index()];
        assert!(
            packed_emem < naive_emem * 0.7,
            "packed {packed_emem} vs naive {naive_emem}"
        );
    }

    #[test]
    fn lpm_cam_serves_repeat_flows() {
        let e = elements::iplookup(1024);
        let spec = WorkloadSpec::large_flows().with_flows(4);
        let trace = Trace::generate(&spec, 200, 9);
        let cfg = NicConfig::default();
        // The walk region: blocks 1..=3 (head/body/latch).
        let lpm_blocks: Vec<nf_ir::BlockId> = (1..=3).map(nf_ir::BlockId).collect();
        // Install a /20 route for every destination so walks are deep.
        let rules: Vec<(u32, u8, u32)> =
            trace.pkts.iter().map(|p| (p.flow.dst_ip, 20, 5)).collect();
        let setup = {
            let rules = rules.clone();
            move |m: &mut Machine| {
                elements::algo::build_trie(&mut m.state, GlobalId(0), 1024, &rules);
            }
        };
        let setup2 = move |m: &mut Machine| {
            elements::algo::build_trie(&mut m.state, GlobalId(0), 1024, &rules);
        };
        let naive = profile_workload(&e.module, &trace, &PortConfig::naive(), &cfg, setup);
        let port = PortConfig::naive().accelerate(lpm_blocks, Accel::Lpm);
        let accel = profile_workload(&e.module, &trace, &port, &cfg, setup2);
        // 4 flows × 200 packets: only 4 software walks; everything else CAM.
        assert!(
            accel.compute < naive.compute / 2.0,
            "accel {} vs naive {}",
            accel.compute,
            naive.compute
        );
        let accel_emem = accel.level_accesses(&port)[MemLevel::Emem.index()];
        let naive_emem = naive.level_accesses(&PortConfig::naive())[MemLevel::Emem.index()];
        assert!(
            accel_emem < naive_emem / 2.0,
            "{accel_emem} vs {naive_emem}"
        );
    }
}
