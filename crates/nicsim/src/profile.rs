//! Costing interpreted events into NIC workload profiles.

use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

use clara_obs as obs;
use click_model::{ApiEvent, Event, EventSink, ExecTrace, Machine, PacketView};
use nf_ir::{ApiCall, BlockId, GlobalId, Module};
use nfcc::{NicBlock, NicModule};
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
/// functional behaviour), so a sweep that costs one workload under many
/// ports (the coalescing searches) records it once and replays the
/// recording into the costing sink per port. Every other profile streams
/// each event straight into the sink and keeps no recording.
#[derive(Debug, Clone)]
pub struct RecordedWorkload {
    entries: Vec<(u32, u16, ExecTrace)>,
}

impl RecordedWorkload {
    /// The recorded `(flow_id, size, trace)` entries, one per packet in
    /// trace order.
    pub fn entries(&self) -> &[(u32, u16, ExecTrace)] {
        &self.entries
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
        costing.begin(*flow_id);
        for ev in &t.events {
            costing.cost(ev);
        }
        costing.end(*size);
    }
    costing.finish()
}

/// Profiles a workload: runs the NF over the trace and costs each event
/// as the interpreter produces it.
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
    let nic = nfcc::compile_module(module);
    profile_streamed(module, &nic, trace, port, cfg, setup)
}

/// [`profile_workload`] (no setup) with a pre-compiled NIC module. Gives
/// the same profile as [`record_workload`] + [`profile_recorded_compiled`],
/// with the same counters and span names (the `nicsim-record` span also
/// covers the costing), but keeps no recording: the engine's profile miss
/// takes this path.
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
    profile_streamed(module, nic, trace, port, cfg, |_| {})
}

fn profile_streamed(
    module: &Module,
    nic: &NicModule,
    trace: &Trace,
    port: &PortConfig,
    cfg: &NicConfig,
    setup: impl FnOnce(&mut Machine),
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
        setup(&mut machine);
        for pkt in &trace.pkts {
            costing.begin(pkt.flow_id);
            machine
                .run_into(&mut PacketView::new(pkt), &mut costing)
                .expect("interpreter step limit");
            costing.end(pkt.size);
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

/// A cheap hasher for entry indices: a splitmix64 finalizer over the
/// index mixed with a per-profile random key, so indices that a crafted
/// module computes cannot be chosen to collide. Only the sizes of the
/// sets it keys are read, so neither the key nor the iteration order
/// reaches a profile.
struct IndexHasher(u64);

impl Hasher for IndexHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        let mut x = (self.0 ^ n).wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = x ^ (x >> 31);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Builds [`IndexHasher`]s with one profile's random key.
#[derive(Clone)]
struct IndexKey(u64);

impl IndexKey {
    fn random() -> IndexKey {
        IndexKey(RandomState::new().hash_one(0u64))
    }
}

impl BuildHasher for IndexKey {
    type Hasher = IndexHasher;

    fn build_hasher(&self) -> IndexHasher {
        IndexHasher(self.0)
    }
}

/// Distinct entry indices of one global touched over a workload.
type IndexSet = HashSet<u64, IndexKey>;

/// One global's running sums inside a [`Costing`].
struct GlobalSums {
    id: GlobalId,
    /// This packet's accesses, and whether the packet charged it at all.
    pkt: f64,
    in_pkt: bool,
    /// Sum of per-packet accesses; `charged` makes it a key of
    /// `global_access`.
    sum: f64,
    charged: bool,
    /// Entry indices accessed; `Some` makes it a key of `working_set`.
    touched: Option<IndexSet>,
}

/// The one costing implementation: an [`EventSink`] that prices each
/// interpreted event as it happens (or as a recording replays it).
///
/// [`Costing::begin`] resets the per-packet accelerator and coalescing
/// state, each event adds to the packet's totals, and [`Costing::end`]
/// folds those into the workload sums, accumulator by accumulator, so a
/// profile is the same to the bit whether it was streamed or replayed.
pub(crate) struct Costing<'a> {
    module: &'a Module,
    blocks: &'a [NicBlock],
    port: &'a PortConfig,
    cfg: &'a NicConfig,
    /// Accelerator of each handler block under the port.
    accel: Vec<Option<Accel>>,
    /// Weight and written-back global of each coalescing cluster.
    cluster_weight: Vec<f64>,
    cluster_head: Vec<Option<GlobalId>>,
    /// Per-global sums: slot `i < module.globals.len()` is `GlobalId(i)`.
    /// API calls name globals the verifier does not check, so any other
    /// id gets the next slot when first seen.
    globals: Vec<GlobalSums>,
    index_key: IndexKey,
    cam: CamState,
    // The current packet.
    flow_id: u32,
    crc_active: bool,
    /// Inside an LPM region served by the CAM.
    lpm_skip: bool,
    /// Walked the LPM region in software this packet.
    lpm_walked: bool,
    /// Coalesced clusters fetched / dirtied this packet.
    fetched: Vec<bool>,
    dirty: Vec<bool>,
    compute: f64,
    fixed: [f64; 4],
    drops: f64,
    /// Slots charged this packet, in first-charge order.
    charged: Vec<usize>,
    // The workload.
    pkts: usize,
    sum_compute: f64,
    sum_fixed: [f64; 4],
    sum_size: f64,
    sum_drops: f64,
}

impl<'a> Costing<'a> {
    pub(crate) fn new(
        module: &'a Module,
        nic: &'a NicModule,
        port: &'a PortConfig,
        cfg: &'a NicConfig,
    ) -> Costing<'a> {
        let blocks = nic.handler().blocks.as_slice();
        let accel = (0..blocks.len() as u32)
            .map(|b| port.accel_blocks.get(&BlockId(b)).copied())
            .collect();
        let clusters = &port.coalesce.clusters;
        let mut costing = Costing {
            module,
            blocks,
            port,
            cfg,
            accel,
            cluster_weight: (0..clusters.len())
                .map(|c| (f64::from(port.coalesce.cluster_bytes(c)) / 16.0).max(1.0))
                .collect(),
            cluster_head: clusters.iter().map(|c| c.first().map(|&(g, _)| g)).collect(),
            globals: Vec::with_capacity(module.globals.len()),
            index_key: IndexKey::random(),
            cam: CamState::new(cfg.cam_entries as usize),
            flow_id: 0,
            crc_active: false,
            lpm_skip: false,
            lpm_walked: false,
            fetched: vec![false; clusters.len()],
            dirty: vec![false; clusters.len()],
            compute: 0.0,
            fixed: [0.0; 4],
            drops: 0.0,
            charged: Vec::with_capacity(module.globals.len()),
            pkts: 0,
            sum_compute: 0.0,
            sum_fixed: [0.0; 4],
            sum_size: 0.0,
            sum_drops: 0.0,
        };
        for g in 0..module.globals.len() as u32 {
            costing.push_global(GlobalId(g));
        }
        costing
    }

    /// Packets folded in so far.
    pub(crate) fn pkts(&self) -> usize {
        self.pkts
    }

    fn push_global(&mut self, id: GlobalId) -> usize {
        self.globals.push(GlobalSums {
            id,
            pkt: 0.0,
            in_pkt: false,
            sum: 0.0,
            charged: false,
            touched: None,
        });
        self.globals.len() - 1
    }

    fn slot(&mut self, g: GlobalId) -> usize {
        let n = self.module.globals.len();
        if g.index() < n {
            return g.index();
        }
        match self.globals[n..].iter().position(|s| s.id == g) {
            Some(i) => n + i,
            None => self.push_global(g),
        }
    }

    /// Charges `weight` accesses to global `g` (its level is the port's
    /// business, applied when the profile is read).
    fn charge(&mut self, g: GlobalId, weight: f64) {
        let s = self.slot(g);
        let sums = &mut self.globals[s];
        if !sums.in_pkt {
            sums.in_pkt = true;
            self.charged.push(s);
        }
        sums.pkt += weight;
    }

    /// Starts a packet of flow `flow_id`.
    pub(crate) fn begin(&mut self, flow_id: u32) {
        self.flow_id = flow_id;
        self.crc_active = false;
        self.lpm_skip = false;
        self.lpm_walked = false;
        self.fetched.fill(false);
        self.dirty.fill(false);
        self.compute = 0.0;
        self.fixed = [0.0; 4];
        self.drops = 0.0;
    }

    /// Ends the packet begun last, of `size` wire bytes: writes dirtied
    /// packs back once, then folds its totals into the workload's.
    pub(crate) fn end(&mut self, size: u16) {
        for c in 0..self.dirty.len() {
            if let (true, Some(g)) = (self.dirty[c], self.cluster_head[c]) {
                self.charge(g, self.cluster_weight[c]);
            }
        }
        self.pkts += 1;
        self.sum_compute += self.compute;
        for (a, b) in self.sum_fixed.iter_mut().zip(self.fixed) {
            *a += b;
        }
        for &s in &self.charged {
            let sums = &mut self.globals[s];
            sums.sum += sums.pkt;
            sums.charged = true;
            sums.pkt = 0.0;
            sums.in_pkt = false;
        }
        self.charged.clear();
        self.sum_size += f64::from(size);
        self.sum_drops += self.drops;
    }

    /// Costs one event of the current packet.
    pub(crate) fn cost(&mut self, ev: &Event) {
        match ev {
            Event::Block(b) => {
                let accel = match self.accel.get(b.index()) {
                    Some(a) => *a,
                    None => self.port.accel_blocks.get(b).copied(),
                };
                match accel {
                    Some(Accel::Crc) => {
                        if !self.crc_active {
                            self.crc_active = true;
                            self.compute += f64::from(self.cfg.crc_accel_base);
                        }
                        self.compute += self.cfg.crc_accel_per_iter;
                        return;
                    }
                    Some(Accel::Lpm) => {
                        self.crc_active = false;
                        if !self.lpm_skip && !self.lpm_walked {
                            // Entering the region: consult the CAM once.
                            if self.cam.lookup_or_insert(self.flow_id) {
                                self.lpm_skip = true;
                                self.compute += f64::from(self.cfg.cam_hit_cycles);
                            } else {
                                self.lpm_walked = true;
                                self.compute += f64::from(self.cfg.cam_insert_cycles);
                            }
                        }
                        if self.lpm_skip {
                            return; // Whole region served by the CAM.
                        }
                        // Software walk: fall through and cost normally.
                    }
                    None => {
                        self.crc_active = false;
                        self.lpm_skip = false;
                    }
                }
                if let Some(nb) = self.blocks.get(b.index()) {
                    self.compute += f64::from(nb.issue_cycles());
                }
            }
            Event::State {
                global,
                index,
                offset,
                write,
                ..
            } => {
                let s = self.slot(*global);
                let key = &self.index_key;
                self.globals[s]
                    .touched
                    .get_or_insert_with(|| IndexSet::with_hasher(key.clone()))
                    .insert(*index);
                if self.crc_active || self.lpm_skip {
                    return; // The engine's internal accesses are in its base cost.
                }
                // Coalescing: one fetch per cluster per packet (plus one
                // writeback at `end` when dirtied). Wide packs cost
                // proportionally to the 16-byte memory beats they occupy,
                // so over-packing wastes bandwidth.
                if let Some(c) = self.port.coalesce.cluster_of(*global, *offset) {
                    if *write {
                        self.dirty[c] = true;
                    }
                    if !self.fetched[c] {
                        self.fetched[c] = true;
                        self.charge(*global, self.cluster_weight[c]);
                    }
                    return;
                }
                self.charge(*global, 1.0);
            }
            Event::Pkt { .. } => {
                if !(self.crc_active || self.lpm_skip) {
                    self.fixed[MemLevel::Ctm.index()] += 1.0;
                }
            }
            Event::Api(api) => {
                if !(self.crc_active || self.lpm_skip) {
                    self.api_call(api);
                }
            }
        }
    }

    fn api_call(&mut self, api: &ApiEvent) {
        let cfg = self.cfg;
        let ovh = f64::from(cfg.libcall_overhead);
        let ctm = MemLevel::Ctm.index();
        match &api.call {
            ApiCall::IpHeader | ApiCall::TcpHeader | ApiCall::UdpHeader | ApiCall::EthHeader => {
                self.compute += ovh;
                self.fixed[ctm] += 1.0;
            }
            ApiCall::PktLen | ApiCall::Timestamp | ApiCall::Random => {
                self.compute += ovh;
            }
            ApiCall::HashMapFind(g) | ApiCall::HashMapErase(g) => {
                self.compute += ovh + 6.0 * f64::from(api.probes);
                for _ in 0..api.probes {
                    self.charge(*g, 1.0);
                }
            }
            ApiCall::HashMapInsert(g) => {
                self.compute += ovh + 6.0 * f64::from(api.probes) + 8.0;
                for _ in 0..api.probes {
                    self.charge(*g, 1.0);
                }
                self.charge(*g, 1.0); // Key write.
            }
            ApiCall::VectorGet(g) | ApiCall::VectorPush(g) | ApiCall::VectorDelete(g) => {
                self.compute += ovh + 4.0;
                self.charge(*g, 1.0);
            }
            ApiCall::FlowLookup(g) | ApiCall::FlowRemove(g) => {
                // Bucket walk plus a timestamp compare per probed slot.
                self.compute += ovh + 8.0 * f64::from(api.probes);
                for _ in 0..api.probes {
                    self.charge(*g, 1.0);
                }
            }
            ApiCall::FlowUpsert(g) => {
                // Bucket walk, then key + timestamp writes on insert/refresh.
                self.compute += ovh + 8.0 * f64::from(api.probes) + 10.0;
                for _ in 0..api.probes {
                    self.charge(*g, 1.0);
                }
                self.charge(*g, 1.0); // Entry write.
            }
            ApiCall::FlowChurn(g) => {
                // Single counter read, kept near the table.
                self.compute += ovh;
                self.charge(*g, 1.0);
            }
            ApiCall::PktSend => {
                self.compute += ovh;
                self.fixed[ctm] += 1.0;
            }
            ApiCall::PktDrop => {
                self.drops += 1.0;
                self.compute += ovh;
                self.fixed[ctm] += 1.0;
            }
            ApiCall::ChecksumUpdate => {
                self.compute += if self.port.csum_accel {
                    f64::from(cfg.csum_accel_cycles)
                } else {
                    f64::from(cfg.csum_sw_cycles)
                };
                self.fixed[ctm] += 1.0;
            }
            ApiCall::ChecksumFull => {
                let bytes = f64::from(api.bytes);
                self.compute += if self.port.csum_accel {
                    f64::from(cfg.csum_accel_cycles) + bytes / 4.0
                } else {
                    100.0 + 10.0 * bytes
                };
                self.fixed[ctm] += 1.0;
            }
        }
    }

    /// The workload's profile: per-packet means, plus the working sets.
    pub(crate) fn finish(self) -> WorkloadProfile {
        let mut agg = WorkloadProfile {
            pkts: self.pkts,
            compute: self.sum_compute,
            fixed_accesses: self.sum_fixed,
            global_access: self
                .globals
                .iter()
                .filter(|s| s.charged)
                .map(|s| (s.id, s.sum))
                .collect(),
            working_set: BTreeMap::new(),
            mean_pkt_size: self.sum_size,
        };
        // Flush the raw (pre-normalization) totals to the metrics registry.
        // Each total is a pure function of the profiling inputs and is
        // rounded to a whole count per run, so the counters reconcile
        // bit-identically across worker layouts.
        counters().record_profile(&agg, self.port, self.sum_drops);

        let n = agg.pkts.max(1) as f64;
        agg.compute /= n;
        agg.fixed_accesses.iter_mut().for_each(|a| *a /= n);
        agg.global_access.values_mut().for_each(|a| *a /= n);
        agg.mean_pkt_size /= n;
        for s in &self.globals {
            if let Some(set) = &s.touched {
                let entry_bytes = self.module.global(s.id).map_or(4, |d| u64::from(d.entry_bytes));
                agg.working_set.insert(s.id, set.len() as u64 * entry_bytes);
            }
        }
        agg
    }
}

impl EventSink for Costing<'_> {
    #[inline]
    fn event(&mut self, ev: Event) {
        self.cost(&ev);
    }
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
