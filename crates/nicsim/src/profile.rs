//! Costing interpreted events into NIC workload profiles.

use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

use clara_obs as obs;
use click_model::{ApiEvent, Event, EventSink, ExecTrace, Machine, PacketView};
use nf_ir::{ApiCall, BlockId, GlobalId, Module, StateKind};
use nfcc::{NicBlock, NicModule};
use serde::{Deserialize, Serialize};
use trafgen::Trace;

use crate::config::{MemLevel, NicConfig};
use crate::port::{Accel, CoalescePlan, PortConfig};

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
/// functional behaviour), so a recording replays into the costing sink
/// under any port. Profiles stream each event straight into the sink and
/// keep no recording, and coalescing plans are priced from a
/// [`CoalesceSummary`]; recordings serve tools that inspect the traces
/// and the oracles that hold a streamed profile to a replayed one.
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
    let _span = obs::span!(
        "nicsim-record",
        "module={} pkts={}",
        module.name,
        trace.pkts.len()
    );
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
    let _span = obs::span!(
        "nicsim-profile",
        "module={} pkts={}",
        module.name,
        rec.entries.len()
    );
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
    let costing = stream(module, nic, trace, port, cfg, setup, &mut ());
    let _span = obs::span!(
        "nicsim-profile",
        "module={} pkts={}",
        module.name,
        trace.pkts.len()
    );
    costing.finish()
}

/// [`profile_workload_compiled`] under the naive port, plus the
/// [`CoalesceSummary`] of the same interpreter pass: the profile, its
/// counters and its spans are those of `profile_workload_compiled`, and
/// the summary prices any coalescing plan without running the NF again.
///
/// # Panics
///
/// Panics if the module fails verification or the interpreter hits its
/// step limit (both indicate element bugs, not user errors).
pub fn profile_summarized(
    module: &Module,
    nic: &NicModule,
    trace: &Trace,
    cfg: &NicConfig,
) -> (WorkloadProfile, CoalesceSummary) {
    let port = PortConfig::naive();
    let mut sink = SummarySink::new(module);
    let costing = stream(module, nic, trace, &port, cfg, |_| {}, &mut sink);
    let _span = obs::span!(
        "nicsim-profile",
        "module={} pkts={}",
        module.name,
        trace.pkts.len()
    );
    let totals = costing.totals();
    totals.record(&port);
    let summary = sink.finish(totals.sums.clone());
    (per_packet(totals.sums), summary)
}

/// Runs the NF over the trace once, showing each event to `rider` and
/// then costing it, as the interpreter produces it.
fn stream<'a, R: Rider>(
    module: &'a Module,
    nic: &'a NicModule,
    trace: &Trace,
    port: &'a PortConfig,
    cfg: &'a NicConfig,
    setup: impl FnOnce(&mut Machine),
    rider: &mut R,
) -> Costing<'a> {
    let mut costing = Costing::new(module, nic, port, cfg);
    let _span = obs::span!(
        "nicsim-record",
        "module={} pkts={}",
        module.name,
        trace.pkts.len()
    );
    let mut machine = Machine::new(module).expect("module must verify");
    setup(&mut machine);
    let mut sink = Riding {
        costing: &mut costing,
        rider,
    };
    for pkt in &trace.pkts {
        sink.costing.begin(pkt.flow_id);
        sink.rider.begin();
        machine
            .run_into(&mut PacketView::new(pkt), &mut sink)
            .expect("interpreter step limit");
        sink.costing.end(pkt.size);
        sink.rider.end();
    }
    let c = counters();
    c.record_runs.incr();
    c.pkts_recorded.add(trace.pkts.len() as u64);
    costing
}

/// A second consumer of a profiling pass: it sees each event just before
/// the costing does, with the same packet boundaries.
trait Rider {
    /// Starts a packet.
    fn begin(&mut self);
    /// Sees one event of the current packet.
    fn see(&mut self, ev: &Event);
    /// Ends the current packet.
    fn end(&mut self);
}

/// No rider: a plain profile.
impl Rider for () {
    #[inline]
    fn begin(&mut self) {}
    #[inline]
    fn see(&mut self, _: &Event) {}
    #[inline]
    fn end(&mut self) {}
}

/// The sink a streamed pass hands the interpreter.
struct Riding<'s, 'a, R> {
    costing: &'s mut Costing<'a>,
    rider: &'s mut R,
}

impl<R: Rider> EventSink for Riding<'_, '_, R> {
    #[inline]
    fn event(&mut self, ev: Event) {
        self.rider.see(&ev);
        self.costing.cost(&ev);
    }
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
                .map(|c| cluster_weight(&port.coalesce, c))
                .collect(),
            cluster_head: clusters
                .iter()
                .map(|c| c.first().map(|&(g, _)| g))
                .collect(),
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
    /// Records the run's simulator counters under the costing's port.
    pub(crate) fn finish(self) -> WorkloadProfile {
        let port = self.port;
        let totals = self.totals();
        totals.record(port);
        per_packet(totals.sums)
    }

    /// The workload's raw totals, before the per-packet division.
    pub(crate) fn totals(self) -> Totals {
        let working_set = self
            .globals
            .iter()
            .filter_map(|s| {
                let set = s.touched.as_ref()?;
                let entry_bytes = self
                    .module
                    .global(s.id)
                    .map_or(4, |d| u64::from(d.entry_bytes));
                Some((s.id, set.len() as u64 * entry_bytes))
            })
            .collect();
        Totals {
            sums: WorkloadProfile {
                pkts: self.pkts,
                compute: self.sum_compute,
                fixed_accesses: self.sum_fixed,
                global_access: self
                    .globals
                    .iter()
                    .filter(|s| s.charged)
                    .map(|s| (s.id, s.sum))
                    .collect(),
                working_set,
                mean_pkt_size: self.sum_size,
            },
            drops: self.sum_drops,
        }
    }
}

/// A costing run's raw totals: sums over the workload in a
/// [`WorkloadProfile`]'s shape (`working_set` already final), before the
/// per-packet division, plus the packets dropped.
#[derive(Debug, Clone)]
pub(crate) struct Totals {
    pub(crate) sums: WorkloadProfile,
    drops: f64,
}

impl Totals {
    /// Flushes the totals to the simulator counters, attributing each
    /// global's accesses to its level under `port`. Each total is a pure
    /// function of the profiling inputs and is rounded to a whole count
    /// per run, so the counters reconcile bit-identically across worker
    /// layouts.
    pub(crate) fn record(&self, port: &PortConfig) {
        counters().record_profile(&self.sums, port, self.drops);
    }
}

/// Divides raw sums by their packet count: the per-packet means a
/// [`WorkloadProfile`] holds. The working sets are workload totals and
/// stay as they are.
pub(crate) fn per_packet(mut wp: WorkloadProfile) -> WorkloadProfile {
    let n = wp.pkts.max(1) as f64;
    wp.compute /= n;
    wp.fixed_accesses.iter_mut().for_each(|a| *a /= n);
    wp.global_access.values_mut().for_each(|a| *a /= n);
    wp.mean_pkt_size /= n;
    wp
}

impl EventSink for Costing<'_> {
    #[inline]
    fn event(&mut self, ev: Event) {
        self.cost(&ev);
    }
}

/// Accesses one fetch or writeback of cluster `c` costs: the 16-byte
/// memory beats the pack occupies (4 bytes a variable), at least one.
/// Always a multiple of ¼.
fn cluster_weight(plan: &CoalescePlan, c: usize) -> f64 {
    (f64::from(plan.cluster_bytes(c)) / 16.0).max(1.0)
}

/// One packet's accesses to one scalar variable.
#[derive(Debug, Clone, Copy)]
struct VarUse {
    /// Index into [`CoalesceSummary::vars`].
    var: u32,
    /// State events of the packet on the variable.
    count: u32,
    /// Whether any of them was a store.
    write: bool,
}

/// What one naive profiling pass saw of a workload's scalar globals, kept
/// to price coalescing plans without running the NF again.
///
/// Per packet it holds one entry per distinct scalar `(global, offset)`
/// the packet accessed, in first-access order, with the packet's access
/// count and whether it wrote the variable; per scalar global, its
/// accesses from each handler block; and the pass's raw totals. It keeps
/// no per-event data. [`CoalesceSummary::price`] turns it into the profile
/// a costing of the same events under the naive port plus a plan gives.
#[derive(Debug, Clone)]
pub struct CoalesceSummary {
    /// The naive costing's raw totals (before the per-packet division).
    base: WorkloadProfile,
    /// Whether each module global is a scalar.
    scalar: Vec<bool>,
    /// The distinct scalar `(global, offset)` variables, first seen first.
    vars: Vec<(GlobalId, u32)>,
    /// Every packet's variable uses, packet after packet.
    uses: Vec<VarUse>,
    /// The end of each packet's run in `uses`.
    pkt_ends: Vec<usize>,
    /// Per scalar global (module order): accesses from each handler block.
    blocks: Vec<(GlobalId, Vec<u64>)>,
}

impl CoalesceSummary {
    /// The profile that costing the summarized events under
    /// `PortConfig::naive().with_coalesce(plan.clone())` gives, bit for
    /// bit.
    ///
    /// A plan only moves scalar accesses: a packet's first access to a
    /// cluster costs the cluster's weight, charged to the variable
    /// accessed, its other accesses to the cluster cost nothing, and a
    /// cluster the packet wrote costs one writeback charged to its head.
    /// So the priced sums are the naive sums, less each clustered
    /// variable's unit accesses, plus those charges. Every charge is a
    /// multiple of ¼, so every sum is exact whatever its order, and a
    /// global is charged under the plan exactly when its sum is positive.
    /// Only `compute` depends on the device configuration of the pass,
    /// and the plan does not change it.
    ///
    /// # Panics
    ///
    /// Panics if the plan names a module global that is not a scalar:
    /// coalescing packs scalar variables, and the summary sees no others.
    pub fn price(&self, plan: &CoalescePlan) -> WorkloadProfile {
        for &(g, _) in plan.clusters.iter().flatten() {
            assert!(
                self.scalar.get(g.index()).copied().unwrap_or(true),
                "coalescing plans pack scalar globals; global {} is not one",
                g.0
            );
        }
        let n = plan.clusters.len();
        let cluster: Vec<Option<usize>> = self
            .vars
            .iter()
            .map(|&(g, off)| plan.cluster_of(g, off))
            .collect();
        let weight: Vec<f64> = (0..n).map(|c| cluster_weight(plan, c)).collect();
        // Each clustered variable's net change, and each cluster's
        // writebacks, summed over the workload.
        let mut delta = vec![0.0f64; self.vars.len()];
        let mut writebacks = vec![0.0f64; n];
        let mut fetched = vec![false; n];
        let mut dirty = vec![false; n];
        let mut start = 0;
        for &end in &self.pkt_ends {
            fetched.fill(false);
            dirty.fill(false);
            for u in &self.uses[start..end] {
                let Some(c) = cluster[u.var as usize] else {
                    continue;
                };
                let d = &mut delta[u.var as usize];
                *d -= f64::from(u.count);
                if !fetched[c] {
                    fetched[c] = true;
                    *d += weight[c];
                }
                dirty[c] |= u.write;
            }
            for c in 0..n {
                if dirty[c] {
                    writebacks[c] += weight[c];
                }
            }
            start = end;
        }
        let mut sums = self.base.global_access.clone();
        for (&(g, _), d) in self.vars.iter().zip(delta) {
            if d != 0.0 {
                *sums.entry(g).or_insert(0.0) += d;
            }
        }
        for (c, w) in writebacks.into_iter().enumerate() {
            if let (true, Some(&(head, _))) = (w > 0.0, plan.clusters[c].first()) {
                *sums.entry(head).or_insert(0.0) += w;
            }
        }
        sums.retain(|_, a| *a > 0.0);
        per_packet(WorkloadProfile {
            global_access: sums,
            ..self.base.clone()
        })
    }

    /// Each scalar global's accesses from each handler block (indexed by
    /// block), in module order: the raw counts behind the access vectors
    /// that coalescing clusters.
    pub fn block_accesses(&self) -> &[(GlobalId, Vec<u64>)] {
        &self.blocks
    }
}

/// The rider that builds a [`CoalesceSummary`] during a profiling pass.
struct SummarySink {
    /// Module global index → slot in `blocks` and `offsets`, for scalars.
    slot_of: Vec<Option<usize>>,
    /// Per scalar slot: the `(offset, var)` pairs seen so far.
    offsets: Vec<Vec<(u32, u32)>>,
    /// Per var: the index of its use in the current packet, if any.
    pkt_use: Vec<Option<usize>>,
    /// Where the current packet's uses start.
    pkt_start: usize,
    /// The block the current packet is in (0 before its first).
    cur_block: usize,
    vars: Vec<(GlobalId, u32)>,
    uses: Vec<VarUse>,
    pkt_ends: Vec<usize>,
    blocks: Vec<(GlobalId, Vec<u64>)>,
}

impl SummarySink {
    fn new(module: &Module) -> SummarySink {
        let n_blocks = module.handler().map_or(0, |f| f.blocks.len());
        let mut blocks = Vec::new();
        let slot_of = module
            .globals
            .iter()
            .map(|g| {
                (g.kind == StateKind::Scalar).then(|| {
                    blocks.push((g.id, vec![0u64; n_blocks]));
                    blocks.len() - 1
                })
            })
            .collect();
        SummarySink {
            slot_of,
            offsets: vec![Vec::new(); blocks.len()],
            pkt_use: Vec::new(),
            pkt_start: 0,
            cur_block: 0,
            vars: Vec::new(),
            uses: Vec::new(),
            pkt_ends: Vec::new(),
            blocks,
        }
    }

    /// The summary, over the naive costing's raw totals `base`.
    fn finish(self, base: WorkloadProfile) -> CoalesceSummary {
        CoalesceSummary {
            base,
            scalar: self.slot_of.iter().map(Option::is_some).collect(),
            vars: self.vars,
            uses: self.uses,
            pkt_ends: self.pkt_ends,
            blocks: self.blocks,
        }
    }
}

impl Rider for SummarySink {
    #[inline]
    fn begin(&mut self) {
        self.cur_block = 0;
    }

    #[inline]
    fn see(&mut self, ev: &Event) {
        let (global, offset, write) = match ev {
            Event::Block(b) => {
                self.cur_block = b.index();
                return;
            }
            Event::State {
                global,
                offset,
                write,
                ..
            } => (*global, *offset, *write),
            _ => return,
        };
        let Some(&Some(s)) = self.slot_of.get(global.index()) else {
            return;
        };
        if let Some(n) = self.blocks[s].1.get_mut(self.cur_block) {
            *n += 1;
        }
        let var = match self.offsets[s].iter().find(|&&(o, _)| o == offset) {
            Some(&(_, v)) => v,
            None => {
                let v = self.vars.len() as u32;
                self.vars.push((global, offset));
                self.offsets[s].push((offset, v));
                self.pkt_use.push(None);
                v
            }
        };
        match self.pkt_use[var as usize] {
            Some(i) => {
                let u = &mut self.uses[i];
                u.count += 1;
                u.write |= write;
            }
            None => {
                self.pkt_use[var as usize] = Some(self.uses.len());
                self.uses.push(VarUse {
                    var,
                    count: 1,
                    write,
                });
            }
        }
    }

    fn end(&mut self) {
        for u in &self.uses[self.pkt_start..] {
            self.pkt_use[u.var as usize] = None;
        }
        self.pkt_start = self.uses.len();
        self.pkt_ends.push(self.pkt_start);
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

    /// A module whose scalars the corpus does not cover: an 8-byte
    /// scalar accessed at offsets 0 and 4, a scalar an API call also
    /// charges, one only written, one never accessed, and an array, over
    /// three blocks.
    fn scalar_mix() -> Module {
        use nf_ir::builder::FunctionBuilder;
        use nf_ir::{MemRef, Operand, PktField, Pred, Ty};
        let mut m = Module::new("scalar_mix");
        let wide = m.add_global("wide", StateKind::Scalar, 8, 1);
        let churned = m.add_global("churned", StateKind::Scalar, 4, 1);
        let written = m.add_global("written", StateKind::Scalar, 4, 1);
        let _idle = m.add_global("idle", StateKind::Scalar, 4, 1);
        let table = m.add_global("table", StateKind::Array, 4, 16);
        let mut fb = FunctionBuilder::new("process");
        let entry = fb.entry_block();
        let left = fb.block();
        let right = fb.block();
        fb.switch_to(entry);
        let lo = fb.load(Ty::I32, MemRef::global_at(wide, Operand::imm(0), 0));
        fb.store(Ty::I32, lo, MemRef::global_at(wide, Operand::imm(0), 4));
        let _ = fb.call(ApiCall::FlowChurn(churned), vec![]);
        let c = fb.load(Ty::I32, MemRef::global(churned));
        let port = fb.load(Ty::I32, MemRef::pkt(PktField::IpTtl));
        let odd = fb.bin(nf_ir::BinOp::And, Ty::I32, port, Operand::imm(1));
        let go_left = fb.icmp(Pred::Ne, Ty::I32, odd, Operand::imm(0));
        fb.cond_br(go_left, left, right);
        fb.switch_to(left);
        fb.store(Ty::I32, c, MemRef::global(written));
        let hi = fb.load(Ty::I32, MemRef::global_at(wide, Operand::imm(0), 4));
        fb.store(Ty::I32, hi, MemRef::global(churned));
        let _ = fb.call(ApiCall::PktSend, vec![Operand::imm(0)]);
        fb.ret(None);
        fb.switch_to(right);
        let slot = fb.bin(nf_ir::BinOp::And, Ty::I32, port, Operand::imm(15));
        let t = fb.load(Ty::I32, MemRef::global_at(table, slot, 0));
        fb.store(Ty::I32, t, MemRef::global_at(wide, Operand::imm(0), 0));
        let _ = fb.call(ApiCall::PktSend, vec![Operand::imm(1)]);
        fb.ret(None);
        m.funcs.push(fb.finish());
        m
    }

    /// A seeded random plan over the module's scalar variables, offsets 0
    /// to 8 whether accessed or not: clusters of one to four members in
    /// random order, so heads are sometimes never accessed.
    fn random_plan(module: &Module, seed: u64) -> CoalescePlan {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5851_f42d_4c95_7f2d;
        let mut next = |n: usize| -> usize {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 33) % n as u64) as usize
        };
        let mut vars: Vec<(GlobalId, u32)> = module
            .globals
            .iter()
            .filter(|g| g.kind == StateKind::Scalar)
            .flat_map(|g| [0u32, 4, 8].map(|off| (g.id, off)))
            .filter(|_| next(3) != 0)
            .collect();
        let mut clusters = Vec::new();
        while !vars.is_empty() && next(5) != 0 {
            let size = (1 + next(4)).min(vars.len());
            clusters.push(
                (0..size)
                    .map(|_| vars.swap_remove(next(vars.len())))
                    .collect(),
            );
        }
        CoalescePlan { clusters }
    }

    #[test]
    fn summary_prices_any_plan_as_costing_a_recording_does() {
        let cfg = NicConfig::default();
        let naive = PortConfig::naive();
        let mut modules: Vec<Module> = click_model::extended_corpus()
            .into_iter()
            .map(|e| e.module)
            .collect();
        modules.push(scalar_mix());
        let (mut priced, mut moved) = (0, 0);
        for module in &modules {
            let nic = nfcc::compile_module(module);
            for (w, spec) in [WorkloadSpec::large_flows(), WorkloadSpec::small_flows()]
                .iter()
                .enumerate()
            {
                let trace = Trace::generate(spec, 120, 11 + w as u64);
                let rec = record_workload(module, &trace, |_| {});
                let (wp, summary) = profile_summarized(module, &nic, &trace, &cfg);
                assert_eq!(
                    format!("{wp:?}"),
                    format!(
                        "{:?}",
                        profile_workload_compiled(module, &nic, &trace, &naive, &cfg)
                    ),
                    "{} on {}: the summarized pass's profile",
                    module.name,
                    spec.name
                );
                let mut plans = vec![CoalescePlan::default()];
                plans.extend((0..10).map(|seed| random_plan(module, seed * 31 + w as u64)));
                for plan in plans {
                    let port = naive.clone().with_coalesce(plan.clone());
                    let want = profile_recorded_compiled(module, &nic, &rec, &port, &cfg);
                    assert_eq!(
                        format!("{:?}", summary.price(&plan)),
                        format!("{want:?}"),
                        "{} on {} under {plan:?}",
                        module.name,
                        spec.name
                    );
                    priced += 1;
                    moved += usize::from(want.global_access != wp.global_access);
                }
            }
        }
        assert!(priced > 700, "{priced} plans priced");
        assert!(moved > 100, "only {moved} plans moved any access");
    }

    #[test]
    #[should_panic(expected = "coalescing plans pack scalar globals")]
    fn pricing_a_plan_that_packs_a_table_panics() {
        let e = elements::aggcounter();
        let nic = nfcc::compile_module(&e.module);
        let trace = Trace::generate(&WorkloadSpec::large_flows(), 20, 1);
        let (_, summary) = profile_summarized(&e.module, &nic, &trace, &NicConfig::default());
        let table = e
            .module
            .globals
            .iter()
            .find(|g| g.kind != StateKind::Scalar)
            .expect("aggcounter has a table");
        summary.price(&CoalescePlan {
            clusters: vec![vec![(table.id, 0), (GlobalId(0), 0)]],
        });
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
