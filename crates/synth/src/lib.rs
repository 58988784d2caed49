//! `nf-synth`: distribution-guided random NF program synthesis.
//!
//! Clara needs LLVM/assembly training pairs, but "SmartNIC programs do not
//! exist in abundance", so the paper customizes YarpGen to synthesize
//! Click-shaped programs whose statistical profile matches the real
//! element corpus (Section 3.2, Table 1). This crate plays that role:
//!
//! 1. [`CorpusProfile::measure`] extracts the *shape distribution* of a
//!    real element corpus — which operations, types, operand kinds,
//!    memory regions and API calls appear, how long blocks are, how often
//!    programs branch and loop;
//! 2. [`Synthesizer::generate`] samples random, well-formed, *executable*
//!    NF modules from that distribution (guided mode), or from a uniform
//!    distribution over the same shape universe (the Table 1 baseline).
//!
//! Synthesized modules verify, run under [`click_model::Machine`], and
//! compile under `nfcc` — so they can serve as training data for every
//! one of Clara's learned models.
//!
//! # Examples
//!
//! ```
//! use nf_synth::{CorpusProfile, Synthesizer};
//!
//! let profile = CorpusProfile::measure(&click_model::corpus());
//! let mut synth = Synthesizer::new(profile, 42);
//! let m = synth.generate("sample");
//! assert!(nf_ir::verify::verify_module(&m).is_ok());
//! ```

use std::collections::BTreeMap;

use click_model::NfElement;
use nf_ir::{
    ApiCall, BinOp, CastOp, FunctionBuilder, GlobalId, Inst, MemRef, Module, Operand, PktField,
    Pred, StateKind, Ty,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Immediate-operand magnitude buckets (mirrors the NIC's immediate costs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ImmBucket {
    /// Fits in the instruction word.
    Imm8,
    /// Needs one `immed`.
    Imm16,
    /// Needs two `immed`s.
    Imm32,
}

impl ImmBucket {
    fn sample(self, rng: &mut StdRng) -> i64 {
        match self {
            ImmBucket::Imm8 => rng.gen_range(0..256),
            ImmBucket::Imm16 => rng.gen_range(256..65536),
            ImmBucket::Imm32 => rng.gen_range(65536..0x4000_0000),
        }
    }
}

/// Where a load/store points, abstracted for sampling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum RegionShape {
    /// A stack slot.
    Stack,
    /// A scalar global.
    GlobalScalar,
    /// An indexed global entry.
    GlobalIndexed,
    /// A packet header/payload field.
    Pkt(PktField),
}

/// Framework API kinds (global ids stripped for sampling).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ApiKind {
    /// Header locators (`ip_header` etc.).
    Header,
    /// `pkt_len` / `timestamp` / `random`.
    Misc,
    /// Hash-map find.
    MapFind,
    /// Hash-map insert.
    MapInsert,
    /// Vector operation.
    Vector,
    /// Checksum update.
    Csum,
}

/// The sampleable shape of one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum OpShape {
    /// A binary ALU operation (with an optional immediate operand).
    Bin {
        /// Operation.
        op: BinOp,
        /// Type.
        ty: Ty,
        /// Immediate bucket of the rhs, or a register operand.
        imm: Option<ImmBucket>,
    },
    /// A comparison.
    Icmp {
        /// Predicate.
        pred: Pred,
        /// Type.
        ty: Ty,
        /// Immediate bucket of the rhs, or a register operand.
        imm: Option<ImmBucket>,
    },
    /// A width cast.
    Cast {
        /// Kind.
        op: CastOp,
        /// From type.
        from: Ty,
        /// To type.
        to: Ty,
    },
    /// A select.
    Select {
        /// Type.
        ty: Ty,
    },
    /// A load.
    Load {
        /// Type.
        ty: Ty,
        /// Region.
        region: RegionShape,
    },
    /// A store.
    Store {
        /// Type.
        ty: Ty,
        /// Region.
        region: RegionShape,
    },
    /// A framework API call.
    Call {
        /// API kind.
        api: ApiKind,
    },
}

fn imm_bucket(op: Operand) -> Option<ImmBucket> {
    match op {
        Operand::Value(_) => None,
        Operand::Const(c) => {
            let mag = c.unsigned_abs();
            Some(if c >= 0 && mag < 256 {
                ImmBucket::Imm8
            } else if mag < 65536 {
                ImmBucket::Imm16
            } else {
                ImmBucket::Imm32
            })
        }
    }
}

fn region_shape(mem: &MemRef) -> RegionShape {
    match mem {
        MemRef::Stack { .. } => RegionShape::Stack,
        MemRef::Global { index: None, .. } => RegionShape::GlobalScalar,
        MemRef::Global { index: Some(_), .. } => RegionShape::GlobalIndexed,
        MemRef::Pkt { field } => RegionShape::Pkt(*field),
    }
}

fn api_kind(api: &ApiCall) -> ApiKind {
    match api {
        ApiCall::IpHeader | ApiCall::TcpHeader | ApiCall::UdpHeader | ApiCall::EthHeader => {
            ApiKind::Header
        }
        ApiCall::PktLen | ApiCall::Timestamp | ApiCall::Random => ApiKind::Misc,
        ApiCall::HashMapFind(_) | ApiCall::HashMapErase(_) => ApiKind::MapFind,
        ApiCall::HashMapInsert(_) => ApiKind::MapInsert,
        // Flow-table calls walk buckets exactly like map calls do;
        // bucket them by access shape so guided synthesis reproduces
        // their memory behaviour without a dedicated kind.
        ApiCall::FlowLookup(_) | ApiCall::FlowRemove(_) => ApiKind::MapFind,
        ApiCall::FlowUpsert(_) => ApiKind::MapInsert,
        ApiCall::FlowChurn(_) => ApiKind::Misc,
        ApiCall::VectorGet(_) | ApiCall::VectorPush(_) | ApiCall::VectorDelete(_) => {
            ApiKind::Vector
        }
        ApiCall::ChecksumUpdate | ApiCall::ChecksumFull => ApiKind::Csum,
        // Send/drop are structural (every generated program ends with
        // one); bucket stray occurrences with the cheap misc calls.
        ApiCall::PktSend | ApiCall::PktDrop => ApiKind::Misc,
    }
}

/// Shape of one instruction of an existing module, if sampleable.
fn shape_of(inst: &Inst) -> Option<OpShape> {
    Some(match inst {
        Inst::Bin { op, ty, rhs, .. } => OpShape::Bin {
            op: *op,
            ty: *ty,
            imm: imm_bucket(*rhs),
        },
        Inst::Icmp { pred, ty, rhs, .. } => OpShape::Icmp {
            pred: *pred,
            ty: *ty,
            imm: imm_bucket(*rhs),
        },
        Inst::Cast { op, from, to, .. } => OpShape::Cast {
            op: *op,
            from: *from,
            to: *to,
        },
        Inst::Select { ty, .. } => OpShape::Select { ty: *ty },
        Inst::Load { ty, mem, .. } => OpShape::Load {
            ty: *ty,
            region: region_shape(mem),
        },
        Inst::Store { ty, mem, .. } => OpShape::Store {
            ty: *ty,
            region: region_shape(mem),
        },
        Inst::Call { api, .. } => OpShape::Call { api: api_kind(api) },
        Inst::Phi { .. } => return None, // Structural, not sampled.
    })
}

/// The statistical profile of a program corpus.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CorpusProfile {
    /// Shape histogram (guided sampling weights).
    pub shapes: BTreeMap<OpShape, u32>,
    /// Mean straight-line instructions per block.
    pub mean_block_len: f64,
    /// Mean blocks per handler.
    pub mean_blocks: f64,
    /// Probability a program contains a loop.
    pub loop_prob: f64,
    /// Probability a program branches (diamond).
    pub branch_prob: f64,
}

impl CorpusProfile {
    /// Measures the shape distribution of a real element corpus.
    ///
    /// # Panics
    ///
    /// Panics if `corpus` is empty.
    pub fn measure(corpus: &[NfElement]) -> CorpusProfile {
        assert!(!corpus.is_empty(), "empty corpus");
        let mut shapes: BTreeMap<OpShape, u32> = BTreeMap::new();
        let mut total_insts = 0usize;
        let mut total_blocks = 0usize;
        let mut with_loop = 0usize;
        let mut with_branch = 0usize;
        for e in corpus {
            let mut loops = 0;
            let mut branches = 0;
            for f in &e.module.funcs {
                total_blocks += f.blocks.len();
                loops += nf_ir::Cfg::build(f).loop_count();
                for b in &f.blocks {
                    total_insts += b.insts.len();
                    if matches!(b.term, nf_ir::Term::CondBr { .. }) {
                        branches += 1;
                    }
                    for i in &b.insts {
                        if let Some(s) = shape_of(i) {
                            *shapes.entry(s).or_insert(0) += 1;
                        }
                    }
                }
            }
            if loops > 0 {
                with_loop += 1;
            }
            if branches > 0 {
                with_branch += 1;
            }
        }
        CorpusProfile {
            shapes,
            mean_block_len: total_insts as f64 / total_blocks.max(1) as f64,
            mean_blocks: total_blocks as f64 / corpus.len() as f64,
            loop_prob: with_loop as f64 / corpus.len() as f64,
            branch_prob: with_branch as f64 / corpus.len() as f64,
        }
    }

    /// The Table 1 baseline: a uniform distribution over the same shape
    /// universe (ignores corpus frequencies).
    pub fn uniform_over(corpus: &[NfElement]) -> CorpusProfile {
        let mut p = CorpusProfile::measure(corpus);
        for w in p.shapes.values_mut() {
            *w = 1;
        }
        p
    }
}

/// A deterministic random program generator.
#[derive(Debug)]
pub struct Synthesizer {
    profile: CorpusProfile,
    rng: StdRng,
    shape_list: Vec<(OpShape, u32)>,
    total_weight: u64,
}

impl Synthesizer {
    /// Creates a generator for the given profile and seed.
    pub fn new(profile: CorpusProfile, seed: u64) -> Synthesizer {
        let shape_list: Vec<(OpShape, u32)> =
            profile.shapes.iter().map(|(s, w)| (*s, *w)).collect();
        let total_weight = shape_list.iter().map(|(_, w)| u64::from(*w)).sum();
        Synthesizer {
            profile,
            rng: StdRng::seed_from_u64(seed),
            shape_list,
            total_weight,
        }
    }

    fn sample_shape(&mut self) -> OpShape {
        let mut x = self.rng.gen_range(0..self.total_weight.max(1));
        for (s, w) in &self.shape_list {
            let w = u64::from(*w);
            if x < w {
                return *s;
            }
            x -= w;
        }
        self.shape_list.last().expect("non-empty shapes").0
    }

    /// Generates one random NF module.
    pub fn generate(&mut self, name: &str) -> Module {
        let mut m = Module::new(name.to_string());
        let g_map = m.add_global("s_map", StateKind::HashMap, 16, 1024);
        let g_arr = m.add_global("s_arr", StateKind::Array, 4, 256);
        let g_sc = m.add_global("s_ctr", StateKind::Scalar, 4, 1);
        let g_vec = m.add_global("s_vec", StateKind::Vector, 8, 64);

        let mut fb = FunctionBuilder::new("process");
        let entry = fb.entry_block();
        fb.switch_to(entry);
        let mut ctx = GenCtx {
            globals: [g_map, g_arr, g_sc, g_vec],
            slots: (0..4).map(|_| fb.slot()).collect(),
            ..GenCtx::default()
        };
        // Seed the value pool from packet fields.
        let src = fb.load(Ty::I32, MemRef::pkt(PktField::IpSrc));
        let len = fb.load(Ty::I16, MemRef::pkt(PktField::IpLen));
        ctx.put(Ty::I32, src);
        ctx.put(Ty::I16, len);

        // Straight-line prelude.
        let prelude = self.poisson_len();
        self.emit_run(&mut fb, &mut ctx, prelude);
        // Optional diamond.
        if self
            .rng
            .gen_bool(self.profile.branch_prob.clamp(0.05, 0.95))
        {
            self.emit_diamond(&mut fb, &mut ctx);
        }
        // Optional bounded loop.
        let mut phi_patches = Vec::new();
        if self.rng.gen_bool(self.profile.loop_prob.clamp(0.05, 0.95)) {
            phi_patches.push(self.emit_loop(&mut fb, &mut ctx));
        }
        // Straight-line epilogue.
        let epilogue = self.poisson_len();
        self.emit_run(&mut fb, &mut ctx, epilogue);
        let _ = fb.call(ApiCall::PktSend, vec![Operand::imm(0)]);
        fb.ret(None);
        let mut f = fb.finish();
        // Wire the loop-carried induction phis to their latch values.
        for (head, latch, val) in phi_patches {
            click_model::elements::helpers::set_phi_incoming(&mut f, head, 0, latch, val);
        }
        m.funcs.push(f);
        m
    }

    /// Generates `n` modules.
    pub fn generate_many(&mut self, n: usize, prefix: &str) -> Vec<Module> {
        (0..n)
            .map(|i| self.generate(&format!("{prefix}{i}")))
            .collect()
    }

    /// Emits `n` instructions with bursty repetition: real Click elements
    /// contain runs of near-identical statements (header-field writes,
    /// counter updates), so shapes occasionally repeat back to back.
    fn emit_run(&mut self, fb: &mut FunctionBuilder, ctx: &mut GenCtx, n: usize) {
        let mut emitted = 0;
        while emitted < n {
            let shape = self.sample_shape();
            let burst = if self.rng.gen_bool(0.25) {
                self.rng.gen_range(2..6usize)
            } else {
                1
            };
            for _ in 0..burst.min(n - emitted) {
                self.emit(fb, ctx, shape);
                emitted += 1;
            }
        }
    }

    fn poisson_len(&mut self) -> usize {
        // Geometric approximation around the corpus mean block length.
        let mean = self.profile.mean_block_len.clamp(2.0, 24.0);
        let mut n = 1usize;
        while n < 40 && self.rng.gen_bool((1.0 - 1.0 / mean).clamp(0.05, 0.97)) {
            n += 1;
        }
        n
    }

    fn emit_diamond(&mut self, fb: &mut FunctionBuilder, ctx: &mut GenCtx) {
        let cond = match ctx.bool_val {
            Some(c) => c,
            None => {
                let v = ctx.get(Ty::I32, fb, &mut self.rng);
                fb.icmp(Pred::ULt, Ty::I32, v, Operand::imm(1000))
            }
        };
        let then_bb = fb.block();
        let else_bb = fb.block();
        let join = fb.block();
        fb.cond_br(cond, then_bb, else_bb);
        for bb in [then_bb, else_bb] {
            fb.switch_to(bb);
            // Arms only mutate memory; the SSA pool must stay valid at the
            // join, so arm-local values are not pooled.
            let arm_len = (self.poisson_len() / 2).max(1);
            let mut arm_ctx = ctx.clone();
            self.emit_run(fb, &mut arm_ctx, arm_len);
            fb.br(join);
        }
        fb.switch_to(join);
        ctx.bool_val = None;
    }

    fn emit_loop(
        &mut self,
        fb: &mut FunctionBuilder,
        ctx: &mut GenCtx,
    ) -> (nf_ir::BlockId, nf_ir::BlockId, Operand) {
        let pre = fb.current_block().expect("positioned");
        let head = fb.block();
        let body = fb.block();
        let latch = fb.block();
        let after = fb.block();
        let trips = i64::from(self.rng.gen_range(2..12u8));
        fb.br(head);
        fb.switch_to(head);
        let i = fb.phi(
            Ty::I32,
            vec![(pre, Operand::imm(0)), (latch, Operand::imm(0))],
        );
        let more = fb.icmp(Pred::ULt, Ty::I32, i, Operand::imm(trips));
        fb.cond_br(more, body, after);
        fb.switch_to(body);
        let mut body_ctx = ctx.clone();
        body_ctx.put(Ty::I32, i);
        let body_len = (self.poisson_len() / 2).max(2);
        self.emit_run(fb, &mut body_ctx, body_len);
        fb.br(latch);
        fb.switch_to(latch);
        let i_next = fb.bin(BinOp::Add, Ty::I32, i, Operand::imm(1));
        fb.br(head);
        fb.switch_to(after);
        ctx.bool_val = None;
        (head, latch, i_next)
    }

    fn emit(&mut self, fb: &mut FunctionBuilder, ctx: &mut GenCtx, shape: OpShape) {
        let rng = &mut self.rng;
        match shape {
            OpShape::Bin { op, ty, imm } => {
                let lhs = ctx.get(ty, fb, rng);
                let rhs = match imm {
                    Some(b) => Operand::imm(b.sample(rng)),
                    None => ctx.get(ty, fb, rng),
                };
                // Shift amounts range past the type width so every
                // execution layer must agree on the reduction rule
                // (amount mod width); see `nf_ir::opt::eval_bin`.
                let rhs = if op.is_shift() {
                    Operand::imm(rng.gen_range(1..2 * i64::from(ty.bits())))
                } else {
                    rhs
                };
                let v = fb.bin(op, ty, lhs, rhs);
                ctx.put(ty, v);
            }
            OpShape::Icmp { pred, ty, imm } => {
                let lhs = ctx.get(ty, fb, rng);
                let rhs = match imm {
                    Some(b) => Operand::imm(b.sample(rng)),
                    None => ctx.get(ty, fb, rng),
                };
                let v = fb.icmp(pred, ty, lhs, rhs);
                ctx.bool_val = Some(v);
            }
            OpShape::Cast { op, from, to } => {
                let (op, from, to) = match op {
                    CastOp::Trunc if from.bits() <= to.bits() => (CastOp::Zext, to, from),
                    CastOp::Zext | CastOp::Sext if from.bits() >= to.bits() => {
                        (CastOp::Trunc, from, to)
                    }
                    _ => (op, from, to),
                };
                if from == to {
                    return;
                }
                let src = ctx.get(from, fb, rng);
                let v = fb.cast(op, from, to, src);
                ctx.put(to, v);
            }
            OpShape::Select { ty } => {
                let c = match ctx.bool_val {
                    Some(c) => c,
                    None => return,
                };
                let a = ctx.get(ty, fb, rng);
                let b = ctx.get(ty, fb, rng);
                let v = fb.select(ty, c, a, b);
                ctx.put(ty, v);
            }
            OpShape::Load { ty, region } => {
                let mem = ctx.mem(region, ty, fb, rng);
                let v = fb.load(ty, mem);
                ctx.put(ty, v);
            }
            OpShape::Store { ty, region } => {
                let mem = ctx.mem(region, ty, fb, rng);
                let val = ctx.get(ty, fb, rng);
                fb.store(ty, val, mem);
            }
            OpShape::Call { api } => {
                let call = match api {
                    ApiKind::Header => match rng.gen_range(0..3) {
                        0 => ApiCall::IpHeader,
                        1 => ApiCall::TcpHeader,
                        _ => ApiCall::UdpHeader,
                    },
                    ApiKind::Misc => match rng.gen_range(0..3) {
                        0 => ApiCall::PktLen,
                        1 => ApiCall::Timestamp,
                        _ => ApiCall::Random,
                    },
                    ApiKind::MapFind => ApiCall::HashMapFind(ctx.globals[0]),
                    ApiKind::MapInsert => ApiCall::HashMapInsert(ctx.globals[0]),
                    ApiKind::Vector => match rng.gen_range(0..2) {
                        0 => ApiCall::VectorGet(ctx.globals[3]),
                        _ => ApiCall::VectorPush(ctx.globals[3]),
                    },
                    ApiKind::Csum => ApiCall::ChecksumUpdate,
                };
                let args = match &call {
                    ApiCall::HashMapFind(_) | ApiCall::HashMapInsert(_) => {
                        vec![ctx.get(Ty::I32, fb, rng)]
                    }
                    ApiCall::VectorGet(_) | ApiCall::VectorDelete(_) => {
                        vec![ctx.get(Ty::I32, fb, rng)]
                    }
                    _ => vec![],
                };
                if let Some(v) = fb.call(call, args) {
                    ctx.put(Ty::I32, v);
                }
            }
        }
    }
}

/// Generation context: value pools and global handles.
#[derive(Debug, Clone)]
struct GenCtx {
    globals: [GlobalId; 4],
    slots: Vec<u32>,
    pool: BTreeMap<Ty, Vec<Operand>>,
    bool_val: Option<Operand>,
}

impl GenCtx {
    fn put(&mut self, ty: Ty, v: Operand) {
        let list = self.pool.entry(ty).or_default();
        list.push(v);
        if list.len() > 12 {
            list.remove(0);
        }
    }

    fn get(&mut self, ty: Ty, fb: &mut FunctionBuilder, rng: &mut StdRng) -> Operand {
        if let Some(list) = self.pool.get(&ty) {
            if !list.is_empty() {
                return list[rng.gen_range(0..list.len())];
            }
        }
        // Materialize a value of the right type from packet data.
        let v = fb.load(
            ty,
            MemRef::pkt(PktField::Payload(rng.gen_range(0u16..16) * 4)),
        );
        self.put(ty, v);
        v
    }

    fn mem(
        &mut self,
        region: RegionShape,
        _ty: Ty,
        fb: &mut FunctionBuilder,
        rng: &mut StdRng,
    ) -> MemRef {
        match region {
            RegionShape::Stack => MemRef::stack(self.slots[rng.gen_range(0..self.slots.len())]),
            RegionShape::GlobalScalar => MemRef::global(self.globals[2]),
            RegionShape::GlobalIndexed => {
                let idx = self.get(Ty::I32, fb, rng);
                let masked = fb.bin(BinOp::And, Ty::I32, idx, Operand::imm(255));
                MemRef::global_at(self.globals[1], masked, 0)
            }
            RegionShape::Pkt(field) => MemRef::pkt(field),
        }
    }
}

impl Default for GenCtx {
    fn default() -> Self {
        GenCtx {
            globals: [GlobalId(0); 4],
            slots: Vec::new(),
            pool: BTreeMap::new(),
            bool_val: None,
        }
    }
}

/// Convenience: synthesize `n` modules guided by the real Click corpus
/// (or the unguided baseline when `guided` is false).
pub fn synth_corpus(n: usize, guided: bool, seed: u64) -> Vec<Module> {
    let corpus = click_model::corpus();
    let profile = if guided {
        CorpusProfile::measure(&corpus)
    } else {
        CorpusProfile::uniform_over(&corpus)
    };
    let mut synth = Synthesizer::new(profile, seed);
    let prefix = if guided { "synth" } else { "base" };
    let modules = synth.generate_many(n, prefix);
    // Apply any pending loop-phi patches (done at generation time inside
    // `generate`, so modules here are already final) and verify.
    for m in &modules {
        nf_ir::verify::verify_module(m).expect("synthesized module must verify");
    }
    modules
}

/// Synthesizes `n` NF modules that target a device's accelerator menu.
///
/// Each module interleaves a corpus-guided synthetic NF with the catalog
/// reference kernel of one menu variant (round-robin over `menu`), so
/// the generated program both *looks* like the real corpus and embeds a
/// constant `clara_core`-style catalog matching can pin to the device's
/// declared hardware. Unknown menu names are skipped; an effectively
/// empty menu yields plain guided synthesis.
pub fn synth_for_menu(menu: &[&str], n: usize, seed: u64) -> Vec<Module> {
    let variants: Vec<&clara_accel::Variant> = menu
        .iter()
        .filter_map(|name| clara_accel::lookup(name))
        .collect();
    let mut out = synth_corpus(n, true, seed);
    for (i, m) in out.iter_mut().enumerate() {
        let Some(v) = variants.get(i % variants.len().max(1)) else {
            continue;
        };
        // Graft the reference kernel in as a second function: the packet
        // handler stays the synthesized one, but the module now carries
        // the variant's defining constants (and an extra global).
        let mut kernel = clara_accel::reference_module(v);
        let base = GlobalId(m.globals.len() as u32);
        for g in &mut kernel.globals {
            g.id = GlobalId(g.id.0 + base.0);
            g.name = format!("accel_{}", g.name);
        }
        for f in &mut kernel.funcs {
            f.name = format!("accel_{}", f.name);
            for b in &mut f.blocks {
                for inst in &mut b.insts {
                    remap_globals(inst, base);
                }
            }
        }
        m.globals.extend(kernel.globals);
        m.funcs.extend(kernel.funcs);
        m.name = format!("{}_{}", m.name, v.name.replace('-', "_"));
        nf_ir::verify::verify_module(m).expect("menu-targeted module must verify");
    }
    out
}

/// Shifts every global reference in `inst` up by `base` (kernel grafting).
fn remap_globals(inst: &mut Inst, base: GlobalId) {
    let shift = |mem: &mut MemRef| {
        if let MemRef::Global { global, .. } = mem {
            *global = GlobalId(global.0 + base.0);
        }
    };
    match inst {
        Inst::Load { mem, .. } | Inst::Store { mem, .. } => shift(mem),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use click_model::Machine;
    use trafgen::{Trace, WorkloadSpec};

    #[test]
    fn menu_targeted_modules_carry_their_variant_constants() {
        let menu = ["crc64-ecma", "hash-fnv1a"];
        let mods = synth_for_menu(&menu, 4, 11);
        assert_eq!(mods.len(), 4);
        let trace = Trace::generate(&WorkloadSpec::imix(), 5, 3);
        for (i, m) in mods.iter().enumerate() {
            let want = menu[i % menu.len()];
            assert!(m.name.ends_with(&want.replace('-', "_")), "{}", m.name);
            let hits = clara_accel::match_constants(m);
            assert!(
                hits.iter().any(|v| v.name == want),
                "{}: expected {want}, got {:?}",
                m.name,
                hits.iter().map(|v| v.name).collect::<Vec<_>>()
            );
            // Still an executable NF: the grafted kernel never touches
            // the packet path.
            let mut machine = Machine::new(m).expect("verifies");
            for p in &trace.pkts {
                machine.run(p).unwrap_or_else(|e| panic!("{}: {e}", m.name));
            }
        }
        // Unknown names degrade to plain synthesis, not a panic.
        let plain = synth_for_menu(&["no-such-unit"], 2, 11);
        assert_eq!(plain.len(), 2);
    }

    #[test]
    fn profile_measures_real_corpus() {
        let p = CorpusProfile::measure(&click_model::corpus());
        assert!(p.shapes.len() > 30, "shape universe {}", p.shapes.len());
        assert!(p.mean_block_len > 1.0);
        assert!(p.loop_prob > 0.1 && p.loop_prob < 0.9);
    }

    #[test]
    fn generated_modules_verify_and_execute() {
        let mods = synth_corpus(20, true, 7);
        let trace = Trace::generate(&WorkloadSpec::imix(), 10, 1);
        for m in &mods {
            let mut machine = Machine::new(m).expect("verifies");
            for p in &trace.pkts {
                machine.run(p).unwrap_or_else(|e| panic!("{}: {e}", m.name));
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = synth_corpus(3, true, 9);
        let b = synth_corpus(3, true, 9);
        assert_eq!(a, b);
        let c = synth_corpus(3, true, 10);
        assert_ne!(a, c);
    }

    #[test]
    fn guided_matches_corpus_better_than_uniform() {
        use nf_ir::ModuleStats;
        let real: Vec<ModuleStats> = click_model::corpus()
            .iter()
            .map(|e| ModuleStats::of_module(&e.module))
            .collect();
        let mut real_agg = ModuleStats::default();
        for s in &real {
            real_agg.merge(s);
        }

        let agg_of = |mods: &[Module]| {
            let mut agg = ModuleStats::default();
            for m in mods {
                agg.merge(&ModuleStats::of_module(m));
            }
            agg
        };
        let guided = agg_of(&synth_corpus(60, true, 3));
        let baseline = agg_of(&synth_corpus(60, false, 3));

        let universe = ModuleStats::token_universe(&[&real_agg, &guided, &baseline]);
        let rd = real_agg.distribution(&universe);
        let gd = guided.distribution(&universe);
        let bd = baseline.distribution(&universe);
        let g_js = tinyml::dist::jensen_shannon(&rd, &gd);
        let b_js = tinyml::dist::jensen_shannon(&rd, &bd);
        assert!(
            g_js < b_js,
            "guided JS {g_js:.4} should beat baseline {b_js:.4}"
        );
        assert!(g_js < 0.25, "guided JS too high: {g_js:.4}");
    }

    #[test]
    fn generated_programs_vary_in_size() {
        let mods = synth_corpus(30, true, 5);
        let sizes: Vec<usize> = mods.iter().map(|m| m.funcs[0].inst_count()).collect();
        let min = sizes.iter().min().unwrap();
        let max = sizes.iter().max().unwrap();
        assert!(max > min, "sizes should vary: {sizes:?}");
    }
}
