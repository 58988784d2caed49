//! `nfcc`: a vendor-style "closed-source" compiler from NIR to a
//! Netronome-like micro-engine ISA.
//!
//! In the Clara paper, the Netronome NFCC compiler is an opaque black box
//! whose instruction selection and optimization behaviour Clara *learns*
//! rather than models analytically. This crate plays that role: it lowers
//! NIR deliberately **context-sensitively**, so per-block instruction
//! counts are not a 1:1 function of the IR opcodes:
//!
//! - the ALU has a built-in shifter: a shift whose sole consumer is a
//!   following ALU op in the same block **fuses** and costs nothing;
//! - small immediates ride along in the instruction word, 16-bit ones
//!   need one `immed`, 32-bit ones two — and a large constant already
//!   materialized earlier in the block is reused;
//! - there is no multiply unit: `mul` expands to 3–7 `mul_step`s by
//!   width, or a single shift for power-of-two constants;
//! - there is no divide unit: `udiv`/`urem` expand to a long software
//!   sequence unless the divisor is a power of two;
//! - a comparison feeding the block terminator fuses into the branch;
//! - `and x, 0xff/0xffff` immediately after a load is free (the memory
//!   unit extracts bytes);
//! - stack slots are register-allocated: the most-used slots live in
//!   GPRs (their loads/stores vanish), the rest spill to local memory —
//!   a *function-level* effect that individual blocks cannot see.
//!
//! Stateful loads/stores, by contrast, map essentially 1:1 onto memory
//! commands — reproducing the paper's observation that memory-access
//! counting is easy (96.4–100%) while compute-instruction counting needs
//! learning.
//!
//! # Examples
//!
//! ```
//! use nf_ir::{FunctionBuilder, BinOp, Operand, Ty};
//!
//! let mut fb = FunctionBuilder::new("f");
//! let p = fb.param(Ty::I32);
//! let bb = fb.entry_block();
//! fb.switch_to(bb);
//! let s = fb.bin(BinOp::Shl, Ty::I32, p, Operand::imm(2));
//! let a = fb.bin(BinOp::Add, Ty::I32, s, p); // shift fuses into this add
//! fb.ret(Some(a));
//! let f = fb.finish();
//! let nic = nfcc::compile_function(&f);
//! // shl+add fused into one ALU op (+1 for the return branch).
//! assert_eq!(nic.blocks[0].compute_count(), 2);
//! ```

use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;
use std::time::Instant;

use clara_obs as obs;
use nf_ir::{BinOp, CastOp, Function, GlobalId, Inst, MemRef, Module, Operand, Term, Ty, ValueId};
use serde::{Deserialize, Serialize};

/// Lazily registered counter handle (registration takes the registry
/// lock; compiles on the hot path only touch the cached atomic).
fn ctr(cell: &'static OnceLock<obs::Counter>, name: &'static str) -> &'static obs::Counter {
    cell.get_or_init(|| obs::counter(name))
}

fn vctr(cell: &'static OnceLock<obs::Counter>, name: &'static str) -> &'static obs::Counter {
    cell.get_or_init(|| obs::volatile_counter(name))
}

static MODULES: OnceLock<obs::Counter> = OnceLock::new();
static FUNCTIONS: OnceLock<obs::Counter> = OnceLock::new();
static BLOCKS: OnceLock<obs::Counter> = OnceLock::new();
static INSTRUCTIONS: OnceLock<obs::Counter> = OnceLock::new();
static ISSUE_CYCLES: OnceLock<obs::Counter> = OnceLock::new();
static REGALLOC_NS: OnceLock<obs::Counter> = OnceLock::new();
static LOWER_NS: OnceLock<obs::Counter> = OnceLock::new();

/// Number of stack slots that fit in general-purpose registers.
pub const GPR_SLOTS: usize = 10;

/// One lowered micro-engine instruction.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum NicInst {
    /// Single-cycle ALU operation (possibly with a fused shift operand).
    Alu {
        /// Mnemonic for the printer.
        mnem: &'static str,
    },
    /// Stand-alone shift.
    AluShf,
    /// Immediate materialization (16 bits per instruction).
    Immed,
    /// One step of the multiply sequence.
    MulStep,
    /// Branch/jump (conditional or not).
    Branch,
    /// Local-memory access (spilled stack slot).
    LocalMem {
        /// True for stores.
        write: bool,
    },
    /// Memory command to the NIC memory hierarchy.
    MemCmd {
        /// Target global (None = packet data in CTM).
        global: Option<GlobalId>,
        /// Transfer size in 32-bit words.
        words: u8,
        /// True for stores.
        write: bool,
    },
    /// Call into a reverse-ported framework library routine.
    LibCall {
        /// The API name.
        api: String,
    },
    /// Context swap / return.
    Ctx,
}

impl NicInst {
    /// Is this a memory access (local or hierarchy)?
    pub fn is_mem(&self) -> bool {
        matches!(self, NicInst::LocalMem { .. } | NicInst::MemCmd { .. })
    }

    /// Is this a library call (costed via reverse porting)?
    pub fn is_libcall(&self) -> bool {
        matches!(self, NicInst::LibCall { .. })
    }

    /// Printer mnemonic.
    pub fn mnemonic(&self) -> String {
        match self {
            NicInst::Alu { mnem } => format!("alu[{mnem}]"),
            NicInst::AluShf => "alu_shf".into(),
            NicInst::Immed => "immed".into(),
            NicInst::MulStep => "mul_step".into(),
            NicInst::Branch => "br".into(),
            NicInst::LocalMem { write: false } => "local_csr_rd".into(),
            NicInst::LocalMem { write: true } => "local_csr_wr".into(),
            NicInst::MemCmd {
                global,
                words,
                write,
            } => {
                let dir = if *write { "write" } else { "read" };
                match global {
                    Some(g) => format!("mem[{dir}, @{}, {words}w]", g.0),
                    None => format!("ctm[{dir}_pkt, {words}w]"),
                }
            }
            NicInst::LibCall { api } => format!("call[{api}]"),
            NicInst::Ctx => "ctx_arb".into(),
        }
    }
}

/// Maps a serialized ALU mnemonic back onto the `&'static str` the
/// lowerer would have produced. The lowerer only ever emits [`BinOp`]
/// names plus this fixed synthetic set, so interning is total over valid
/// inputs; anything else is a corrupt artifact.
fn intern_mnem(s: &str) -> Option<&'static str> {
    if let Some(op) = BinOp::from_name(s) {
        return Some(op.name());
    }
    [
        "div_step", "test", "pred", "mov", "cmov_t", "cmov_f", "addr", "arg",
    ]
    .into_iter()
    .find(|&m| m == s)
}

// Hand-written: the derive cannot conjure the `&'static str` mnemonic,
// which must be re-interned against the lowerer's fixed vocabulary.
// Mirrors the derived `Serialize` shape exactly (unit variants as a bare
// string, struct variants as a single-key map of named fields).
impl Deserialize for NicInst {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let (name, payload) = serde::variant(v)?;
        match name {
            "Alu" => {
                let mnem: String = serde::from_field(payload, "mnem")?;
                let mnem = intern_mnem(&mnem)
                    .ok_or_else(|| serde::Error(format!("unknown ALU mnemonic `{mnem}`")))?;
                Ok(NicInst::Alu { mnem })
            }
            "AluShf" => Ok(NicInst::AluShf),
            "Immed" => Ok(NicInst::Immed),
            "MulStep" => Ok(NicInst::MulStep),
            "Branch" => Ok(NicInst::Branch),
            "LocalMem" => Ok(NicInst::LocalMem {
                write: serde::from_field(payload, "write")?,
            }),
            "MemCmd" => Ok(NicInst::MemCmd {
                global: serde::from_field(payload, "global")?,
                words: serde::from_field(payload, "words")?,
                write: serde::from_field(payload, "write")?,
            }),
            "LibCall" => Ok(NicInst::LibCall {
                api: serde::from_field(payload, "api")?,
            }),
            "Ctx" => Ok(NicInst::Ctx),
            other => Err(serde::Error(format!(
                "unknown variant `{other}` for NicInst"
            ))),
        }
    }
}

/// One lowered basic block.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct NicBlock {
    /// Lowered instructions in order.
    pub insts: Vec<NicInst>,
}

impl NicBlock {
    /// Compute (non-memory, non-libcall) instruction count — the quantity
    /// Clara's LSTM predicts per block.
    pub fn compute_count(&self) -> u32 {
        self.insts
            .iter()
            .filter(|i| !i.is_mem() && !i.is_libcall())
            .count() as u32
    }

    /// Memory instruction count (hierarchy + local memory).
    pub fn mem_count(&self) -> u32 {
        self.insts.iter().filter(|i| i.is_mem()).count() as u32
    }

    /// Hierarchy memory commands only (stateful + packet accesses).
    pub fn mem_cmd_count(&self) -> u32 {
        self.insts
            .iter()
            .filter(|i| matches!(i, NicInst::MemCmd { .. }))
            .count() as u32
    }

    /// Total cycles to issue this block (1 per instruction; memory
    /// *latency* is the simulator's concern).
    pub fn issue_cycles(&self) -> u32 {
        self.insts.len() as u32
    }
}

/// A compiled function.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NicFunction {
    /// Source function name.
    pub name: String,
    /// One lowered block per source block (same indices).
    pub blocks: Vec<NicBlock>,
    /// Stack slots that were register-allocated (loads/stores free).
    pub reg_slots: Vec<u32>,
}

impl NicFunction {
    /// Total compute instructions over all blocks.
    pub fn total_compute(&self) -> u32 {
        self.blocks.iter().map(NicBlock::compute_count).sum()
    }
}

/// A compiled module.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NicModule {
    /// Module name.
    pub name: String,
    /// Compiled functions (same order as the source module).
    pub funcs: Vec<NicFunction>,
}

impl NicModule {
    /// The compiled packet handler (first function).
    pub fn handler(&self) -> &NicFunction {
        &self.funcs[0]
    }
}

/// Compiles a whole module.
///
/// Compilation is a pure function of the module: no global state is read
/// or written, so concurrent calls from multiple threads are safe and
/// identical inputs always produce identical output. `clara-core`'s
/// evaluation engine relies on both properties to memoize compiles
/// across threads.
pub fn compile_module(module: &Module) -> NicModule {
    let _span = obs::span!("nfcc-compile", "module={}", module.name);
    ctr(&MODULES, "nfcc.modules_compiled").incr();
    NicModule {
        name: module.name.clone(),
        funcs: module.funcs.iter().map(compile_function).collect(),
    }
}

/// Compiles a module into a shareable handle, the entry point used by
/// parallel callers that fan one compile out to many consumers.
pub fn compile_module_shared(module: &Module) -> std::sync::Arc<NicModule> {
    std::sync::Arc::new(compile_module(module))
}

// The engine moves compiled modules across worker threads; keep the
// output type thread-safe by construction.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<NicModule>();
};

/// Compiles one function.
pub fn compile_function(func: &Function) -> NicFunction {
    ctr(&FUNCTIONS, "nfcc.functions_compiled").incr();
    // Per-phase wall clock is volatile telemetry: only measured with a
    // report sink active, and excluded from deterministic reports.
    let timed = obs::enabled();
    let t0 = timed.then(Instant::now);
    // Register allocation: rank stack slots by static use count; the top
    // GPR_SLOTS live in registers, the rest spill to local memory.
    let mut slot_uses: HashMap<u32, u32> = HashMap::new();
    for b in &func.blocks {
        for inst in &b.insts {
            if let Inst::Load {
                mem: MemRef::Stack { slot },
                ..
            }
            | Inst::Store {
                mem: MemRef::Stack { slot },
                ..
            } = inst
            {
                *slot_uses.entry(*slot).or_insert(0) += 1;
            }
        }
    }
    let mut ranked: Vec<(u32, u32)> = slot_uses.into_iter().collect();
    ranked.sort_by_key(|&(slot, uses)| (std::cmp::Reverse(uses), slot));
    let reg_slots: Vec<u32> = ranked
        .iter()
        .take(GPR_SLOTS)
        .map(|&(slot, _)| slot)
        .collect();
    let reg_set: HashSet<u32> = reg_slots.iter().copied().collect();

    // Single-use analysis for shift fusion (within the whole function;
    // fusion itself requires same-block adjacency of definition chains).
    let mut use_counts: HashMap<ValueId, u32> = HashMap::new();
    let count_op = |op: Operand, uses: &mut HashMap<ValueId, u32>| {
        if let Operand::Value(v) = op {
            *uses.entry(v).or_insert(0) += 1;
        }
    };
    for b in &func.blocks {
        for inst in &b.insts {
            for op in inst.operands() {
                count_op(op, &mut use_counts);
            }
        }
        match &b.term {
            Term::CondBr { cond, .. } => count_op(*cond, &mut use_counts),
            Term::Ret { val: Some(v) } => count_op(*v, &mut use_counts),
            _ => {}
        }
    }

    let t1 = timed.then(Instant::now);
    let blocks: Vec<NicBlock> = func
        .blocks
        .iter()
        .map(|b| lower_block(b, &reg_set, &use_counts))
        .collect();
    if let (Some(t0), Some(t1)) = (t0, t1) {
        vctr(&REGALLOC_NS, "nfcc.phase.regalloc_ns").add((t1 - t0).as_nanos() as u64);
        vctr(&LOWER_NS, "nfcc.phase.lower_ns").add(t1.elapsed().as_nanos() as u64);
    }
    ctr(&BLOCKS, "nfcc.blocks_lowered").add(blocks.len() as u64);
    ctr(&INSTRUCTIONS, "nfcc.instructions").add(blocks.iter().map(|b| b.insts.len() as u64).sum());
    ctr(&ISSUE_CYCLES, "nfcc.issue_cycles")
        .add(blocks.iter().map(|b| u64::from(b.issue_cycles())).sum());
    NicFunction {
        name: func.name.clone(),
        blocks,
        reg_slots,
    }
}

fn imm_cost(c: i64, materialized: &mut HashSet<i64>) -> u32 {
    let mag = c.unsigned_abs();
    // Small immediates ride in the instruction word; larger ones are free
    // when already materialized earlier in the block.
    if (c >= 0 && mag < 256) || materialized.contains(&c) {
        0
    } else {
        materialized.insert(c);
        if mag < 65536 {
            1
        } else {
            2
        }
    }
}

fn is_pow2(c: i64) -> bool {
    c > 0 && (c & (c - 1)) == 0
}

fn lower_block(
    block: &nf_ir::Block,
    reg_slots: &HashSet<u32>,
    use_counts: &HashMap<ValueId, u32>,
) -> NicBlock {
    let mut out = NicBlock::default();
    // Values produced by a shift in this block that are fusable (single
    // use) and not yet consumed.
    let mut pending_shift: HashSet<ValueId> = HashSet::new();
    // Values produced by loads (for the free byte-mask peephole).
    let mut loaded: HashSet<ValueId> = HashSet::new();
    // Large constants materialized so far in this block.
    let mut materialized: HashSet<i64> = HashSet::new();
    // The icmp result feeding the terminator, if it can fuse.
    let fused_cmp: Option<ValueId> = match &block.term {
        Term::CondBr {
            cond: Operand::Value(v),
            ..
        } if use_counts.get(v) == Some(&1) => {
            // Fusable only if the icmp is the last instruction of the block.
            match block.insts.last() {
                Some(Inst::Icmp { dst, .. }) if dst == v => Some(*v),
                _ => None,
            }
        }
        _ => None,
    };

    let emit = |out: &mut NicBlock, inst: NicInst| out.insts.push(inst);
    let emit_imm = |out: &mut NicBlock, op: Operand, mat: &mut HashSet<i64>| {
        if let Operand::Const(c) = op {
            for _ in 0..imm_cost(c, mat) {
                out.insts.push(NicInst::Immed);
            }
        }
    };

    for inst in &block.insts {
        match inst {
            Inst::Bin {
                dst,
                op,
                ty,
                lhs,
                rhs,
            } => {
                match op {
                    BinOp::Shl | BinOp::LShr | BinOp::AShr => {
                        emit_imm(&mut out, *lhs, &mut materialized);
                        // A single-use shift fuses into a later ALU op in
                        // this block: emit nothing now, remember it.
                        let single_use = use_counts.get(dst) == Some(&1);
                        if single_use && matches!(rhs, Operand::Const(_)) {
                            pending_shift.insert(*dst);
                        } else {
                            emit_imm(&mut out, *rhs, &mut materialized);
                            emit(&mut out, NicInst::AluShf);
                        }
                    }
                    BinOp::Mul => {
                        emit_imm(&mut out, *lhs, &mut materialized);
                        match rhs {
                            Operand::Const(c) if is_pow2(*c) => {
                                emit(&mut out, NicInst::AluShf);
                            }
                            _ => {
                                emit_imm(&mut out, *rhs, &mut materialized);
                                let steps = match ty {
                                    Ty::I1 | Ty::I8 | Ty::I16 => 3,
                                    Ty::I32 => 4,
                                    Ty::I64 => 7,
                                };
                                for _ in 0..steps {
                                    emit(&mut out, NicInst::MulStep);
                                }
                            }
                        }
                    }
                    BinOp::UDiv | BinOp::URem => match rhs {
                        Operand::Const(c) if is_pow2(*c) => {
                            emit(&mut out, NicInst::AluShf);
                        }
                        _ => {
                            // Software divide loop.
                            let n = match ty {
                                Ty::I1 | Ty::I8 => 18,
                                Ty::I16 => 24,
                                Ty::I32 => 36,
                                Ty::I64 => 68,
                            };
                            for i in 0..n {
                                emit(
                                    &mut out,
                                    if i % 3 == 2 {
                                        NicInst::Branch
                                    } else {
                                        NicInst::Alu { mnem: "div_step" }
                                    },
                                );
                            }
                        }
                    },
                    BinOp::Add | BinOp::Sub | BinOp::And | BinOp::Or | BinOp::Xor => {
                        // Free byte-extract: `and x, 0xff/0xffff` right
                        // after loading x — the memory unit masks.
                        if *op == BinOp::And {
                            if let (Operand::Value(v), Operand::Const(c)) = (lhs, rhs) {
                                if loaded.contains(v) && (*c == 0xff || *c == 0xffff) {
                                    continue;
                                }
                            }
                        }
                        // Consume at most one pending shift for free.
                        let mut fused = false;
                        for side in [lhs, rhs] {
                            if let Operand::Value(v) = side {
                                if !fused && pending_shift.remove(v) {
                                    fused = true;
                                }
                            }
                        }
                        emit_imm(&mut out, *lhs, &mut materialized);
                        emit_imm(&mut out, *rhs, &mut materialized);
                        emit(&mut out, NicInst::Alu { mnem: op.name() });
                    }
                }
            }
            Inst::Icmp { dst, lhs, rhs, .. } => {
                emit_imm(&mut out, *lhs, &mut materialized);
                emit_imm(&mut out, *rhs, &mut materialized);
                if fused_cmp == Some(*dst) {
                    // Fuses with the terminator branch: one test ALU op.
                    emit(&mut out, NicInst::Alu { mnem: "test" });
                } else {
                    // Materialize the predicate into a register.
                    emit(&mut out, NicInst::Alu { mnem: "test" });
                    emit(&mut out, NicInst::Alu { mnem: "pred" });
                }
            }
            Inst::Cast {
                dst: _,
                op,
                from,
                to,
                ..
            } => {
                let wide = *from == Ty::I64 || *to == Ty::I64;
                match op {
                    CastOp::Zext | CastOp::Trunc => {
                        if wide {
                            emit(&mut out, NicInst::Alu { mnem: "mov" });
                        }
                        // 32-bit-register machine: narrow casts are free.
                    }
                    CastOp::Sext => {
                        // Shift-left/shift-right pair; 64-bit adds a move.
                        emit(&mut out, NicInst::AluShf);
                        emit(&mut out, NicInst::AluShf);
                        if wide {
                            emit(&mut out, NicInst::Alu { mnem: "mov" });
                        }
                    }
                }
            }
            Inst::Select { .. } => {
                emit(&mut out, NicInst::Alu { mnem: "cmov_t" });
                emit(&mut out, NicInst::Alu { mnem: "cmov_f" });
            }
            Inst::Phi { incomings, .. } => {
                // Resolved to a move at each predecessor; charge one here.
                let _ = incomings;
                emit(&mut out, NicInst::Alu { mnem: "mov" });
            }
            Inst::Load { dst, ty, mem } => match mem {
                MemRef::Stack { slot } => {
                    if !reg_slots.contains(slot) {
                        emit(&mut out, NicInst::LocalMem { write: false });
                    }
                    loaded.insert(*dst);
                }
                MemRef::Global { global, index, .. } => {
                    if index.is_some() {
                        emit(&mut out, NicInst::Alu { mnem: "addr" });
                    }
                    emit(
                        &mut out,
                        NicInst::MemCmd {
                            global: Some(*global),
                            words: ty.bytes().div_ceil(4) as u8,
                            write: false,
                        },
                    );
                    loaded.insert(*dst);
                }
                MemRef::Pkt { field } => {
                    if let nf_ir::PktField::Payload(off) = field {
                        if *off > 255 {
                            emit(&mut out, NicInst::Immed);
                        }
                    }
                    emit(
                        &mut out,
                        NicInst::MemCmd {
                            global: None,
                            words: ty.bytes().div_ceil(4) as u8,
                            write: false,
                        },
                    );
                    loaded.insert(*dst);
                }
            },
            Inst::Store { ty, val, mem } => {
                emit_imm(&mut out, *val, &mut materialized);
                match mem {
                    MemRef::Stack { slot } => {
                        if !reg_slots.contains(slot) {
                            emit(&mut out, NicInst::LocalMem { write: true });
                        }
                    }
                    MemRef::Global { global, index, .. } => {
                        if index.is_some() {
                            emit(&mut out, NicInst::Alu { mnem: "addr" });
                        }
                        emit(
                            &mut out,
                            NicInst::MemCmd {
                                global: Some(*global),
                                words: ty.bytes().div_ceil(4) as u8,
                                write: true,
                            },
                        );
                    }
                    MemRef::Pkt { field } => {
                        if let nf_ir::PktField::Payload(off) = field {
                            if *off > 255 {
                                emit(&mut out, NicInst::Immed);
                            }
                        }
                        emit(
                            &mut out,
                            NicInst::MemCmd {
                                global: None,
                                words: ty.bytes().div_ceil(4) as u8,
                                write: true,
                            },
                        );
                    }
                }
            }
            Inst::Call { api, args, .. } => {
                // Argument marshalling plus the library call itself; the
                // callee's cost comes from the reverse-ported profile.
                for a in args {
                    emit_imm(&mut out, *a, &mut materialized);
                }
                emit(&mut out, NicInst::Alu { mnem: "arg" });
                emit(
                    &mut out,
                    NicInst::LibCall {
                        api: api.name().to_string(),
                    },
                );
            }
        }
    }

    match &block.term {
        Term::Br { .. } => emit(&mut out, NicInst::Branch),
        Term::CondBr { cond, .. } => {
            match cond {
                Operand::Value(v) if fused_cmp == Some(*v) => {
                    emit(&mut out, NicInst::Branch); // Fused test+branch.
                }
                _ => {
                    emit(&mut out, NicInst::Alu { mnem: "test" });
                    emit(&mut out, NicInst::Branch);
                }
            }
        }
        Term::Ret { .. } => emit(&mut out, NicInst::Ctx),
    }
    out
}

/// Renders a compiled function as assembly text.
pub fn print_asm(func: &NicFunction) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, ".func {}  ; reg_slots={:?}", func.name, func.reg_slots);
    for (i, b) in func.blocks.iter().enumerate() {
        let _ = writeln!(
            s,
            ".bb{}:  ; compute={} mem={}",
            i,
            b.compute_count(),
            b.mem_count()
        );
        for inst in &b.insts {
            let _ = writeln!(s, "    {}", inst.mnemonic());
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf_ir::{ApiCall, FunctionBuilder, Pred, StateKind};

    fn single_block(build: impl FnOnce(&mut FunctionBuilder)) -> NicBlock {
        let mut fb = FunctionBuilder::new("t");
        let bb = fb.entry_block();
        fb.switch_to(bb);
        build(&mut fb);
        fb.ret(None);
        let f = fb.finish();
        compile_function(&f).blocks.into_iter().next().unwrap()
    }

    #[test]
    fn shift_fuses_into_single_use_alu_consumer() {
        // shl (single use) + add → 1 ALU (+1 ctx for ret).
        let fused = single_block(|fb| {
            let p = fb.param(Ty::I32);
            let s = fb.bin(BinOp::Shl, Ty::I32, p, Operand::imm(2));
            let _ = fb.bin(BinOp::Add, Ty::I32, s, p);
        });
        assert_eq!(fused.compute_count(), 2);

        // Same shift used twice → no fusion: alu_shf + 2 adds + ctx = 4.
        let unfused = single_block(|fb| {
            let p = fb.param(Ty::I32);
            let s = fb.bin(BinOp::Shl, Ty::I32, p, Operand::imm(2));
            let a = fb.bin(BinOp::Add, Ty::I32, s, p);
            let _ = fb.bin(BinOp::Add, Ty::I32, s, a);
        });
        assert_eq!(unfused.compute_count(), 4);
    }

    #[test]
    fn immediates_cost_by_magnitude_and_dedup() {
        let small = single_block(|fb| {
            let p = fb.param(Ty::I32);
            let _ = fb.bin(BinOp::Add, Ty::I32, p, Operand::imm(7));
        });
        assert_eq!(small.compute_count(), 2); // alu + ctx

        let big = single_block(|fb| {
            let p = fb.param(Ty::I32);
            let _ = fb.bin(BinOp::Add, Ty::I32, p, Operand::imm(0x12345678));
        });
        assert_eq!(big.compute_count(), 4); // 2 immed + alu + ctx

        // The same 32-bit constant twice is materialized once.
        let dedup = single_block(|fb| {
            let p = fb.param(Ty::I32);
            let a = fb.bin(BinOp::Add, Ty::I32, p, Operand::imm(0x12345678));
            let _ = fb.bin(BinOp::Xor, Ty::I32, a, Operand::imm(0x12345678));
        });
        assert_eq!(dedup.compute_count(), 5); // 2 immed + 2 alu + ctx
    }

    #[test]
    fn multiply_expands_by_width() {
        let m16 = single_block(|fb| {
            let p = fb.param(Ty::I16);
            let q = fb.param(Ty::I16);
            let _ = fb.bin(BinOp::Mul, Ty::I16, p, q);
        });
        assert_eq!(m16.compute_count(), 3 + 1);

        let m32 = single_block(|fb| {
            let p = fb.param(Ty::I32);
            let q = fb.param(Ty::I32);
            let _ = fb.bin(BinOp::Mul, Ty::I32, p, q);
        });
        assert_eq!(m32.compute_count(), 4 + 1);

        // Power-of-two multiply is a shift.
        let pow2 = single_block(|fb| {
            let p = fb.param(Ty::I32);
            let _ = fb.bin(BinOp::Mul, Ty::I32, p, Operand::imm(8));
        });
        assert_eq!(pow2.compute_count(), 1 + 1);
    }

    #[test]
    fn divide_is_expensive_software() {
        let d = single_block(|fb| {
            let p = fb.param(Ty::I32);
            let q = fb.param(Ty::I32);
            let _ = fb.bin(BinOp::UDiv, Ty::I32, p, q);
        });
        assert!(d.compute_count() >= 36, "{}", d.compute_count());
        let dp = single_block(|fb| {
            let p = fb.param(Ty::I32);
            let _ = fb.bin(BinOp::UDiv, Ty::I32, p, Operand::imm(16));
        });
        assert_eq!(dp.compute_count(), 2);
    }

    #[test]
    fn cmp_branch_fusion_depends_on_position() {
        // icmp directly feeding condbr as last inst → fused.
        let mut fb = FunctionBuilder::new("f");
        let p = fb.param(Ty::I32);
        let e = fb.entry_block();
        let a = fb.block();
        let b = fb.block();
        fb.switch_to(e);
        let c = fb.icmp(Pred::ULt, Ty::I32, p, Operand::imm(10));
        fb.cond_br(c, a, b);
        fb.switch_to(a);
        fb.ret(None);
        fb.switch_to(b);
        fb.ret(None);
        let f = fb.finish();
        let nic = compile_function(&f);
        // test + branch = 2.
        assert_eq!(nic.blocks[0].compute_count(), 2);

        // icmp separated from the terminator by another inst → not fused.
        let mut fb = FunctionBuilder::new("g");
        let p = fb.param(Ty::I32);
        let e = fb.entry_block();
        let a = fb.block();
        let b = fb.block();
        fb.switch_to(e);
        let c = fb.icmp(Pred::ULt, Ty::I32, p, Operand::imm(10));
        let _ = fb.bin(BinOp::Add, Ty::I32, p, Operand::imm(1));
        fb.cond_br(c, a, b);
        fb.switch_to(a);
        fb.ret(None);
        fb.switch_to(b);
        fb.ret(None);
        let f = fb.finish();
        let nic = compile_function(&f);
        // test+pred (2) + add (1) + test+branch (2) = 5.
        assert_eq!(nic.blocks[0].compute_count(), 5);
    }

    #[test]
    fn register_allocation_spills_cold_slots() {
        // 12 slots: the 10 hottest are registers, 2 spill to local memory.
        let mut fb = FunctionBuilder::new("s");
        let p = fb.param(Ty::I32);
        let bb = fb.entry_block();
        fb.switch_to(bb);
        let slots: Vec<u32> = (0..12).map(|_| fb.slot()).collect();
        // Slots 0 and 1 are used once; others used twice (hotter).
        for (i, &s) in slots.iter().enumerate() {
            fb.store(Ty::I32, p, MemRef::stack(s));
            if i >= 2 {
                let _ = fb.load(Ty::I32, MemRef::stack(s));
            }
        }
        fb.ret(None);
        let f = fb.finish();
        let nic = compile_function(&f);
        assert_eq!(nic.reg_slots.len(), GPR_SLOTS);
        assert!(!nic.reg_slots.contains(&0));
        assert!(!nic.reg_slots.contains(&1));
        // Exactly the two cold stores hit local memory.
        assert_eq!(nic.blocks[0].mem_count(), 2);
    }

    #[test]
    fn stateful_accesses_map_one_to_one() {
        let mut m = Module::new("m");
        let g = m.add_global("tbl", StateKind::Array, 4, 64);
        let mut fb = FunctionBuilder::new("f");
        let p = fb.param(Ty::I32);
        let bb = fb.entry_block();
        fb.switch_to(bb);
        let v = fb.load(Ty::I32, MemRef::global_at(g, p, 0));
        let w = fb.bin(BinOp::Add, Ty::I32, v, Operand::imm(1));
        fb.store(Ty::I32, w, MemRef::global_at(g, p, 0));
        fb.ret(None);
        m.funcs.push(fb.finish());
        let nic = compile_module(&m);
        // Exactly 2 memory commands for the 2 IR stateful accesses.
        assert_eq!(nic.handler().blocks[0].mem_cmd_count(), 2);
    }

    #[test]
    fn byte_mask_after_load_is_free() {
        let mut m = Module::new("m");
        let g = m.add_global("tbl", StateKind::Scalar, 4, 1);
        let mut fb = FunctionBuilder::new("f");
        let bb = fb.entry_block();
        fb.switch_to(bb);
        let v = fb.load(Ty::I32, MemRef::global(g));
        let _ = fb.bin(BinOp::And, Ty::I32, v, Operand::imm(0xff));
        fb.ret(None);
        m.funcs.push(fb.finish());
        let nic = compile_module(&m);
        // Only the ctx (ret): the mask vanished into the memory command.
        assert_eq!(nic.handler().blocks[0].compute_count(), 1);
    }

    #[test]
    fn api_calls_become_libcalls() {
        let b = single_block(|fb| {
            let _ = fb.call(ApiCall::ChecksumUpdate, vec![]);
        });
        assert_eq!(b.insts.iter().filter(|i| i.is_libcall()).count(), 1);
    }

    #[test]
    fn compilation_is_deterministic() {
        let e = {
            let mut fb = FunctionBuilder::new("d");
            let p = fb.param(Ty::I32);
            let bb = fb.entry_block();
            fb.switch_to(bb);
            let s = fb.bin(BinOp::Shl, Ty::I32, p, Operand::imm(3));
            let x = fb.bin(BinOp::Xor, Ty::I32, s, Operand::imm(0xdead));
            fb.ret(Some(x));
            fb.finish()
        };
        let a = compile_function(&e);
        let b = compile_function(&e);
        assert_eq!(a.blocks[0].insts, b.blocks[0].insts);
    }

    #[test]
    fn asm_printer_includes_counts() {
        let b = {
            let mut fb = FunctionBuilder::new("p");
            let q = fb.param(Ty::I32);
            let bb = fb.entry_block();
            fb.switch_to(bb);
            let _ = fb.bin(BinOp::Add, Ty::I32, q, Operand::imm(1));
            fb.ret(None);
            fb.finish()
        };
        let nic = compile_function(&b);
        let asm = print_asm(&nic);
        assert!(asm.contains(".func p"));
        assert!(asm.contains("alu[add]"));
        assert!(asm.contains("compute=2"));
    }

    #[test]
    fn nic_module_serde_round_trip_is_lossless() {
        let module = NicModule {
            name: "rt".into(),
            funcs: vec![NicFunction {
                name: "f".into(),
                reg_slots: vec![0, 3],
                blocks: vec![NicBlock {
                    insts: vec![
                        NicInst::Alu { mnem: "add" },
                        NicInst::Alu { mnem: "cmov_t" },
                        NicInst::AluShf,
                        NicInst::Immed,
                        NicInst::MulStep,
                        NicInst::Branch,
                        NicInst::LocalMem { write: true },
                        NicInst::MemCmd {
                            global: Some(GlobalId(4)),
                            words: 2,
                            write: false,
                        },
                        NicInst::MemCmd {
                            global: None,
                            words: 1,
                            write: true,
                        },
                        NicInst::LibCall {
                            api: "map_lookup".into(),
                        },
                        NicInst::Ctx,
                    ],
                }],
            }],
        };
        let json = serde_json::to_string(&module).unwrap();
        let back: NicModule = serde_json::from_str(&json).unwrap();
        assert_eq!(
            back.funcs[0].blocks[0].insts,
            module.funcs[0].blocks[0].insts
        );
        assert_eq!(back.name, module.name);
        assert_eq!(back.funcs[0].reg_slots, module.funcs[0].reg_slots);
        // Re-serializing reproduces the exact bytes (intern preserved).
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    #[test]
    fn nic_inst_deserialize_rejects_unknown_mnemonic() {
        let bad = r#"{"Alu":{"mnem":"frobnicate"}}"#;
        assert!(serde_json::from_str::<NicInst>(bad).is_err());
    }
}
