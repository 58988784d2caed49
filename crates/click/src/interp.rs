//! The NIR interpreter: executes an NF module against packets.
//!
//! One interpreter serves every element of the corpus, so the execution
//! traces used for workload profiling (Sections 4.3–4.4 of the paper) are
//! derived from exactly the same IR that Clara's static analyses see.

use nf_ir::{verify, ApiCall, BlockId, Function, Inst, MemRef, Module, Operand, Term, Ty, ValueId};
use trafgen::Packet;

use crate::exec::{ApiEvent, Event, EventSink, ExecTrace, TraceError};
use crate::packet::{PacketView, Verdict};
use crate::state::StateStore;

/// Default per-packet interpreted-instruction budget.
pub const DEFAULT_STEP_LIMIT: u64 = 200_000;

/// Seed of every machine's deterministic RNG stream (shared with the
/// reference executor so `random()` results line up across layers).
pub(crate) const RNG_SEED: u64 = 0x1234_5678_9abc_def0;

/// An interpreter instance holding an NF's persistent state.
#[derive(Debug, Clone)]
pub struct Machine {
    module: Module,
    /// Persistent stateful storage (cross-packet).
    pub state: StateStore,
    step_limit: u64,
    timestamp: u64,
    rng_state: u64,
    scratch: Scratch,
}

/// Per-packet working storage, cleared (not freed) between packets so the
/// steady-state interpreter loop allocates nothing of its own.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// SSA values by `ValueId` (`None` = not yet defined this packet).
    env: Vec<Option<u64>>,
    /// Stack slots by slot number.
    slots: Vec<u64>,
    /// A block's phi results, committed after all of them are read.
    phis: Vec<(ValueId, u64)>,
    /// Evaluated arguments of the current API call.
    args: Vec<u64>,
    /// Event count of the previous recorded packet: the next recording's
    /// capacity.
    events_hint: usize,
}

pub(crate) fn mask(v: u64, ty: Ty) -> u64 {
    match ty {
        Ty::I1 => v & 1,
        Ty::I8 => v & 0xff,
        Ty::I16 => v & 0xffff,
        Ty::I32 => v & 0xffff_ffff,
        Ty::I64 => v,
    }
}

impl Machine {
    /// Builds an interpreter for a module (verifying it first).
    ///
    /// The packet handler is the module's first function.
    pub fn new(module: &Module) -> Result<Machine, verify::VerifyError> {
        verify::verify_module(module)?;
        Ok(Machine {
            state: StateStore::new(module),
            module: module.clone(),
            step_limit: DEFAULT_STEP_LIMIT,
            timestamp: 0,
            rng_state: RNG_SEED,
            scratch: Scratch::default(),
        })
    }

    /// Overrides the per-packet step limit.
    pub fn with_step_limit(mut self, limit: u64) -> Machine {
        self.step_limit = limit;
        self
    }

    /// Resets all persistent state (and the element clock).
    pub fn reset(&mut self) {
        self.state.reset();
        self.timestamp = 0;
        self.rng_state = RNG_SEED;
    }

    /// The module being interpreted.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// Processes one packet, returning the execution trace.
    pub fn run(&mut self, pkt: &Packet) -> Result<ExecTrace, TraceError> {
        let mut view = PacketView::new(pkt);
        self.run_view(&mut view).map(|(trace, _)| trace)
    }

    /// Processes one packet view, returning the trace and the verdict.
    pub fn run_view(
        &mut self,
        view: &mut PacketView,
    ) -> Result<(ExecTrace, Option<Verdict>), TraceError> {
        let mut trace = ExecTrace {
            events: Vec::with_capacity(self.scratch.events_hint),
            ..ExecTrace::default()
        };
        let verdict = self.run_into(view, &mut trace)?;
        self.scratch.events_hint = trace.events.len();
        Ok((trace, verdict))
    }

    /// Processes one packet view, handing each event to `sink` as it
    /// happens, and returns the verdict. [`Machine::run_view`] is this
    /// with an [`ExecTrace`] as the sink.
    pub fn run_into<S: EventSink>(
        &mut self,
        view: &mut PacketView,
        sink: &mut S,
    ) -> Result<Option<Verdict>, TraceError> {
        self.timestamp += 1;
        let func: &Function = self
            .module
            .funcs
            .first()
            .expect("verified module has a handler");
        exec(
            func,
            &mut self.state,
            view,
            self.step_limit,
            &mut self.timestamp,
            &mut self.rng_state,
            &mut self.scratch,
            sink,
        )?;
        Ok(view.verdict)
    }
}

/// Executes `func` against one packet view, reusing `scratch`'s buffers
/// and handing each event to `sink`.
#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
fn exec<S: EventSink>(
    func: &Function,
    state: &mut StateStore,
    view: &mut PacketView,
    step_limit: u64,
    timestamp: &mut u64,
    rng_state: &mut u64,
    scratch: &mut Scratch,
    sink: &mut S,
) -> Result<(), TraceError> {
    let Scratch {
        env,
        slots,
        phis,
        args,
        ..
    } = scratch;
    env.clear();
    env.resize(func.next_value as usize, None);
    for (p, _) in &func.params {
        env[p.index()] = Some(0);
    }
    slots.clear();
    slots.resize(func.next_slot as usize, 0);
    let mut steps = 0u64;
    let mut cur = BlockId(0);
    let mut prev: Option<BlockId> = None;

    loop {
        let block = func
            .blocks
            .get(cur.index())
            .ok_or(TraceError::BadBlock { block: cur.0 })?;
        sink.event(Event::Block(cur));

        // Phase 1: evaluate phis atomically against the predecessor.
        phis.clear();
        for inst in &block.insts {
            if let Inst::Phi { dst, ty, incomings } = inst {
                let from = prev.unwrap_or(BlockId(0));
                let val = incomings
                    .iter()
                    .find(|(bb, _)| *bb == from)
                    .map(|(_, op)| read_op(env, *op))
                    .transpose()?
                    .unwrap_or(0);
                phis.push((*dst, mask(val, *ty)));
            }
        }
        for &(dst, v) in phis.iter() {
            env[dst.index()] = Some(v);
        }

        for inst in &block.insts {
            steps += 1;
            if steps > step_limit {
                return Err(TraceError::StepLimit { limit: step_limit });
            }
            match inst {
                Inst::Phi { .. } => {} // Handled above.
                // ALU semantics (masking, wraparound, the type-width
                // shift rule) are defined once in `nf_ir::opt`;
                // constant folding and the reference executor use the
                // same functions, so the difftest layers cannot drift.
                Inst::Bin {
                    dst,
                    op,
                    ty,
                    lhs,
                    rhs,
                } => {
                    let a = read_op(env, *lhs)?;
                    let b = read_op(env, *rhs)?;
                    env[dst.index()] = Some(nf_ir::opt::eval_bin(*op, *ty, a, b));
                }
                Inst::Icmp {
                    dst,
                    pred,
                    ty,
                    lhs,
                    rhs,
                } => {
                    let a = read_op(env, *lhs)?;
                    let b = read_op(env, *rhs)?;
                    env[dst.index()] = Some(u64::from(nf_ir::opt::eval_icmp(*pred, *ty, a, b)));
                }
                Inst::Cast {
                    dst,
                    op,
                    from,
                    to,
                    src,
                } => {
                    let v = read_op(env, *src)?;
                    env[dst.index()] = Some(nf_ir::opt::eval_cast(*op, *from, *to, v));
                }
                Inst::Select {
                    dst,
                    ty,
                    cond,
                    on_true,
                    on_false,
                } => {
                    let c = read_op(env, *cond)? & 1;
                    let v = if c != 0 {
                        read_op(env, *on_true)?
                    } else {
                        read_op(env, *on_false)?
                    };
                    env[dst.index()] = Some(mask(v, *ty));
                }
                Inst::Load { dst, ty, mem } => {
                    let v = do_load(state, env, slots, view, mem, *ty, sink)?;
                    env[dst.index()] = Some(mask(v, *ty));
                }
                Inst::Store { ty, val, mem } => {
                    let v = mask(read_op(env, *val)?, *ty);
                    do_store(state, env, slots, view, mem, *ty, v, sink)?;
                }
                Inst::Call {
                    dst,
                    api,
                    args: operands,
                } => {
                    args.clear();
                    for a in operands {
                        args.push(read_op(env, *a)?);
                    }
                    let r = do_call(state, api, args, view, sink, timestamp, rng_state)?;
                    if let Some(d) = dst {
                        env[d.index()] = Some(r);
                    }
                }
            }
        }

        steps += 1;
        if steps > step_limit {
            return Err(TraceError::StepLimit { limit: step_limit });
        }
        match &block.term {
            Term::Br { target } => {
                prev = Some(cur);
                cur = *target;
            }
            Term::CondBr {
                cond,
                then_bb,
                else_bb,
            } => {
                let c = read_op(env, *cond)? & 1;
                prev = Some(cur);
                cur = if c != 0 { *then_bb } else { *else_bb };
            }
            Term::Ret { val } => {
                let ret = val.map(|v| read_op(env, v)).transpose()?;
                sink.returned(steps, ret);
                return Ok(());
            }
        }
    }
}

fn do_load<S: EventSink>(
    state: &StateStore,
    env: &[Option<u64>],
    slots: &[u64],
    view: &PacketView,
    mem: &MemRef,
    ty: Ty,
    sink: &mut S,
) -> Result<u64, TraceError> {
    match mem {
        MemRef::Stack { slot } => Ok(slots.get(*slot as usize).copied().unwrap_or(0)),
        MemRef::Global {
            global,
            index,
            offset,
        } => {
            if !state.has(*global) {
                return Err(TraceError::BadGlobal { global: global.0 });
            }
            let idx = match index {
                Some(op) => read_op(env, *op)?,
                None => 0,
            };
            sink.event(Event::State {
                global: *global,
                index: idx,
                offset: *offset,
                bytes: ty.bytes(),
                write: false,
            });
            Ok(state.load(*global, idx, *offset, ty.bytes()))
        }
        MemRef::Pkt { field } => {
            sink.event(Event::Pkt {
                bytes: ty.bytes(),
                write: false,
            });
            Ok(mask(view.get(*field), ty))
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn do_store<S: EventSink>(
    state: &mut StateStore,
    env: &[Option<u64>],
    slots: &mut [u64],
    view: &mut PacketView,
    mem: &MemRef,
    ty: Ty,
    value: u64,
    sink: &mut S,
) -> Result<(), TraceError> {
    match mem {
        MemRef::Stack { slot } => {
            if let Some(s) = slots.get_mut(*slot as usize) {
                *s = value;
            }
            Ok(())
        }
        MemRef::Global {
            global,
            index,
            offset,
        } => {
            if !state.has(*global) {
                return Err(TraceError::BadGlobal { global: global.0 });
            }
            let idx = match index {
                Some(op) => read_op(env, *op)?,
                None => 0,
            };
            sink.event(Event::State {
                global: *global,
                index: idx,
                offset: *offset,
                bytes: ty.bytes(),
                write: true,
            });
            state.store(*global, idx, *offset, ty.bytes(), value);
            Ok(())
        }
        MemRef::Pkt { field } => {
            sink.event(Event::Pkt {
                bytes: ty.bytes(),
                write: true,
            });
            view.set(*field, value);
            Ok(())
        }
    }
}

/// The framework-API model: the single definition of what each call does
/// to state, packet, clock, and RNG, shared by the interpreter and the
/// reference executor (`clara difftest` layers A and B/C). Argument
/// counts are enforced exactly — a malformed lowering fails loudly with
/// a typed error instead of silently defaulting or dropping arguments.
#[allow(clippy::too_many_arguments)]
pub(crate) fn do_call<S: EventSink>(
    state: &mut StateStore,
    api: &ApiCall,
    args: &[u64],
    view: &mut PacketView,
    sink: &mut S,
    timestamp: &mut u64,
    rng_state: &mut u64,
) -> Result<u64, TraceError> {
    if args.len() != api.arity() {
        return Err(TraceError::BadApiArity {
            api: api.name(),
            got: args.len(),
            want: api.arity(),
        });
    }
    let arg = |i: usize| -> Result<u64, TraceError> {
        args.get(i).copied().ok_or(TraceError::BadApiArity {
            api: api.name(),
            got: args.len(),
            want: api.arity(),
        })
    };
    let mut emit = |call: &ApiCall, probes: u32, hit: bool, bytes: u32| {
        sink.event(Event::Api(ApiEvent {
            call: call.clone(),
            probes,
            hit,
            bytes,
        }));
    };
    let proto = view.get(nf_ir::PktField::IpProto);
    Ok(match api {
        ApiCall::EthHeader => {
            emit(api, 1, true, 14);
            1
        }
        ApiCall::IpHeader => {
            emit(api, 1, true, 20);
            1
        }
        ApiCall::TcpHeader => {
            let ok = proto == 6;
            emit(api, 1, ok, 20);
            u64::from(ok)
        }
        ApiCall::UdpHeader => {
            let ok = proto == 17;
            emit(api, 1, ok, 8);
            u64::from(ok)
        }
        ApiCall::PktLen => {
            emit(api, 1, true, 0);
            u64::from(view.len())
        }
        ApiCall::HashMapFind(g) => {
            let r = state.map_find(*g, arg(0)?);
            emit(api, r.probes, r.hit, 8 * r.probes);
            r.slot.map_or(0, |s| s + 1)
        }
        ApiCall::HashMapInsert(g) => {
            let r = state.map_insert(*g, arg(0)?);
            emit(api, r.probes, r.hit, 8 * r.probes);
            r.slot.map_or(0, |s| s + 1)
        }
        ApiCall::HashMapErase(g) => {
            let r = state.map_erase(*g, arg(0)?);
            emit(api, r.probes, r.hit, 8 * r.probes);
            u64::from(r.hit)
        }
        ApiCall::VectorGet(g) => {
            let r = state.vec_get(*g, arg(0)?);
            emit(api, r.probes, r.hit, 4);
            r.slot.map_or(0, |s| s + 1)
        }
        ApiCall::VectorPush(g) => {
            let r = state.vec_push(*g);
            emit(api, r.probes, r.hit, 4);
            r.slot.map_or(0, |s| s + 1)
        }
        ApiCall::VectorDelete(g) => {
            let r = state.vec_delete(*g, arg(0)?);
            emit(api, r.probes, r.hit, 4);
            u64::from(r.hit)
        }
        ApiCall::FlowLookup(g) => {
            let r = state.flow_lookup(*g, arg(0)?, *timestamp);
            emit(api, r.probes, r.hit, 8 * r.probes);
            r.slot.map_or(0, |s| s + 1)
        }
        ApiCall::FlowUpsert(g) => {
            let r = state.flow_upsert(*g, arg(0)?, *timestamp);
            emit(api, r.probes, r.hit, 8 * r.probes);
            r.slot.map_or(0, |s| s + 1)
        }
        ApiCall::FlowRemove(g) => {
            let r = state.flow_remove(*g, arg(0)?, *timestamp);
            emit(api, r.probes, r.hit, 8 * r.probes);
            u64::from(r.hit)
        }
        ApiCall::FlowChurn(g) => {
            emit(api, 1, true, 8);
            state.flow_counters(*g).churn()
        }
        ApiCall::PktSend => {
            let raw = arg(0)?;
            let port = u16::try_from(raw).map_err(|_| TraceError::ApiArgOutOfRange {
                api: api.name(),
                value: raw,
                max: u64::from(u16::MAX),
            })?;
            view.verdict = Some(Verdict::Sent(port));
            emit(api, 1, true, 0);
            0
        }
        ApiCall::PktDrop => {
            view.verdict = Some(Verdict::Dropped);
            emit(api, 1, true, 0);
            0
        }
        ApiCall::ChecksumUpdate => {
            // Incremental header checksum over the 20-byte IP header.
            emit(api, 1, true, 20);
            let sum = view.get(nf_ir::PktField::IpSrc)
                ^ view.get(nf_ir::PktField::IpDst)
                ^ view.get(nf_ir::PktField::IpLen);
            let c = mask(sum ^ (sum >> 16), Ty::I16);
            view.set(nf_ir::PktField::IpCsum, c);
            c
        }
        ApiCall::ChecksumFull => {
            let n = u32::from(view.payload_len());
            emit(api, 1, true, n);
            let mut sum = 0u64;
            // Sample the payload rather than summing every byte; the
            // cost model charges by `bytes`, the value just needs to
            // depend on content.
            for off in (0..view.payload_len()).step_by(16) {
                sum = sum.wrapping_add(view.get(nf_ir::PktField::Payload(off)));
            }
            mask(sum ^ (sum >> 16), Ty::I16)
        }
        ApiCall::Timestamp => {
            emit(api, 1, true, 0);
            *timestamp
        }
        ApiCall::Random => {
            emit(api, 1, true, 0);
            let mut x = *rng_state;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *rng_state = x;
            mask(x, Ty::I32)
        }
    })
}

fn read_op(env: &[Option<u64>], op: Operand) -> Result<u64, TraceError> {
    match op {
        Operand::Const(c) => Ok(c as u64),
        Operand::Value(v) => env
            .get(v.index())
            .copied()
            .flatten()
            .ok_or(TraceError::UndefinedValue { value: v.0 }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf_ir::{BinOp, FunctionBuilder, Operand, PktField, StateKind};
    use trafgen::{Trace, WorkloadSpec};

    /// A counter NF: loads a scalar, adds 1, stores it back, sends.
    fn counter_module() -> Module {
        let mut m = Module::new("counter");
        let g = m.add_global("ctr", StateKind::Scalar, 4, 1);
        let mut fb = FunctionBuilder::new("process");
        let bb = fb.entry_block();
        fb.switch_to(bb);
        let c = fb.load(Ty::I32, MemRef::global(g));
        let c2 = fb.bin(BinOp::Add, Ty::I32, c, Operand::imm(1));
        fb.store(Ty::I32, c2, MemRef::global(g));
        let _ = fb.call(ApiCall::PktSend, vec![Operand::imm(0)]);
        fb.ret(Some(c2));
        m.funcs.push(fb.finish());
        m
    }

    #[test]
    fn counter_counts_packets() {
        let m = counter_module();
        let mut machine = Machine::new(&m).unwrap();
        let trace = Trace::generate(&WorkloadSpec::large_flows(), 5, 1);
        let mut last = 0;
        for p in &trace.pkts {
            let t = machine.run(p).unwrap();
            last = t.ret.unwrap();
        }
        assert_eq!(last, 5);
    }

    #[test]
    fn trace_records_blocks_state_and_api() {
        let m = counter_module();
        let mut machine = Machine::new(&m).unwrap();
        let trace = Trace::generate(&WorkloadSpec::large_flows(), 1, 1);
        let t = machine.run(&trace.pkts[0]).unwrap();
        assert_eq!(t.block_visits(), vec![BlockId(0)]);
        assert_eq!(t.state_access_count(None), 2); // load + store
        assert_eq!(t.api_events().count(), 1); // pkt_send
    }

    /// A flow-table NF exercising hashmap find/insert and branching.
    fn flow_module() -> Module {
        let mut m = Module::new("flows");
        let g = m.add_global("flows", StateKind::HashMap, 16, 256);
        let mut fb = FunctionBuilder::new("process");
        let entry = fb.entry_block();
        let hit = fb.block();
        let miss = fb.block();
        let done = fb.block();
        fb.switch_to(entry);
        let src = fb.load(Ty::I32, MemRef::pkt(PktField::IpSrc));
        let dst = fb.load(Ty::I32, MemRef::pkt(PktField::IpDst));
        let key = fb.bin(BinOp::Xor, Ty::I32, src, dst);
        let found = fb.call(ApiCall::HashMapFind(g), vec![key]).unwrap();
        let is_hit = fb.icmp(Pred::Ne, Ty::I32, found, Operand::imm(0));
        fb.cond_br(is_hit, hit, miss);
        fb.switch_to(hit);
        let slot = fb.bin(BinOp::Sub, Ty::I32, found, Operand::imm(1));
        let cnt = fb.load(Ty::I32, MemRef::global_at(g, slot, 8));
        let cnt2 = fb.bin(BinOp::Add, Ty::I32, cnt, Operand::imm(1));
        fb.store(Ty::I32, cnt2, MemRef::global_at(g, slot, 8));
        fb.br(done);
        fb.switch_to(miss);
        let ins = fb.call(ApiCall::HashMapInsert(g), vec![key]).unwrap();
        let islot = fb.bin(BinOp::Sub, Ty::I32, ins, Operand::imm(1));
        fb.store(Ty::I32, Operand::imm(1), MemRef::global_at(g, islot, 8));
        fb.br(done);
        fb.switch_to(done);
        let _ = fb.call(ApiCall::PktSend, vec![Operand::imm(0)]);
        fb.ret(None);
        m.funcs.push(fb.finish());
        m
    }

    #[test]
    fn flow_table_hits_after_first_packet() {
        let m = flow_module();
        let mut machine = Machine::new(&m).unwrap();
        let spec = WorkloadSpec::large_flows().with_flows(4);
        let trace = Trace::generate(&spec, 40, 3);
        let mut miss_blocks = 0;
        let mut hit_blocks = 0;
        for p in &trace.pkts {
            let t = machine.run(p).unwrap();
            let visits = t.block_visits();
            if visits.contains(&BlockId(1)) {
                hit_blocks += 1;
            }
            if visits.contains(&BlockId(2)) {
                miss_blocks += 1;
            }
        }
        // Exactly one miss per distinct flow; everything else hits.
        assert_eq!(miss_blocks, 4);
        assert_eq!(hit_blocks, 36);
    }

    #[test]
    fn runaway_loop_hits_step_limit() {
        let mut m = Module::new("spin");
        let mut fb = FunctionBuilder::new("process");
        let bb = fb.entry_block();
        fb.switch_to(bb);
        fb.br(bb);
        m.funcs.push(fb.finish());
        let mut machine = Machine::new(&m).unwrap().with_step_limit(100);
        let trace = Trace::generate(&WorkloadSpec::large_flows(), 1, 1);
        assert!(matches!(
            machine.run(&trace.pkts[0]),
            Err(TraceError::StepLimit { .. })
        ));
    }

    #[test]
    fn phi_selects_predecessor_value() {
        let mut m = Module::new("phi");
        let mut fb = FunctionBuilder::new("process");
        let entry = fb.entry_block();
        let a = fb.block();
        let b = fb.block();
        let join = fb.block();
        fb.switch_to(entry);
        let len = fb.load(Ty::I16, MemRef::pkt(PktField::IpLen));
        let big = fb.icmp(Pred::UGt, Ty::I16, len, Operand::imm(200));
        fb.cond_br(big, a, b);
        fb.switch_to(a);
        fb.br(join);
        fb.switch_to(b);
        fb.br(join);
        fb.switch_to(join);
        let r = fb.phi(
            Ty::I32,
            vec![(a, Operand::imm(111)), (b, Operand::imm(222))],
        );
        fb.ret(Some(r));
        m.funcs.push(fb.finish());

        let mut machine = Machine::new(&m).unwrap();
        let spec = WorkloadSpec::large_flows().with_pkt_size(256); // ip_len=242 > 200
        let t1 = Trace::generate(&spec, 1, 1);
        assert_eq!(machine.run(&t1.pkts[0]).unwrap().ret, Some(111));
        let spec = spec.with_pkt_size(128); // ip_len=114 < 200
        let t2 = Trace::generate(&spec, 1, 1);
        assert_eq!(machine.run(&t2.pkts[0]).unwrap().ret, Some(222));
    }

    /// Stack slots are per packet: a machine reusing its buffers across
    /// packets must still start each one from zeroed slots.
    #[test]
    fn stack_slots_start_zeroed_on_every_packet() {
        let mut m = Module::new("stack");
        let mut fb = FunctionBuilder::new("process");
        let bb = fb.entry_block();
        fb.switch_to(bb);
        let slot = fb.slot();
        let v = fb.load(Ty::I32, MemRef::stack(slot));
        let v2 = fb.bin(BinOp::Add, Ty::I32, v, Operand::imm(1));
        fb.store(Ty::I32, v2, MemRef::stack(slot));
        fb.ret(Some(v2));
        m.funcs.push(fb.finish());
        let mut machine = Machine::new(&m).unwrap();
        let trace = Trace::generate(&WorkloadSpec::large_flows(), 3, 1);
        for p in &trace.pkts {
            assert_eq!(machine.run(p).unwrap().ret, Some(1));
        }
    }

    #[test]
    fn reset_clears_cross_packet_state() {
        let m = counter_module();
        let mut machine = Machine::new(&m).unwrap();
        let trace = Trace::generate(&WorkloadSpec::large_flows(), 3, 1);
        for p in &trace.pkts {
            machine.run(p).unwrap();
        }
        machine.reset();
        let t = machine.run(&trace.pkts[0]).unwrap();
        assert_eq!(t.ret, Some(1));
    }

    use nf_ir::Pred;
}
