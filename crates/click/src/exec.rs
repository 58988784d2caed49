//! Executable Click-element semantics: the reference executor and the
//! execution traces every executor records per packet.
//!
//! An executor hands each event to an [`EventSink`]; [`ExecTrace`] is
//! the sink that records them.
//!
//! [`RefMachine`] is "layer A" of the `clara difftest` oracle — an
//! independently structured evaluator for the same NIR that
//! [`crate::Machine`] interprets. It shares only the pieces that are
//! *defined* to be single-sourced (the ALU semantics in `nf_ir::opt` and
//! the framework-API model in the interpreter's `do_call`); control
//! flow, SSA evaluation, phi resolution, masking, and memory addressing
//! are re-derived here, so a bug in either implementation shows up as a
//! trace divergence instead of silently biasing Clara's profiles.

use std::collections::BTreeMap;

use nf_ir::{verify, ApiCall, BlockId, Function, GlobalId, Inst, MemRef, Module, Operand, Term};
use serde::{Deserialize, Serialize};
use trafgen::Packet;

use crate::interp::{self, DEFAULT_STEP_LIMIT};
use crate::packet::{PacketView, Verdict};
use crate::state::StateStore;

/// One framework-API event with enough detail for faithful NIC costing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ApiEvent {
    /// Which API was invoked.
    pub call: ApiCall,
    /// Number of bucket/entry probes performed (hash map / vector walks).
    pub probes: u32,
    /// Whether a lookup hit (find) or an insert found space.
    pub hit: bool,
    /// Bytes of packet data processed (checksums, header parses).
    pub bytes: u32,
}

/// One event of an execution trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// Entered a basic block.
    Block(BlockId),
    /// A load/store to a stateful global.
    State {
        /// The global.
        global: GlobalId,
        /// Dynamic entry index (0 for scalars).
        index: u64,
        /// Byte offset within the entry (identifies the *variable*, which
        /// drives memory-coalescing analysis).
        offset: u32,
        /// Access width in bytes.
        bytes: u32,
        /// True for stores.
        write: bool,
    },
    /// A packet-data access (headers or payload).
    Pkt {
        /// Access width in bytes.
        bytes: u32,
        /// True for stores.
        write: bool,
    },
    /// A framework API call.
    Api(ApiEvent),
}

/// Everything recorded while processing one packet.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ExecTrace {
    /// Events in program order.
    pub events: Vec<Event>,
    /// Total interpreted IR instructions (a step-count sanity metric).
    pub steps: u64,
    /// The function's return value, if any.
    pub ret: Option<u64>,
}

impl ExecTrace {
    /// Block-visit sequence (loop iterations appear repeatedly).
    pub fn block_visits(&self) -> Vec<BlockId> {
        self.events
            .iter()
            .filter_map(|e| match e {
                Event::Block(b) => Some(*b),
                _ => None,
            })
            .collect()
    }

    /// Number of stateful accesses (optionally only to one global).
    pub fn state_access_count(&self, global: Option<GlobalId>) -> usize {
        self.events
            .iter()
            .filter(|e| match e {
                Event::State { global: g, .. } => global.is_none_or(|want| *g == want),
                _ => false,
            })
            .count()
    }

    /// All API events.
    pub fn api_events(&self) -> impl Iterator<Item = &ApiEvent> {
        self.events.iter().filter_map(|e| match e {
            Event::Api(a) => Some(a),
            _ => None,
        })
    }
}

/// Where an executor puts the events of one packet, in program order.
///
/// [`ExecTrace`] is the recording sink. A consumer that needs each event
/// only once (the NIC simulator's costing) implements this instead and
/// sees every event as it happens, without a per-packet recording.
pub trait EventSink {
    /// Receives the next event.
    fn event(&mut self, ev: Event);

    /// Called once when the handler returns, with the interpreted
    /// instruction count and the return value. Not called when the
    /// packet fails with a [`TraceError`].
    fn returned(&mut self, _steps: u64, _ret: Option<u64>) {}
}

impl EventSink for ExecTrace {
    fn event(&mut self, ev: Event) {
        self.events.push(ev);
    }

    fn returned(&mut self, steps: u64, ret: Option<u64>) {
        self.steps = steps;
        self.ret = ret;
    }
}

/// Interpreter failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The per-packet step limit was exceeded (runaway loop).
    StepLimit {
        /// The limit that was hit.
        limit: u64,
    },
    /// A value was read before being defined (malformed SSA reached the
    /// interpreter; `verify` should have caught it).
    UndefinedValue {
        /// The value id.
        value: u32,
    },
    /// Branch to a nonexistent block.
    BadBlock {
        /// The block id.
        block: u32,
    },
    /// A global id had no storage (module/state mismatch).
    BadGlobal {
        /// The global id.
        global: u32,
    },
    /// An API call had the wrong number of arguments.
    BadApiArity {
        /// The API name.
        api: &'static str,
        /// Arguments supplied.
        got: usize,
        /// Arguments the framework ABI expects.
        want: usize,
    },
    /// An API argument was outside the range its ABI type can represent
    /// (e.g. a `pkt_send` port that does not fit in `u16`).
    ApiArgOutOfRange {
        /// The API name.
        api: &'static str,
        /// The value supplied.
        value: u64,
        /// The largest representable value.
        max: u64,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::StepLimit { limit } => write!(f, "step limit {limit} exceeded"),
            TraceError::UndefinedValue { value } => write!(f, "undefined value %{value}"),
            TraceError::BadBlock { block } => write!(f, "branch to nonexistent bb{block}"),
            TraceError::BadGlobal { global } => write!(f, "no storage for @{global}"),
            TraceError::BadApiArity { api, got, want } => {
                write!(f, "api {api} called with {got} args (expects {want})")
            }
            TraceError::ApiArgOutOfRange { api, value, max } => {
                write!(
                    f,
                    "api {api} argument {value} exceeds the ABI maximum {max}"
                )
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// The reference executor: layer A of the three-layer difftest oracle.
///
/// Holds the same cross-packet state a [`crate::Machine`] does (storage,
/// element clock, RNG stream) so the two can be run in lockstep over a
/// trace and compared event by event.
#[derive(Debug, Clone)]
pub struct RefMachine {
    module: Module,
    /// Persistent stateful storage (cross-packet).
    pub state: StateStore,
    step_limit: u64,
    timestamp: u64,
    rng_state: u64,
}

impl RefMachine {
    /// Builds a reference executor for a module (verifying it first).
    pub fn new(module: &Module) -> Result<RefMachine, verify::VerifyError> {
        verify::verify_module(module)?;
        Ok(RefMachine {
            state: StateStore::new(module),
            module: module.clone(),
            step_limit: DEFAULT_STEP_LIMIT,
            timestamp: 0,
            rng_state: interp::RNG_SEED,
        })
    }

    /// Overrides the per-packet step limit.
    pub fn with_step_limit(mut self, limit: u64) -> RefMachine {
        self.step_limit = limit;
        self
    }

    /// Resets all persistent state (and the element clock).
    pub fn reset(&mut self) {
        self.state.reset();
        self.timestamp = 0;
        self.rng_state = interp::RNG_SEED;
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
        self.timestamp += 1;
        let mut state = std::mem::take(&mut self.state);
        let mut timestamp = self.timestamp;
        let mut rng_state = self.rng_state;
        let func = self
            .module
            .funcs
            .first()
            .expect("verified module has a handler");
        let result = ref_exec(
            func,
            &mut state,
            view,
            self.step_limit,
            &mut timestamp,
            &mut rng_state,
        );
        self.state = state;
        self.timestamp = timestamp;
        self.rng_state = rng_state;
        result.map(|trace| (trace, view.verdict))
    }
}

/// Execution context for one packet through the reference evaluator.
struct RefCtx<'a> {
    env: BTreeMap<u32, u64>,
    slots: BTreeMap<u32, u64>,
    nslots: u32,
    trace: ExecTrace,
    state: &'a mut StateStore,
    view: &'a mut PacketView,
    step_limit: u64,
    timestamp: &'a mut u64,
    rng_state: &'a mut u64,
}

impl RefCtx<'_> {
    fn fetch(&self, op: Operand) -> Result<u64, TraceError> {
        match op {
            Operand::Const(c) => Ok(c as u64),
            Operand::Value(v) => self
                .env
                .get(&v.0)
                .copied()
                .ok_or(TraceError::UndefinedValue { value: v.0 }),
        }
    }

    fn tick(&mut self) -> Result<(), TraceError> {
        self.trace.steps += 1;
        if self.trace.steps > self.step_limit {
            return Err(TraceError::StepLimit {
                limit: self.step_limit,
            });
        }
        Ok(())
    }
}

/// Evaluates `func` against one packet view, reference style: a
/// `BTreeMap` SSA environment and per-instruction dispatch written
/// independently of the interpreter's. ALU semantics come from
/// `nf_ir::opt::{eval_bin, eval_icmp, eval_cast}` (shared by design) and
/// framework calls from the interpreter's single `do_call` definition.
fn ref_exec(
    func: &Function,
    state: &mut StateStore,
    view: &mut PacketView,
    step_limit: u64,
    timestamp: &mut u64,
    rng_state: &mut u64,
) -> Result<ExecTrace, TraceError> {
    let mut ctx = RefCtx {
        env: func.params.iter().map(|(p, _)| (p.0, 0)).collect(),
        slots: BTreeMap::new(),
        nslots: func.next_slot,
        trace: ExecTrace::default(),
        state,
        view,
        step_limit,
        timestamp,
        rng_state,
    };
    let mut cur = BlockId(0);
    let mut prev = BlockId(0);
    loop {
        let block = func
            .blocks
            .get(cur.index())
            .ok_or(TraceError::BadBlock { block: cur.0 })?;
        ctx.trace.events.push(Event::Block(cur));

        // Phis read their incoming edges atomically: resolve every value
        // against the pre-block environment before committing any.
        let resolved: Vec<(u32, u64)> = block
            .insts
            .iter()
            .filter_map(|inst| match inst {
                Inst::Phi { dst, ty, incomings } => {
                    let pick = incomings.iter().find(|(bb, _)| *bb == prev);
                    Some(match pick {
                        Some((_, op)) => ctx.fetch(*op).map(|v| (dst.0, interp::mask(v, *ty))),
                        None => Ok((dst.0, 0)),
                    })
                }
                _ => None,
            })
            .collect::<Result<_, _>>()?;
        for (dst, v) in resolved {
            ctx.env.insert(dst, v);
        }

        for inst in &block.insts {
            ctx.tick()?;
            ref_inst(&mut ctx, inst)?;
        }

        ctx.tick()?;
        match &block.term {
            Term::Br { target } => {
                prev = cur;
                cur = *target;
            }
            Term::CondBr {
                cond,
                then_bb,
                else_bb,
            } => {
                let taken = ctx.fetch(*cond)? & 1 == 1;
                prev = cur;
                cur = if taken { *then_bb } else { *else_bb };
            }
            Term::Ret { val } => {
                ctx.trace.ret = val.map(|v| ctx.fetch(v)).transpose()?;
                return Ok(ctx.trace);
            }
        }
    }
}

fn ref_inst(ctx: &mut RefCtx<'_>, inst: &Inst) -> Result<(), TraceError> {
    match inst {
        Inst::Phi { .. } => {} // Committed at block entry.
        Inst::Bin {
            dst,
            op,
            ty,
            lhs,
            rhs,
        } => {
            let r = nf_ir::opt::eval_bin(*op, *ty, ctx.fetch(*lhs)?, ctx.fetch(*rhs)?);
            ctx.env.insert(dst.0, r);
        }
        Inst::Icmp {
            dst,
            pred,
            ty,
            lhs,
            rhs,
        } => {
            let r = nf_ir::opt::eval_icmp(*pred, *ty, ctx.fetch(*lhs)?, ctx.fetch(*rhs)?);
            ctx.env.insert(dst.0, u64::from(r));
        }
        Inst::Cast {
            dst,
            op,
            from,
            to,
            src,
        } => {
            let r = nf_ir::opt::eval_cast(*op, *from, *to, ctx.fetch(*src)?);
            ctx.env.insert(dst.0, r);
        }
        Inst::Select {
            dst,
            ty,
            cond,
            on_true,
            on_false,
        } => {
            let pick = if ctx.fetch(*cond)? & 1 == 1 {
                on_true
            } else {
                on_false
            };
            let v = ctx.fetch(*pick)?;
            ctx.env.insert(dst.0, interp::mask(v, *ty));
        }
        Inst::Load { dst, ty, mem } => {
            let v = match mem {
                MemRef::Stack { slot } => ctx.slots.get(slot).copied().unwrap_or(0),
                MemRef::Global {
                    global,
                    index,
                    offset,
                } => {
                    if !ctx.state.has(*global) {
                        return Err(TraceError::BadGlobal { global: global.0 });
                    }
                    let idx = match index {
                        Some(op) => ctx.fetch(*op)?,
                        None => 0,
                    };
                    ctx.trace.events.push(Event::State {
                        global: *global,
                        index: idx,
                        offset: *offset,
                        bytes: ty.bytes(),
                        write: false,
                    });
                    ctx.state.load(*global, idx, *offset, ty.bytes())
                }
                MemRef::Pkt { field } => {
                    ctx.trace.events.push(Event::Pkt {
                        bytes: ty.bytes(),
                        write: false,
                    });
                    ctx.view.get(*field)
                }
            };
            ctx.env.insert(dst.0, interp::mask(v, *ty));
        }
        Inst::Store { ty, val, mem } => {
            let v = interp::mask(ctx.fetch(*val)?, *ty);
            match mem {
                MemRef::Stack { slot } => {
                    if *slot < ctx.nslots {
                        ctx.slots.insert(*slot, v);
                    }
                }
                MemRef::Global {
                    global,
                    index,
                    offset,
                } => {
                    if !ctx.state.has(*global) {
                        return Err(TraceError::BadGlobal { global: global.0 });
                    }
                    let idx = match index {
                        Some(op) => ctx.fetch(*op)?,
                        None => 0,
                    };
                    ctx.trace.events.push(Event::State {
                        global: *global,
                        index: idx,
                        offset: *offset,
                        bytes: ty.bytes(),
                        write: true,
                    });
                    ctx.state.store(*global, idx, *offset, ty.bytes(), v);
                }
                MemRef::Pkt { field } => {
                    ctx.trace.events.push(Event::Pkt {
                        bytes: ty.bytes(),
                        write: true,
                    });
                    ctx.view.set(*field, v);
                }
            }
        }
        Inst::Call { dst, api, args } => {
            let vals: Vec<u64> = args
                .iter()
                .map(|a| ctx.fetch(*a))
                .collect::<Result<_, _>>()?;
            let r = interp::do_call(
                ctx.state,
                api,
                &vals,
                ctx.view,
                &mut ctx.trace,
                ctx.timestamp,
                ctx.rng_state,
            )?;
            if let Some(d) = dst {
                ctx.env.insert(d.0, r);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_visits_filters_events() {
        let t = ExecTrace {
            events: vec![
                Event::Block(BlockId(0)),
                Event::Pkt {
                    bytes: 2,
                    write: false,
                },
                Event::Block(BlockId(1)),
                Event::Block(BlockId(1)),
            ],
            steps: 4,
            ret: None,
        };
        assert_eq!(t.block_visits(), vec![BlockId(0), BlockId(1), BlockId(1)]);
    }

    #[test]
    fn state_access_count_filters_by_global() {
        let t = ExecTrace {
            events: vec![
                Event::State {
                    global: GlobalId(0),
                    index: 0,
                    offset: 0,
                    bytes: 4,
                    write: false,
                },
                Event::State {
                    global: GlobalId(1),
                    index: 2,
                    offset: 4,
                    bytes: 4,
                    write: true,
                },
            ],
            steps: 2,
            ret: None,
        };
        assert_eq!(t.state_access_count(None), 2);
        assert_eq!(t.state_access_count(Some(GlobalId(1))), 1);
        assert_eq!(t.state_access_count(Some(GlobalId(9))), 0);
    }

    #[test]
    fn errors_display() {
        assert_eq!(
            TraceError::StepLimit { limit: 10 }.to_string(),
            "step limit 10 exceeded"
        );
    }
}
