//! Aggregate statistics over modules (instruction mixes, Table 2 columns).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::abstraction::{abstract_block, AbstractToken};
use crate::inst::{Inst, InstClass};
use crate::module::{Function, Module};

/// Instruction-mix and structure statistics for a module.
///
/// These power two things: the Table 2 inventory columns (instruction,
/// memory-access, and API-call counts) and the corpus *distribution
/// profile* that guides the `nf-synth` program generator (Table 1).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ModuleStats {
    /// Total non-terminator instructions.
    pub insts: usize,
    /// Compute instructions (ALU, casts, selects, phis).
    pub compute: usize,
    /// Loads/stores to stack slots.
    pub stack_mem: usize,
    /// Loads/stores to global (stateful) structures.
    pub stateful_mem: usize,
    /// Loads/stores to packet data.
    pub packet_mem: usize,
    /// Framework API calls.
    pub api_calls: usize,
    /// Basic blocks.
    pub blocks: usize,
    /// Loops (CFG back edges), summed over functions.
    pub loops: usize,
    /// Stateful data structures defined by the module.
    pub globals: usize,
    /// Histogram over abstract vocabulary tokens.
    pub token_histogram: BTreeMap<AbstractToken, usize>,
}

impl ModuleStats {
    /// Computes statistics for a module.
    pub fn of_module(module: &Module) -> ModuleStats {
        let mut s = ModuleStats {
            globals: module.globals.len(),
            ..ModuleStats::default()
        };
        for f in &module.funcs {
            s.accumulate_function(f);
        }
        s
    }

    fn accumulate_function(&mut self, func: &Function) {
        self.blocks += func.blocks.len();
        self.loops += crate::cfg::Cfg::build(func).loop_count();
        for b in &func.blocks {
            for tok in abstract_block(b) {
                *self.token_histogram.entry(tok).or_insert(0) += 1;
            }
            for inst in &b.insts {
                self.insts += 1;
                match inst.class() {
                    InstClass::Compute => self.compute += 1,
                    InstClass::StackMem => self.stack_mem += 1,
                    InstClass::StatefulMem => self.stateful_mem += 1,
                    InstClass::PacketMem => self.packet_mem += 1,
                    InstClass::Api => self.api_calls += 1,
                }
            }
        }
    }

    /// The token histogram as a normalized probability distribution,
    /// aligned to the given token universe (order-preserving).
    pub fn distribution(&self, universe: &[AbstractToken]) -> Vec<f64> {
        let total: usize = self.token_histogram.values().sum();
        if total == 0 {
            return vec![0.0; universe.len()];
        }
        universe
            .iter()
            .map(|t| self.token_histogram.get(t).copied().unwrap_or(0) as f64 / total as f64)
            .collect()
    }

    /// Merges another stats record into this one (for corpus aggregation).
    pub fn merge(&mut self, other: &ModuleStats) {
        self.insts += other.insts;
        self.compute += other.compute;
        self.stack_mem += other.stack_mem;
        self.stateful_mem += other.stateful_mem;
        self.packet_mem += other.packet_mem;
        self.api_calls += other.api_calls;
        self.blocks += other.blocks;
        self.loops += other.loops;
        self.globals += other.globals;
        for (t, c) in &other.token_histogram {
            *self.token_histogram.entry(t.clone()).or_insert(0) += c;
        }
    }

    /// The union of token universes across several stats records, sorted.
    pub fn token_universe(stats: &[&ModuleStats]) -> Vec<AbstractToken> {
        let mut all: Vec<AbstractToken> = stats
            .iter()
            .flat_map(|s| s.token_histogram.keys().cloned())
            .collect();
        all.sort();
        all.dedup();
        all
    }
}

/// Is an instruction "interesting" for arithmetic-intensity purposes?
///
/// Arithmetic intensity (compute per memory access) is the feature Clara's
/// scale-out and colocation models key on.
pub fn arithmetic_intensity(stats: &ModuleStats) -> f64 {
    let mem = stats.stateful_mem + stats.packet_mem;
    if mem == 0 {
        stats.compute as f64
    } else {
        stats.compute as f64 / mem as f64
    }
}

/// Classifies whether a module is stateful (has cross-packet state).
pub fn is_stateful(module: &Module) -> bool {
    !module.globals.is_empty()
        || module.funcs.iter().any(|f| {
            f.blocks.iter().any(|b| {
                b.insts.iter().any(|i| {
                    matches!(i.class(), InstClass::StatefulMem)
                        || matches!(i, Inst::Call { api, .. } if api.state_global().is_some())
                })
            })
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::{ApiCall, BinOp, MemRef, Operand, PktField};
    use crate::module::{StateKind, Ty};

    fn sample_module() -> Module {
        let mut m = Module::new("sample");
        let g = m.add_global("ctr", StateKind::Scalar, 4, 1);
        let mut fb = FunctionBuilder::new("process");
        let bb = fb.entry_block();
        fb.switch_to(bb);
        let len = fb.load(Ty::I16, MemRef::pkt(PktField::IpLen));
        let c = fb.load(Ty::I32, MemRef::global(g));
        let c2 = fb.bin(BinOp::Add, Ty::I32, c, Operand::imm(1));
        fb.store(Ty::I32, c2, MemRef::global(g));
        let slot = fb.slot();
        fb.store(Ty::I16, len, MemRef::stack(slot));
        let _ = fb.call(ApiCall::PktSend, vec![Operand::imm(0)]);
        fb.ret(None);
        m.funcs.push(fb.finish());
        m
    }

    #[test]
    fn counts_each_class() {
        let m = sample_module();
        let s = ModuleStats::of_module(&m);
        assert_eq!(s.compute, 1);
        assert_eq!(s.stateful_mem, 2);
        assert_eq!(s.packet_mem, 1);
        assert_eq!(s.stack_mem, 1);
        assert_eq!(s.api_calls, 1);
        assert_eq!(s.insts, 6);
        assert_eq!(s.globals, 1);
        assert!(is_stateful(&m));
    }

    #[test]
    fn distribution_sums_to_one() {
        let m = sample_module();
        let s = ModuleStats::of_module(&m);
        let universe = ModuleStats::token_universe(&[&s]);
        let d = s.distribution(&universe);
        let sum: f64 = d.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum={sum}");
    }

    #[test]
    fn merge_adds_counts() {
        let m = sample_module();
        let s1 = ModuleStats::of_module(&m);
        let mut s2 = s1.clone();
        s2.merge(&s1);
        assert_eq!(s2.insts, 2 * s1.insts);
        assert_eq!(
            s2.token_histogram.values().sum::<usize>(),
            2 * s1.token_histogram.values().sum::<usize>()
        );
    }

    #[test]
    fn arithmetic_intensity_handles_zero_mem() {
        let s = ModuleStats {
            compute: 10,
            ..Default::default()
        };
        assert_eq!(arithmetic_intensity(&s), 10.0);
    }
}
