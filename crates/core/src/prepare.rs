//! Program preparation (paper Figure 3 / Section 3.1).
//!
//! Clara first transforms the input NF into a uniform IR, extracts its
//! control-flow graph, and annotates each instruction as compute, memory
//! (stateless vs stateful), or framework API — the classification of
//! Figure 5. In this reproduction the NF is *already* NIR (the `click`
//! crate's frontends produced it), so preparation is the analysis half.

use nf_ir::{abstraction, ApiCall, BlockId, Cfg, Inst, InstClass, Module};

/// One analyzed basic block.
#[derive(Debug, Clone)]
pub struct PreparedBlock {
    /// Block id in the handler.
    pub id: BlockId,
    /// Abstract token sequence (vocabulary-compacted instructions).
    pub tokens: Vec<nf_ir::AbstractToken>,
    /// Compute instructions in the block.
    pub compute: u32,
    /// Stateless (stack) memory instructions.
    pub stack_mem: u32,
    /// Stateful (global) memory instructions.
    pub stateful_mem: u32,
    /// Packet-data memory instructions.
    pub packet_mem: u32,
    /// Framework API calls in this block.
    pub api_calls: Vec<ApiCall>,
    /// Whether the block belongs to a loop body.
    pub in_loop: bool,
}

/// The prepared form of an NF module.
#[derive(Debug, Clone)]
pub struct PreparedModule {
    /// Source module name.
    pub name: String,
    /// Per-block analyses (handler function).
    pub blocks: Vec<PreparedBlock>,
    /// The handler's CFG.
    pub cfg: Cfg,
    /// The full set of framework APIs used (for reverse porting).
    pub api_set: Vec<ApiCall>,
}

/// Prepares a module: CFG extraction, per-block annotation, API set.
///
/// # Panics
///
/// Panics if the module has no functions.
pub fn prepare_module(module: &Module) -> PreparedModule {
    let func = module.handler().expect("module has a handler");
    let cfg = Cfg::build(func);
    let loop_blocks: std::collections::HashSet<BlockId> = cfg.loop_blocks().into_iter().collect();

    let mut api_set: Vec<ApiCall> = Vec::new();
    let blocks = func
        .blocks
        .iter()
        .map(|b| {
            let mut pb = PreparedBlock {
                id: b.id,
                tokens: abstraction::abstract_block(b),
                compute: 0,
                stack_mem: 0,
                stateful_mem: 0,
                packet_mem: 0,
                api_calls: Vec::new(),
                in_loop: loop_blocks.contains(&b.id),
            };
            for inst in &b.insts {
                match inst.class() {
                    InstClass::Compute => pb.compute += 1,
                    InstClass::StackMem => pb.stack_mem += 1,
                    InstClass::StatefulMem => pb.stateful_mem += 1,
                    InstClass::PacketMem => pb.packet_mem += 1,
                    InstClass::Api => {
                        if let Inst::Call { api, .. } = inst {
                            pb.api_calls.push(api.clone());
                            if !api_set.contains(api) {
                                api_set.push(api.clone());
                            }
                        }
                    }
                }
            }
            pb
        })
        .collect();

    PreparedModule {
        name: module.name.clone(),
        blocks,
        cfg,
        api_set,
    }
}

impl PreparedModule {
    /// Total IR memory instructions that become NIC memory commands
    /// (stateful + packet accesses) — the count Clara reports directly
    /// (Section 3.2: "simply counting the number of memory instructions
    /// already leads to an accuracy of 96.4%–100%").
    pub fn counted_mem(&self) -> u32 {
        self.blocks
            .iter()
            .map(|b| b.stateful_mem + b.packet_mem)
            .sum()
    }

    /// Blocks that belong to loops (accelerator-candidate regions).
    pub fn loop_block_ids(&self) -> Vec<BlockId> {
        self.blocks
            .iter()
            .filter(|b| b.in_loop)
            .map(|b| b.id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use click_model::elements;

    #[test]
    fn prepares_every_corpus_element() {
        for e in click_model::corpus() {
            let p = prepare_module(&e.module);
            assert_eq!(p.blocks.len(), e.module.handler().unwrap().blocks.len());
            assert!(!p.api_set.is_empty(), "{} uses no APIs?", e.name());
            // Tokens include the terminator.
            for b in &p.blocks {
                assert!(!b.tokens.is_empty());
            }
        }
    }

    #[test]
    fn loop_blocks_flagged_for_cmsketch() {
        let e = elements::cmsketch();
        let p = prepare_module(&e.module);
        assert!(
            p.loop_block_ids().len() >= 4,
            "cmsketch has two CRC loops: {:?}",
            p.loop_block_ids()
        );
    }

    #[test]
    fn api_set_deduplicates() {
        let e = elements::mazunat();
        let p = prepare_module(&e.module);
        // No duplicate ApiCall values (same API on different globals is
        // legitimately distinct — MazuNAT finds in two maps).
        for (i, a) in p.api_set.iter().enumerate() {
            assert!(
                !p.api_set[i + 1..].contains(a),
                "duplicate {a:?} in api_set"
            );
        }
    }

    #[test]
    fn counted_mem_matches_module_stats() {
        let e = elements::aggcounter();
        let p = prepare_module(&e.module);
        let stats = nf_ir::ModuleStats::of_module(&e.module);
        assert_eq!(
            p.counted_mem() as usize,
            stats.stateful_mem + stats.packet_mem
        );
    }
}
