//! Accelerator algorithm identification (paper Section 4.1).
//!
//! The same algorithm can be implemented in idiosyncratic ways — CRC with
//! different widths, polynomials, bit orders; LPM with different trie
//! shapes — so Clara *learns* to recognize an algorithm's "inherent
//! logical workflow". This module:
//!
//! 1. generates a labeled training corpus of implementation **variants**
//!    (CRC, LPM, crypto kernels) plus non-accelerator distractors,
//!    standing in for the paper's 600+ Click elements and 9000+ crawled
//!    programs;
//! 2. extracts features via Sequential Pattern Extraction — frequent
//!    instruction-category n-grams with high support in a positive class
//!    and high confidence against the negatives — augmented with manual
//!    features (bitwise-operation density, pointer-chasing score);
//! 3. trains one binary SVM per accelerator (plus kNN/DT/GBDT/DNN/AutoML
//!    baselines for Figure 9) and labels new NFs' loop regions.

use std::collections::{BTreeMap, HashSet};

use nf_ir::{
    ApiCall, BinOp, BlockId, Cfg, FunctionBuilder, Inst, MemRef, Module, Operand, PktField, Pred,
    StateKind, Ty,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use tinyml::gbdt::{GbdtClassifier, GbdtConfig};
use tinyml::knn::Knn;
use tinyml::mlp::{Loss, Mlp, MlpConfig};
use tinyml::svm::{MultiSvm, SvmConfig};
use tinyml::tree::{ClassificationTree, TreeConfig};

/// Accelerator classes recognized by the identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AlgoClass {
    /// No accelerator opportunity.
    None,
    /// CRC / checksum-style bitwise loop → CRC engine.
    Crc,
    /// Longest-prefix-match walk → LPM engine / flow cache.
    Lpm,
    /// Block-cipher/digest-style mixing rounds → crypto engine.
    Crypto,
}

impl AlgoClass {
    /// Dense label index.
    pub fn label(self) -> usize {
        match self {
            AlgoClass::None => 0,
            AlgoClass::Crc => 1,
            AlgoClass::Lpm => 2,
            AlgoClass::Crypto => 3,
        }
    }

    /// Inverse of [`AlgoClass::label`].
    pub fn from_label(l: usize) -> AlgoClass {
        match l {
            1 => AlgoClass::Crc,
            2 => AlgoClass::Lpm,
            3 => AlgoClass::Crypto,
            _ => AlgoClass::None,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            AlgoClass::None => "none",
            AlgoClass::Crc => "crc",
            AlgoClass::Lpm => "lpm",
            AlgoClass::Crypto => "crypto",
        }
    }

    /// Number of classes.
    pub const COUNT: usize = 4;
}

// ---------------------------------------------------------------------
// Variant corpus generation
// ---------------------------------------------------------------------

/// Generates one CRC implementation variant.
///
/// Variation axes: width, polynomial, bit order (reflected), chunk size
/// (bit-serial vs nibble), *streaming* input (load payload words inside
/// the loop, as packet-integrity CRCs do) and table-free multiply mixing.
pub fn crc_variant(rng: &mut StdRng) -> Module {
    if rng.gen_bool(0.33) {
        return crc_fold_variant(rng);
    }
    let width: u32 = *[8u32, 16, 32]
        .get(rng.gen_range(0usize..3))
        .expect("in range");
    let poly = i64::from(rng.gen_range(1u32..1 << (width - 1)) | 1);
    let reflected = rng.gen_bool(0.5);
    let step: u32 = if rng.gen_bool(0.3) { 4 } else { 1 }; // Nibble or bit serial.
    let streaming = rng.gen_bool(0.4); // Data loaded inside the loop.
    let with_mul = rng.gen_bool(0.3); // Table-free multiply mix.
    let iters = i64::from((width / step.min(width)).max(4));
    let mask = ((1i64 << width) - 1).max(0xff);
    build_bit_loop_module(
        "crc_variant",
        rng,
        |fb, key, i, crc, _patches_val| {
            // The next input word: preloaded key or streamed payload.
            let data = if streaming {
                let w = fb.load(Ty::I32, MemRef::pkt(PktField::Payload(4)));
                fb.bin(BinOp::Xor, Ty::I32, w, key)
            } else {
                key
            };
            // Extract the next input chunk.
            let sh = if step == 1 {
                fb.bin(BinOp::LShr, Ty::I32, data, i)
            } else {
                let i4 = fb.bin(BinOp::Shl, Ty::I32, i, Operand::imm(2));
                fb.bin(BinOp::LShr, Ty::I32, data, i4)
            };
            let chunk0 = fb.bin(BinOp::And, Ty::I32, sh, Operand::imm((1 << step) - 1));
            let chunk = if with_mul {
                let m = fb.bin(BinOp::Mul, Ty::I32, chunk0, Operand::imm(0x04c1));
                fb.bin(BinOp::And, Ty::I32, m, Operand::imm((1 << step) - 1))
            } else {
                chunk0
            };
            // Top bit(s) of the running CRC.
            let top = if reflected {
                fb.bin(BinOp::And, Ty::I32, crc, Operand::imm((1 << step) - 1))
            } else {
                let t = fb.bin(
                    BinOp::LShr,
                    Ty::I32,
                    crc,
                    Operand::imm(i64::from(width) - i64::from(step)),
                );
                fb.bin(BinOp::And, Ty::I32, t, Operand::imm((1 << step) - 1))
            };
            let fb_mix = fb.bin(BinOp::Xor, Ty::I32, top, chunk);
            let shifted = if reflected {
                fb.bin(BinOp::LShr, Ty::I32, crc, Operand::imm(i64::from(step)))
            } else {
                let s = fb.bin(BinOp::Shl, Ty::I32, crc, Operand::imm(i64::from(step)));
                fb.bin(BinOp::And, Ty::I32, s, Operand::imm(mask))
            };
            let xored = fb.bin(BinOp::Xor, Ty::I32, shifted, Operand::imm(poly));
            let taken = fb.icmp(Pred::Ne, Ty::I32, fb_mix, Operand::imm(0));
            fb.select(Ty::I32, taken, xored, shifted)
        },
        iters,
    )
}

/// A byte-folding CRC32 variant: `crc = (crc >> 8) ^ mix(crc ^ word)`
/// with a multiply-based mixing step (the table-free folding style found
/// in packet-integrity checks).
fn crc_fold_variant(rng: &mut StdRng) -> Module {
    let poly = i64::from(rng.gen_range(0x100u32..0xffff) | 1);
    let final_xor = i64::from(rng.gen::<u32>() | 1);
    let streaming = rng.gen_bool(0.6);
    let rounds = i64::from(rng.gen_range(6u8..16));
    build_bit_loop_module(
        "crc_fold",
        rng,
        move |fb, key, _i, crc, _| {
            let word = if streaming {
                let w = fb.load(Ty::I32, MemRef::pkt(PktField::Payload(4)));
                fb.bin(BinOp::Xor, Ty::I32, w, key)
            } else {
                key
            };
            let x = fb.bin(BinOp::Xor, Ty::I32, crc, word);
            let s1 = fb.bin(BinOp::LShr, Ty::I32, x, Operand::imm(8));
            let a = fb.bin(BinOp::And, Ty::I32, x, Operand::imm(0xff));
            let m = fb.bin(BinOp::Mul, Ty::I32, a, Operand::imm(poly));
            let s2 = fb.bin(BinOp::Shl, Ty::I32, m, Operand::imm(4));
            let mix = fb.bin(BinOp::Xor, Ty::I32, s1, s2);
            fb.bin(BinOp::Xor, Ty::I32, mix, Operand::imm(final_xor))
        },
        rounds,
    )
}

/// Generates one LPM implementation variant.
pub fn lpm_variant(rng: &mut StdRng) -> Module {
    match rng.gen_range(0..3) {
        0 => trie_walk_module("lpm_trie1", rng, 1),
        1 => trie_walk_module("lpm_trie2", rng, 2),
        _ => range_scan_module("lpm_range", rng),
    }
}

/// Generates one crypto-kernel variant (cipher/digest mixing rounds).
pub fn crypto_variant(rng: &mut StdRng) -> Module {
    let rounds = i64::from(rng.gen_range(8u8..20));
    let k1 = i64::from(rng.gen::<u32>() | 1);
    let k2 = i64::from(rng.gen::<u32>() | 1);
    let rot = i64::from(rng.gen_range(3u8..13));
    build_bit_loop_module(
        "crypto_variant",
        rng,
        |fb, key, i, state, _| {
            // ARX round: add round key, rotate, xor with mixed input.
            let added = fb.bin(BinOp::Add, Ty::I32, state, Operand::imm(k1));
            let l = fb.bin(BinOp::Shl, Ty::I32, added, Operand::imm(rot));
            let r = fb.bin(BinOp::LShr, Ty::I32, added, Operand::imm(32 - rot));
            let rotated = fb.bin(BinOp::Or, Ty::I32, l, r);
            let mixed_in = fb.bin(BinOp::Mul, Ty::I32, key, Operand::imm(k2));
            let with_i = fb.bin(BinOp::Add, Ty::I32, mixed_in, i);
            fb.bin(BinOp::Xor, Ty::I32, rotated, with_i)
        },
        rounds,
    )
}

/// Builds a module whose core is a bounded loop folding `key` into an
/// accumulator via `round` (shared scaffold for CRC/crypto variants).
fn build_bit_loop_module(
    name: &str,
    rng: &mut StdRng,
    round: impl Fn(&mut FunctionBuilder, Operand, Operand, Operand, ()) -> Operand,
    iters: i64,
) -> Module {
    let mut m = Module::new(format!("{name}_{}", rng.gen::<u16>()));
    let g_out = m.add_global("result", StateKind::Scalar, 4, 1);
    let mut fb = FunctionBuilder::new("process");
    let entry = fb.entry_block();
    let head = fb.block();
    let body = fb.block();
    let latch = fb.block();
    let after = fb.block();
    fb.switch_to(entry);
    let _ = fb.call(ApiCall::IpHeader, vec![]);
    let a = fb.load(Ty::I32, MemRef::pkt(PktField::IpSrc));
    let b = fb.load(Ty::I32, MemRef::pkt(PktField::Payload(0)));
    let key = fb.bin(BinOp::Xor, Ty::I32, a, b);
    fb.br(head);
    fb.switch_to(head);
    let i = fb.phi(
        Ty::I32,
        vec![(entry, Operand::imm(0)), (latch, Operand::imm(0))],
    );
    let acc = fb.phi(
        Ty::I32,
        vec![(entry, Operand::imm(0xffff)), (latch, Operand::imm(0))],
    );
    let more = fb.icmp(Pred::ULt, Ty::I32, i, Operand::imm(iters.max(2)));
    fb.cond_br(more, body, after);
    fb.switch_to(body);
    let acc_next = round(&mut fb, key, i, acc, ());
    fb.br(latch);
    fb.switch_to(latch);
    let i_next = fb.bin(BinOp::Add, Ty::I32, i, Operand::imm(1));
    fb.br(head);
    fb.switch_to(after);
    fb.store(Ty::I32, acc, MemRef::global(g_out));
    let _ = fb.call(ApiCall::PktSend, vec![Operand::imm(0)]);
    fb.ret(None);
    let mut f = fb.finish();
    click_model::elements::helpers::set_phi_incoming(&mut f, head, 0, latch, i_next);
    click_model::elements::helpers::set_phi_incoming(&mut f, head, 1, latch, acc_next);
    m.funcs.push(f);
    m
}

/// A trie-walk LPM variant with the given stride in bits.
fn trie_walk_module(name: &str, rng: &mut StdRng, stride: u8) -> Module {
    let track_best = rng.gen_bool(0.7);
    let best_in_mem = rng.gen_bool(0.5);
    let mut m = Module::new(format!("{name}_{}", rng.gen::<u16>()));
    let g_trie = m.add_global("nodes", StateKind::Trie, 16, 512);
    let g_out = m.add_global("nexthop", StateKind::Scalar, 4, 1);
    let depth_limit = i64::from(rng.gen_range(12u8..28));
    let mut fb = FunctionBuilder::new("process");
    let entry = fb.entry_block();
    let head = fb.block();
    let body = fb.block();
    let latch = fb.block();
    let after = fb.block();
    fb.switch_to(entry);
    let _ = fb.call(ApiCall::IpHeader, vec![]);
    let dst = fb.load(Ty::I32, MemRef::pkt(PktField::IpDst));
    fb.br(head);
    fb.switch_to(head);
    let node = fb.phi(
        Ty::I32,
        vec![(entry, Operand::imm(0)), (latch, Operand::imm(0))],
    );
    let depth = fb.phi(
        Ty::I32,
        vec![(entry, Operand::imm(0)), (latch, Operand::imm(0))],
    );
    let more = fb.icmp(Pred::ULt, Ty::I32, depth, Operand::imm(depth_limit));
    fb.cond_br(more, body, after);
    fb.switch_to(body);
    // Some implementations track the longest valid prefix inside the walk
    // — either spilled to memory or carried in a register.
    if track_best {
        let valid = fb.load(Ty::I32, MemRef::global_at(g_trie, node, 12));
        let hop = fb.load(Ty::I32, MemRef::global_at(g_trie, node, 8));
        let has = fb.icmp(Pred::Ne, Ty::I32, valid, Operand::imm(0));
        let best = fb.select(Ty::I32, has, hop, Operand::imm(0));
        if best_in_mem {
            fb.store(Ty::I32, best, MemRef::global(g_out));
        }
    }
    // Pointer chasing: children loaded from the current node.
    let c0 = fb.load(Ty::I32, MemRef::global_at(g_trie, node, 0));
    let c1 = fb.load(Ty::I32, MemRef::global_at(g_trie, node, 4));
    let shift = fb.bin(BinOp::Sub, Ty::I32, Operand::imm(31), depth);
    let bit_w = fb.bin(BinOp::LShr, Ty::I32, dst, shift);
    let bit = fb.bin(BinOp::And, Ty::I32, bit_w, Operand::imm(1));
    let go1 = fb.icmp(Pred::Ne, Ty::I32, bit, Operand::imm(0));
    let child = fb.select(Ty::I32, go1, c1, c0);
    let dead = fb.icmp(Pred::Eq, Ty::I32, child, Operand::imm(0));
    let d_raw = fb.bin(BinOp::Add, Ty::I32, depth, Operand::imm(i64::from(stride)));
    let d_next = fb.select(Ty::I32, dead, Operand::imm(depth_limit), d_raw);
    fb.br(latch);
    fb.switch_to(latch);
    let node_next = fb.select(Ty::I32, dead, node, child);
    fb.br(head);
    fb.switch_to(after);
    let hop = fb.load(Ty::I32, MemRef::global_at(g_trie, node, 8));
    fb.store(Ty::I32, hop, MemRef::global(g_out));
    let _ = fb.call(ApiCall::PktSend, vec![Operand::imm(0)]);
    fb.ret(None);
    let mut f = fb.finish();
    click_model::elements::helpers::set_phi_incoming(&mut f, head, 0, latch, node_next);
    click_model::elements::helpers::set_phi_incoming(&mut f, head, 1, latch, d_next);
    m.funcs.push(f);
    m
}

/// A range-scan LPM variant (compare against sorted interval bounds).
fn range_scan_module(name: &str, rng: &mut StdRng) -> Module {
    let mut m = Module::new(format!("{name}_{}", rng.gen::<u16>()));
    let g_lo = m.add_global("range_lo", StateKind::Array, 8, 128);
    let g_out = m.add_global("nexthop", StateKind::Scalar, 4, 1);
    let rules = i64::from(rng.gen_range(16u8..120));
    let mut fb = FunctionBuilder::new("process");
    let entry = fb.entry_block();
    let head = fb.block();
    let body = fb.block();
    let hit = fb.block();
    let latch = fb.block();
    let after = fb.block();
    fb.switch_to(entry);
    let _ = fb.call(ApiCall::IpHeader, vec![]);
    let dst = fb.load(Ty::I32, MemRef::pkt(PktField::IpDst));
    fb.br(head);
    fb.switch_to(head);
    let i = fb.phi(
        Ty::I32,
        vec![(entry, Operand::imm(0)), (latch, Operand::imm(0))],
    );
    let more = fb.icmp(Pred::ULt, Ty::I32, i, Operand::imm(rules));
    fb.cond_br(more, body, after);
    fb.switch_to(body);
    let lo = fb.load(Ty::I32, MemRef::global_at(g_lo, i, 0));
    let hi = fb.load(Ty::I32, MemRef::global_at(g_lo, i, 4));
    let ge = fb.icmp(Pred::UGe, Ty::I32, dst, lo);
    let le = fb.icmp(Pred::ULe, Ty::I32, dst, hi);
    let both = fb.select(Ty::I1, ge, le, Operand::imm(0));
    fb.cond_br(both, hit, latch);
    fb.switch_to(hit);
    fb.store(Ty::I32, i, MemRef::global(g_out));
    fb.br(latch);
    fb.switch_to(latch);
    let i_next = fb.bin(BinOp::Add, Ty::I32, i, Operand::imm(1));
    fb.br(head);
    fb.switch_to(after);
    let _ = fb.call(ApiCall::PktSend, vec![Operand::imm(0)]);
    fb.ret(None);
    let mut f = fb.finish();
    click_model::elements::helpers::set_phi_incoming(&mut f, head, 0, latch, i_next);
    m.funcs.push(f);
    m
}

/// Generates the labeled training corpus.
pub fn labeled_corpus(per_class: usize, seed: u64) -> Vec<(Module, AlgoClass)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for _ in 0..per_class {
        out.push((crc_variant(&mut rng), AlgoClass::Crc));
        out.push((lpm_variant(&mut rng), AlgoClass::Lpm));
        out.push((crypto_variant(&mut rng), AlgoClass::Crypto));
    }
    // Negatives: distribution-guided random programs (many contain loops
    // that are *not* accelerator algorithms).
    for m in nf_synth::synth_corpus(per_class * 2, true, seed ^ 0x9e37) {
        out.push((m, AlgoClass::None));
    }
    out
}

// ---------------------------------------------------------------------
// Feature extraction (SPE + manual features)
// ---------------------------------------------------------------------

fn category(inst: &Inst) -> char {
    match inst {
        Inst::Bin { op, .. } => match op {
            BinOp::Add | BinOp::Sub => 'a',
            BinOp::Mul => 'm',
            BinOp::UDiv | BinOp::URem => 'd',
            BinOp::And | BinOp::Or => 'b',
            BinOp::Xor => 'x',
            BinOp::Shl | BinOp::LShr | BinOp::AShr => 's',
        },
        Inst::Icmp { .. } => 'c',
        Inst::Cast { .. } => 'z',
        Inst::Select { .. } => 'e',
        Inst::Load { .. } => 'l',
        Inst::Store { .. } => 't',
        Inst::Call { .. } => 'k',
        Inst::Phi { .. } => 'p',
    }
}

/// The natural-loop regions of a module's handler, one block set per
/// back edge (merged when they share a header).
pub fn loop_regions(module: &Module) -> Vec<Vec<BlockId>> {
    let Some(func) = module.handler() else {
        return Vec::new();
    };
    let cfg = Cfg::build(func);
    let mut regions: Vec<(BlockId, Vec<BlockId>)> = Vec::new();
    for (latch, header) in cfg.back_edges() {
        // Natural loop body: header + everything reaching the latch
        // without passing the header.
        let mut body: Vec<bool> = vec![false; cfg.len()];
        body[header.index()] = true;
        body[latch.index()] = true;
        let mut queue = std::collections::VecDeque::from([latch]);
        while let Some(b) = queue.pop_front() {
            for &p in &cfg.preds[b.index()] {
                if !body[p.index()] {
                    body[p.index()] = true;
                    queue.push_back(p);
                }
            }
        }
        let blocks: Vec<BlockId> = body
            .iter()
            .enumerate()
            .filter_map(|(i, &inb)| inb.then_some(BlockId(i as u32)))
            .collect();
        if let Some(existing) = regions.iter_mut().find(|(h, _)| *h == header) {
            for b in blocks {
                if !existing.1.contains(&b) {
                    existing.1.push(b);
                }
            }
        } else {
            regions.push((header, blocks));
        }
    }
    regions.into_iter().map(|(_, blocks)| blocks).collect()
}

/// The category string of a block region.
fn region_string(module: &Module, region: &[BlockId]) -> String {
    let Some(func) = module.handler() else {
        return String::new();
    };
    let set: HashSet<BlockId> = region.iter().copied().collect();
    let mut s = String::new();
    for b in &func.blocks {
        if !set.contains(&b.id) {
            continue;
        }
        for inst in &b.insts {
            s.push(category(inst));
        }
        s.push('|');
    }
    s
}

/// Manual features over a block region (or the whole function when the
/// region is empty).
fn manual_features(module: &Module, region: &[BlockId]) -> Vec<f64> {
    let Some(func) = module.handler() else {
        return vec![0.0; 8];
    };
    let loop_set: HashSet<BlockId> = region.iter().copied().collect();
    let use_loop = !loop_set.is_empty();

    let mut total = 0f64;
    let mut bitwise = 0f64;
    let mut xor = 0f64;
    let mut shift = 0f64;
    let mut loads = 0f64;
    let mut cmps = 0f64;
    let mut chase = 0f64;
    // Values derived from loads (pointer-chasing detection). Two passes so
    // loop-carried derivations (phi incomings defined later in block
    // order) are caught.
    let mut load_defs: HashSet<nf_ir::ValueId> = HashSet::new();
    let mut derived: HashSet<nf_ir::ValueId> = HashSet::new();
    for pass in 0..2 {
        let count = pass == 1;
        for b in &func.blocks {
            if use_loop && !loop_set.contains(&b.id) {
                continue;
            }
            for inst in &b.insts {
                if count {
                    total += 1.0;
                    match category(inst) {
                        'b' => bitwise += 1.0,
                        'x' => {
                            bitwise += 1.0;
                            xor += 1.0;
                        }
                        's' => shift += 1.0,
                        'c' => cmps += 1.0,
                        'l' => loads += 1.0,
                        _ => {}
                    }
                }
                let from_load = inst.operands().iter().any(|o| {
                    o.as_value()
                        .is_some_and(|v| load_defs.contains(&v) || derived.contains(&v))
                });
                if let Some(dst) = inst.dst() {
                    match inst {
                        Inst::Load { mem, .. } => {
                            load_defs.insert(dst);
                            // A load whose index is load-derived = chasing.
                            if count {
                                if let MemRef::Global {
                                    index: Some(idx), ..
                                } = mem
                                {
                                    if idx.as_value().is_some_and(|v| {
                                        load_defs.contains(&v) || derived.contains(&v)
                                    }) {
                                        chase += 1.0;
                                    }
                                }
                            }
                        }
                        _ if from_load => {
                            derived.insert(dst);
                        }
                        _ => {}
                    }
                }
            }
        }
    }
    let t = total.max(1.0);
    vec![
        bitwise / t,
        xor / t,
        shift / t,
        cmps / t,
        loads / t,
        chase / t.min(8.0),
        f64::from(u8::from(use_loop)),
        (total / 32.0).min(4.0),
    ]
}

/// Mined n-gram patterns with per-class discrimination power.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpePatterns {
    patterns: Vec<String>,
}

impl SpePatterns {
    /// Mines the top discriminative n-grams (n = 2..=4) from a labeled
    /// corpus: patterns with high support in some positive class and high
    /// confidence against the rest.
    pub fn mine(corpus: &[(Module, AlgoClass)], top_k: usize) -> SpePatterns {
        let mut per_class: BTreeMap<usize, BTreeMap<String, u32>> = BTreeMap::new();
        let mut class_sizes: BTreeMap<usize, u32> = BTreeMap::new();
        for (m, class) in corpus {
            for region in candidate_regions(m) {
                let s = region_string(m, &region);
                *class_sizes.entry(class.label()).or_insert(0) += 1;
                let grams = ngram_set(&s);
                let entry = per_class.entry(class.label()).or_default();
                for g in grams {
                    *entry.entry(g).or_insert(0) += 1;
                }
            }
        }
        let mut scored: Vec<(f64, String)> = Vec::new();
        for (&class, grams) in &per_class {
            if class == AlgoClass::None.label() {
                continue;
            }
            let n_pos = f64::from(*class_sizes.get(&class).unwrap_or(&1));
            for (g, &count) in grams {
                let support = f64::from(count) / n_pos;
                if support < 0.4 {
                    continue; // Must occur in many positive programs.
                }
                let neg: u32 = per_class
                    .iter()
                    .filter(|(&c, _)| c != class)
                    .map(|(_, other)| other.get(g).copied().unwrap_or(0))
                    .sum();
                let n_neg: u32 = class_sizes
                    .iter()
                    .filter(|(&c, _)| c != class)
                    .map(|(_, &n)| n)
                    .sum();
                let neg_rate = f64::from(neg) / f64::from(n_neg.max(1));
                let confidence = support / (support + neg_rate + 1e-9);
                scored.push((confidence * support, g.clone()));
            }
        }
        scored.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite"));
        let mut patterns: Vec<String> = Vec::new();
        for (_, g) in scored {
            if !patterns.contains(&g) {
                patterns.push(g);
            }
            if patterns.len() >= top_k {
                break;
            }
        }
        SpePatterns { patterns }
    }

    /// Number of mined patterns.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// True when mining found nothing.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// The feature vector of one block region of a module: mined-pattern
    /// frequencies plus the manual features.
    pub fn features(&self, module: &Module, region: &[BlockId]) -> Vec<f64> {
        let s = region_string(module, region);
        let len = s.len().max(1) as f64;
        let mut v: Vec<f64> = self
            .patterns
            .iter()
            .map(|p| count_occurrences(&s, p) as f64 / len * 16.0)
            .collect();
        v.extend(manual_features(module, region));
        v
    }
}

/// The classification units of a module: each natural loop, or the whole
/// handler when loopless.
pub fn candidate_regions(module: &Module) -> Vec<Vec<BlockId>> {
    let regions = loop_regions(module);
    if regions.is_empty() {
        let all: Vec<BlockId> = module
            .handler()
            .map(|f| f.blocks.iter().map(|b| b.id).collect())
            .unwrap_or_default();
        vec![all]
    } else {
        regions
    }
}

fn ngram_set(s: &str) -> HashSet<String> {
    let mut out = HashSet::new();
    let bytes: Vec<char> = s.chars().collect();
    for n in 2..=4usize {
        for w in bytes.windows(n) {
            if w.contains(&'|') {
                continue;
            }
            out.insert(w.iter().collect());
        }
    }
    out
}

fn count_occurrences(s: &str, pat: &str) -> usize {
    if pat.is_empty() || s.len() < pat.len() {
        return 0;
    }
    let sb: Vec<char> = s.chars().collect();
    let pb: Vec<char> = pat.chars().collect();
    sb.windows(pb.len()).filter(|w| *w == pb.as_slice()).count()
}

// ---------------------------------------------------------------------
// Classifiers
// ---------------------------------------------------------------------

/// The classifier family (Figure 9's contenders).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClassifierKind {
    /// Clara's SVM.
    ClaraSvm,
    /// k-nearest neighbours.
    Knn,
    /// Fully-connected network.
    Dnn,
    /// Single decision tree.
    Dt,
    /// Gradient-boosted trees.
    Gbdt,
    /// AutoML pipeline search.
    AutoMl,
}

impl ClassifierKind {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ClassifierKind::ClaraSvm => "Clara (SVM)",
            ClassifierKind::Knn => "kNN",
            ClassifierKind::Dnn => "DNN",
            ClassifierKind::Dt => "DT",
            ClassifierKind::Gbdt => "GBDT",
            ClassifierKind::AutoMl => "AutoML",
        }
    }
}

#[derive(Serialize, Deserialize)]
enum ClfModel {
    Svm(MultiSvm),
    Knn(Knn),
    Dnn(Mlp),
    Dt(ClassificationTree),
    Gbdt(GbdtClassifier),
    AutoMl(tinyml::automl::AutoMlClassifier),
}

/// A trained algorithm identifier.
#[derive(Serialize, Deserialize)]
pub struct AlgoIdentifier {
    patterns: SpePatterns,
    standardizer: tinyml::dataset::Standardizer,
    model: ClfModel,
    kind: ClassifierKind,
}

impl AlgoIdentifier {
    /// Trains on a labeled corpus.
    ///
    /// # Panics
    ///
    /// Panics if `corpus` is empty.
    pub fn train(
        corpus: &[(Module, AlgoClass)],
        kind: ClassifierKind,
        seed: u64,
    ) -> AlgoIdentifier {
        assert!(!corpus.is_empty(), "empty corpus");
        let patterns = SpePatterns::mine(corpus, 24);
        let mut raw: Vec<Vec<f64>> = Vec::new();
        let mut labels: Vec<usize> = Vec::new();
        for (m, class) in corpus {
            for region in candidate_regions(m) {
                raw.push(patterns.features(m, &region));
                labels.push(class.label());
            }
        }
        let standardizer = tinyml::dataset::Standardizer::fit(&raw);
        let x = standardizer.transform(&raw);

        let model = match kind {
            ClassifierKind::ClaraSvm => ClfModel::Svm(MultiSvm::fit(
                &x,
                &labels,
                AlgoClass::COUNT,
                &SvmConfig {
                    lambda: 1e-4,
                    epochs: 80,
                    seed,
                },
            )),
            ClassifierKind::Knn => ClfModel::Knn(Knn::fit(
                &x,
                &labels.iter().map(|&l| l as f64).collect::<Vec<_>>(),
                3,
            )),
            ClassifierKind::Dnn => {
                let mut m = Mlp::new(MlpConfig {
                    inputs: x[0].len(),
                    hidden: vec![32, 16],
                    outputs: AlgoClass::COUNT,
                    loss: Loss::Softmax,
                    lr: 0.02,
                    epochs: 60,
                    seed,
                });
                m.fit(&x, &labels.iter().map(|&l| l as f64).collect::<Vec<_>>());
                ClfModel::Dnn(m)
            }
            ClassifierKind::Dt => ClfModel::Dt(ClassificationTree::fit(
                &x,
                &labels,
                AlgoClass::COUNT,
                &TreeConfig::default(),
            )),
            ClassifierKind::Gbdt => ClfModel::Gbdt(GbdtClassifier::fit(
                &x,
                &labels,
                AlgoClass::COUNT,
                &GbdtConfig {
                    rounds: 40,
                    ..GbdtConfig::default()
                },
            )),
            ClassifierKind::AutoMl => ClfModel::AutoMl(tinyml::automl::AutoMlClassifier::search(
                &x,
                &labels,
                AlgoClass::COUNT,
                8,
                seed,
            )),
        };
        AlgoIdentifier {
            patterns,
            standardizer,
            model,
            kind,
        }
    }

    /// The classifier family used.
    pub fn kind(&self) -> ClassifierKind {
        self.kind
    }

    /// The raw (un-standardized) feature vector of a module's first
    /// candidate region (for visualization, e.g. Figure 10a).
    pub fn features(&self, module: &Module) -> Vec<f64> {
        let regions = candidate_regions(module);
        self.patterns.features(module, &regions[0])
    }

    fn classify_region(&self, module: &Module, region: &[BlockId]) -> AlgoClass {
        let mut f = self.patterns.features(module, region);
        self.standardizer.apply(&mut f);
        let label = match &self.model {
            ClfModel::Svm(m) => m.classify(&f),
            ClfModel::Knn(m) => m.classify(&f),
            ClfModel::Dnn(m) => m.classify(&f),
            ClfModel::Dt(m) => m.classify(&f),
            ClfModel::Gbdt(m) => m.classify(&f),
            ClfModel::AutoMl(m) => m.classify(&f),
        };
        AlgoClass::from_label(label)
    }

    /// Classifies each loop region of a module; returns the accelerator
    /// class and the union of the positively classified regions (the
    /// blocks a Clara port would hand to the engine).
    pub fn identify(&self, module: &Module) -> (AlgoClass, Vec<BlockId>) {
        let mut found = AlgoClass::None;
        let mut blocks: Vec<BlockId> = Vec::new();
        for region in loop_regions(module) {
            let class = self.classify_region(module, &region);
            if class != AlgoClass::None && (found == AlgoClass::None || class == found) {
                found = class;
                for b in region {
                    if !blocks.contains(&b) {
                        blocks.push(b);
                    }
                }
            }
        }
        (found, blocks)
    }
}

/// Matches an NF module against the accelerator variant catalog.
///
/// Where [`AlgoIdentifier`] learns the *class* of an algorithm from its
/// loop structure, this is the exact complement: a static scan for the
/// defining constants of named catalog variants ([`clara_accel::CATALOG`]),
/// so a port can be told not just "this is CRC" but "this is `crc32c`,
/// which the target device's menu does (not) implement". Returns matches
/// in catalog order.
pub fn match_catalog(module: &Module) -> Vec<&'static clara_accel::Variant> {
    clara_accel::match_constants(module)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinyml::metrics::micro_precision_recall;

    #[test]
    fn catalog_matching_names_reference_kernels() {
        for v in clara_accel::CATALOG.iter().filter(|v| v.poly != 0) {
            let m = clara_accel::reference_module(v);
            let hits = match_catalog(&m);
            assert!(
                hits.iter().any(|h| h.name == v.name),
                "{} not recovered from its reference kernel",
                v.name
            );
        }
        // aggcounter's bucket index is a golden-ratio multiply — the
        // matcher correctly names it hash-lookup3, and nothing else.
        let agg = click_model::elements::aggcounter().module;
        let hits: Vec<&str> = match_catalog(&agg).iter().map(|v| v.name).collect();
        assert_eq!(hits, ["hash-lookup3"]);
        // A header-rewriting NF with no algorithmic constants stays empty.
        let plain = click_model::elements::udpipencap().module;
        assert!(match_catalog(&plain).is_empty());
    }

    #[test]
    fn variant_modules_verify() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10 {
            for m in [
                crc_variant(&mut rng),
                lpm_variant(&mut rng),
                crypto_variant(&mut rng),
            ] {
                nf_ir::verify::verify_module(&m).unwrap_or_else(|e| panic!("{}: {e}", m.name));
            }
        }
    }

    #[test]
    fn variants_execute_within_step_limits() {
        use trafgen::{Trace, WorkloadSpec};
        let mut rng = StdRng::seed_from_u64(2);
        let trace = Trace::generate(&WorkloadSpec::large_flows(), 5, 1);
        for _ in 0..5 {
            for m in [
                crc_variant(&mut rng),
                lpm_variant(&mut rng),
                crypto_variant(&mut rng),
            ] {
                let mut machine = click_model::Machine::new(&m).expect("verifies");
                for p in &trace.pkts {
                    machine.run(p).unwrap_or_else(|e| panic!("{}: {e}", m.name));
                }
            }
        }
    }

    #[test]
    fn spe_mining_finds_crc_grams() {
        let corpus = labeled_corpus(20, 3);
        let pats = SpePatterns::mine(&corpus, 24);
        assert!(!pats.is_empty(), "no patterns mined");
        // CRC loops are xor/shift dense; some mined pattern must involve
        // 'x' or 's'.
        assert!(
            pats.patterns
                .iter()
                .any(|p| p.contains('x') || p.contains('s')),
            "{:?}",
            pats.patterns
        );
    }

    #[test]
    fn svm_identifies_held_out_variants() {
        let train = labeled_corpus(25, 4);
        let test = labeled_corpus(12, 5);
        let id = AlgoIdentifier::train(&train, ClassifierKind::ClaraSvm, 4);
        let truth: Vec<usize> = test.iter().map(|(_, c)| c.label()).collect();
        let preds: Vec<usize> = test.iter().map(|(m, _)| id.identify(m).0.label()).collect();
        let pr = micro_precision_recall(&truth, &preds, AlgoClass::None.label());
        assert!(pr.precision > 0.8, "precision {:.2}", pr.precision);
        assert!(pr.recall > 0.7, "recall {:.2}", pr.recall);
    }

    #[test]
    fn identifies_real_elements() {
        let train = labeled_corpus(25, 6);
        let id = AlgoIdentifier::train(&train, ClassifierKind::ClaraSvm, 6);
        let (c, region) = id.identify(&click_model::elements::cmsketch().module);
        assert_eq!(c, AlgoClass::Crc, "cmsketch should look like CRC");
        assert!(!region.is_empty());
        let (c, _) = id.identify(&click_model::elements::iplookup(256).module);
        assert_eq!(c, AlgoClass::Lpm, "iplookup should look like LPM");
        let (c, _) = id.identify(&click_model::elements::aggcounter().module);
        assert_eq!(c, AlgoClass::None, "aggcounter is no accelerator");
    }

    #[test]
    fn baselines_train() {
        let train = labeled_corpus(10, 7);
        for kind in [
            ClassifierKind::Knn,
            ClassifierKind::Dt,
            ClassifierKind::Gbdt,
        ] {
            let id = AlgoIdentifier::train(&train, kind, 7);
            let (c, _) = id.identify(&train[0].0);
            let _ = c;
        }
    }
}
