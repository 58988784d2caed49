//! Vocabulary compaction: abstracting instructions into a closed vocabulary.
//!
//! Per Section 3.2 of the paper, concrete operands would make the
//! instruction "language" unbounded, so Clara substitutes each operand with
//! its *kind* (`VAR`, or an immediate bucketed by magnitude — the magnitude
//! matters because the NIC compiler materializes large immediates with
//! extra instructions). Well-known packet header field names are preserved.
//! The result is a vocabulary of a few hundred distinct words, small enough
//! for one-hot encoding.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::inst::{Inst, MemRef, Operand, Term};
use crate::module::Block;

/// One word of the abstract instruction vocabulary.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct AbstractToken(pub String);

impl AbstractToken {
    fn new(s: impl Into<String>) -> AbstractToken {
        AbstractToken(s.into())
    }

    /// The token text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for AbstractToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

fn operand_kind(op: Operand) -> &'static str {
    match op {
        Operand::Value(_) => "var",
        Operand::Const(c) => {
            let mag = c.unsigned_abs();
            if c >= 0 && mag < 256 {
                "imm8"
            } else if mag < 65536 {
                "imm16"
            } else {
                "imm32"
            }
        }
    }
}

fn mem_kind(mem: &MemRef) -> String {
    match mem {
        MemRef::Stack { .. } => "stack".to_string(),
        MemRef::Global { index, offset, .. } => match (index, offset) {
            (None, _) => "global".to_string(),
            (Some(idx), _) => format!("global.idx_{}", operand_kind(*idx)),
        },
        MemRef::Pkt { field } => format!("pkt.{}", field.name()),
    }
}

/// Abstracts one instruction into its vocabulary token.
pub fn abstract_inst(inst: &Inst) -> AbstractToken {
    match inst {
        Inst::Bin {
            op, ty, lhs, rhs, ..
        } => AbstractToken::new(format!(
            "{}.{}.{}.{}",
            op.name(),
            ty.name(),
            operand_kind(*lhs),
            operand_kind(*rhs)
        )),
        Inst::Icmp {
            pred, ty, lhs, rhs, ..
        } => AbstractToken::new(format!(
            "icmp.{}.{}.{}.{}",
            pred.name(),
            ty.name(),
            operand_kind(*lhs),
            operand_kind(*rhs)
        )),
        Inst::Cast { op, from, to, .. } => {
            AbstractToken::new(format!("{}.{}.{}", op.name(), from.name(), to.name()))
        }
        Inst::Select { ty, .. } => AbstractToken::new(format!("select.{}", ty.name())),
        Inst::Load { ty, mem, .. } => {
            AbstractToken::new(format!("load.{}.{}", ty.name(), mem_kind(mem)))
        }
        Inst::Store { ty, val, mem } => AbstractToken::new(format!(
            "store.{}.{}.{}",
            ty.name(),
            operand_kind(*val),
            mem_kind(mem)
        )),
        Inst::Call { api, .. } => AbstractToken::new(format!("call.{}", api.name())),
        Inst::Phi { ty, incomings, .. } => {
            AbstractToken::new(format!("phi.{}.{}", ty.name(), incomings.len().min(4)))
        }
    }
}

/// Abstracts a terminator into its vocabulary token.
pub fn abstract_term(term: &Term) -> AbstractToken {
    match term {
        Term::Br { .. } => AbstractToken::new("br"),
        Term::CondBr { .. } => AbstractToken::new("condbr"),
        Term::Ret { .. } => AbstractToken::new("ret"),
    }
}

/// Abstracts a whole block into its token sequence (terminator included).
pub fn abstract_block(block: &Block) -> Vec<AbstractToken> {
    let mut seq: Vec<AbstractToken> = block.insts.iter().map(abstract_inst).collect();
    seq.push(abstract_term(&block.term));
    seq
}

/// A closed token vocabulary mapping tokens to dense indices.
///
/// Index 0 is reserved for the out-of-vocabulary token, so unseen tokens at
/// inference time still encode.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Vocabulary {
    index: HashMap<AbstractToken, usize>,
    tokens: Vec<AbstractToken>,
}

impl Vocabulary {
    /// Builds a vocabulary from token sequences (index 0 = `<unk>`).
    pub fn build<'a>(seqs: impl IntoIterator<Item = &'a [AbstractToken]>) -> Vocabulary {
        let mut v = Vocabulary::default();
        v.tokens.push(AbstractToken::new("<unk>"));
        for seq in seqs {
            for tok in seq {
                v.intern(tok);
            }
        }
        v
    }

    fn intern(&mut self, tok: &AbstractToken) -> usize {
        if let Some(&i) = self.index.get(tok) {
            return i;
        }
        let i = self.tokens.len();
        self.tokens.push(tok.clone());
        self.index.insert(tok.clone(), i);
        i
    }

    /// Number of distinct tokens (including `<unk>`).
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// True when only `<unk>` is present.
    pub fn is_empty(&self) -> bool {
        self.tokens.len() <= 1
    }

    /// Encodes a token (0 when out-of-vocabulary).
    pub fn encode_token(&self, tok: &AbstractToken) -> usize {
        self.index.get(tok).copied().unwrap_or(0)
    }

    /// Encodes a token sequence.
    pub fn encode(&self, seq: &[AbstractToken]) -> Vec<usize> {
        seq.iter().map(|t| self.encode_token(t)).collect()
    }

    /// The token at a given index, if any.
    pub fn token(&self, idx: usize) -> Option<&AbstractToken> {
        self.tokens.get(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{BinOp, PktField, ValueId};
    use crate::module::Ty;

    #[test]
    fn operands_are_abstracted_but_header_fields_kept() {
        let a = Inst::Bin {
            dst: ValueId(1),
            op: BinOp::Add,
            ty: Ty::I32,
            lhs: Operand::Value(ValueId(0)),
            rhs: Operand::Const(4),
        };
        let b = Inst::Bin {
            dst: ValueId(9),
            op: BinOp::Add,
            ty: Ty::I32,
            lhs: Operand::Value(ValueId(7)),
            rhs: Operand::Const(200),
        };
        // Same shape (var + small imm) => same token despite different names.
        assert_eq!(abstract_inst(&a), abstract_inst(&b));

        let big = Inst::Bin {
            dst: ValueId(2),
            op: BinOp::Add,
            ty: Ty::I32,
            lhs: Operand::Value(ValueId(0)),
            rhs: Operand::Const(1 << 20),
        };
        // Large immediates get a different token (they cost extra on NIC).
        assert_ne!(abstract_inst(&a), abstract_inst(&big));

        let ld = Inst::Load {
            dst: ValueId(3),
            ty: Ty::I16,
            mem: MemRef::pkt(PktField::IpLen),
        };
        assert_eq!(abstract_inst(&ld).as_str(), "load.i16.pkt.ip_len");
    }

    #[test]
    fn negative_immediates_are_not_imm8() {
        let neg = Inst::Bin {
            dst: ValueId(1),
            op: BinOp::Add,
            ty: Ty::I32,
            lhs: Operand::Value(ValueId(0)),
            rhs: Operand::Const(-2),
        };
        assert_eq!(abstract_inst(&neg).as_str(), "add.i32.var.imm16");
    }

    #[test]
    fn vocabulary_encodes_and_handles_oov() {
        let toks = vec![
            AbstractToken::new("add.i32.var.imm8"),
            AbstractToken::new("xor.i32.var.var"),
            AbstractToken::new("add.i32.var.imm8"),
        ];
        let v = Vocabulary::build([toks.as_slice()]);
        assert_eq!(v.len(), 3); // <unk> + 2 distinct
        let ids = v.encode(&toks);
        assert_eq!(ids, vec![1, 2, 1]);
        assert_eq!(v.encode_token(&AbstractToken::new("unseen")), 0);
        assert_eq!(v.token(1).unwrap().as_str(), "add.i32.var.imm8");
    }
}
