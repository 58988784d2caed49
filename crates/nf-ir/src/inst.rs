//! Instructions, operands, memory references, and framework API calls.

use serde::{Deserialize, Serialize};

use crate::module::{BlockId, GlobalId, Ty};

/// Identifier for an SSA value within a function.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct ValueId(pub u32);

impl ValueId {
    /// Index usable for dense per-value tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An instruction operand: an SSA value or an integer constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Operand {
    /// A previously defined SSA value.
    Value(ValueId),
    /// An integer constant.
    Const(i64),
}

impl Operand {
    /// Shorthand for a constant operand.
    pub fn imm(v: i64) -> Operand {
        Operand::Const(v)
    }

    /// Returns the value id if this operand is an SSA value.
    pub fn as_value(self) -> Option<ValueId> {
        match self {
            Operand::Value(v) => Some(v),
            Operand::Const(_) => None,
        }
    }
}

impl From<ValueId> for Operand {
    fn from(v: ValueId) -> Operand {
        Operand::Value(v)
    }
}

/// Binary integer operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Unsigned division (expensive on NIC cores: no divide unit).
    UDiv,
    /// Unsigned remainder.
    URem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left.
    Shl,
    /// Logical shift right.
    LShr,
    /// Arithmetic shift right.
    AShr,
}

impl BinOp {
    /// Textual mnemonic, matching the printer.
    pub fn name(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::UDiv => "udiv",
            BinOp::URem => "urem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::LShr => "lshr",
            BinOp::AShr => "ashr",
        }
    }

    /// Parses a mnemonic produced by [`BinOp::name`].
    pub fn from_name(s: &str) -> Option<BinOp> {
        Some(match s {
            "add" => BinOp::Add,
            "sub" => BinOp::Sub,
            "mul" => BinOp::Mul,
            "udiv" => BinOp::UDiv,
            "urem" => BinOp::URem,
            "and" => BinOp::And,
            "or" => BinOp::Or,
            "xor" => BinOp::Xor,
            "shl" => BinOp::Shl,
            "lshr" => BinOp::LShr,
            "ashr" => BinOp::AShr,
            _ => return None,
        })
    }

    /// Is this a shift operation (fusable into the NIC ALU's shifter)?
    pub fn is_shift(self) -> bool {
        matches!(self, BinOp::Shl | BinOp::LShr | BinOp::AShr)
    }

    /// All binary operations.
    pub const ALL: [BinOp; 11] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::UDiv,
        BinOp::URem,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Shl,
        BinOp::LShr,
        BinOp::AShr,
    ];
}

/// Comparison predicates for [`Inst::Icmp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Pred {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Unsigned less-than.
    ULt,
    /// Unsigned less-or-equal.
    ULe,
    /// Unsigned greater-than.
    UGt,
    /// Unsigned greater-or-equal.
    UGe,
    /// Signed less-than.
    SLt,
    /// Signed greater-than.
    SGt,
}

impl Pred {
    /// Textual mnemonic, matching the printer.
    pub fn name(self) -> &'static str {
        match self {
            Pred::Eq => "eq",
            Pred::Ne => "ne",
            Pred::ULt => "ult",
            Pred::ULe => "ule",
            Pred::UGt => "ugt",
            Pred::UGe => "uge",
            Pred::SLt => "slt",
            Pred::SGt => "sgt",
        }
    }

    /// Parses a mnemonic produced by [`Pred::name`].
    pub fn from_name(s: &str) -> Option<Pred> {
        Some(match s {
            "eq" => Pred::Eq,
            "ne" => Pred::Ne,
            "ult" => Pred::ULt,
            "ule" => Pred::ULe,
            "ugt" => Pred::UGt,
            "uge" => Pred::UGe,
            "slt" => Pred::SLt,
            "sgt" => Pred::SGt,
            _ => return None,
        })
    }

    /// All predicates.
    pub const ALL: [Pred; 8] = [
        Pred::Eq,
        Pred::Ne,
        Pred::ULt,
        Pred::ULe,
        Pred::UGt,
        Pred::UGe,
        Pred::SLt,
        Pred::SGt,
    ];
}

/// Integer width conversions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum CastOp {
    /// Zero extension.
    Zext,
    /// Sign extension.
    Sext,
    /// Truncation.
    Trunc,
}

impl CastOp {
    /// Textual mnemonic, matching the printer.
    pub fn name(self) -> &'static str {
        match self {
            CastOp::Zext => "zext",
            CastOp::Sext => "sext",
            CastOp::Trunc => "trunc",
        }
    }

    /// Parses a mnemonic produced by [`CastOp::name`].
    pub fn from_name(s: &str) -> Option<CastOp> {
        Some(match s {
            "zext" => CastOp::Zext,
            "sext" => CastOp::Sext,
            "trunc" => CastOp::Trunc,
            _ => return None,
        })
    }
}

/// Well-known packet header fields.
///
/// Per the paper's vocabulary compaction, header field *names* are preserved
/// in the abstract vocabulary (they carry performance signal — e.g., which
/// bytes of the packet are touched), while ordinary variable names are
/// abstracted away.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum PktField {
    /// Ethernet destination MAC (first 4 bytes as an integer view).
    EthDst,
    /// Ethernet source MAC (first 4 bytes as an integer view).
    EthSrc,
    /// Ethernet EtherType.
    EthType,
    /// IPv4 version + header length byte.
    IpVhl,
    /// IPv4 type-of-service byte.
    IpTos,
    /// IPv4 total length.
    IpLen,
    /// IPv4 identification field.
    IpId,
    /// IPv4 time-to-live byte.
    IpTtl,
    /// IPv4 protocol byte.
    IpProto,
    /// IPv4 header checksum.
    IpCsum,
    /// IPv4 source address.
    IpSrc,
    /// IPv4 destination address.
    IpDst,
    /// TCP source port.
    TcpSport,
    /// TCP destination port.
    TcpDport,
    /// TCP sequence number.
    TcpSeq,
    /// TCP acknowledgement number.
    TcpAck,
    /// TCP data offset + flags half-word.
    TcpOff,
    /// TCP flags byte.
    TcpFlags,
    /// TCP window size.
    TcpWin,
    /// TCP checksum.
    TcpCsum,
    /// UDP source port.
    UdpSport,
    /// UDP destination port.
    UdpDport,
    /// UDP length.
    UdpLen,
    /// UDP checksum.
    UdpCsum,
    /// Payload byte/word at a fixed offset past the transport header.
    Payload(u16),
}

impl PktField {
    /// Field name used by the printer and the abstract vocabulary.
    pub fn name(self) -> String {
        match self {
            PktField::EthDst => "eth_dst".into(),
            PktField::EthSrc => "eth_src".into(),
            PktField::EthType => "eth_type".into(),
            PktField::IpVhl => "ip_vhl".into(),
            PktField::IpTos => "ip_tos".into(),
            PktField::IpLen => "ip_len".into(),
            PktField::IpId => "ip_id".into(),
            PktField::IpTtl => "ip_ttl".into(),
            PktField::IpProto => "ip_proto".into(),
            PktField::IpCsum => "ip_csum".into(),
            PktField::IpSrc => "ip_src".into(),
            PktField::IpDst => "ip_dst".into(),
            PktField::TcpSport => "tcp_sport".into(),
            PktField::TcpDport => "tcp_dport".into(),
            PktField::TcpSeq => "tcp_seq".into(),
            PktField::TcpAck => "tcp_ack".into(),
            PktField::TcpOff => "tcp_off".into(),
            PktField::TcpFlags => "tcp_flags".into(),
            PktField::TcpWin => "tcp_win".into(),
            PktField::TcpCsum => "tcp_csum".into(),
            PktField::UdpSport => "udp_sport".into(),
            PktField::UdpDport => "udp_dport".into(),
            PktField::UdpLen => "udp_len".into(),
            PktField::UdpCsum => "udp_csum".into(),
            PktField::Payload(off) => format!("payload+{off}"),
        }
    }

    /// Parses a field name produced by [`PktField::name`].
    pub fn from_name(s: &str) -> Option<PktField> {
        if let Some(rest) = s.strip_prefix("payload+") {
            return rest.parse::<u16>().ok().map(PktField::Payload);
        }
        Some(match s {
            "eth_dst" => PktField::EthDst,
            "eth_src" => PktField::EthSrc,
            "eth_type" => PktField::EthType,
            "ip_vhl" => PktField::IpVhl,
            "ip_tos" => PktField::IpTos,
            "ip_len" => PktField::IpLen,
            "ip_id" => PktField::IpId,
            "ip_ttl" => PktField::IpTtl,
            "ip_proto" => PktField::IpProto,
            "ip_csum" => PktField::IpCsum,
            "ip_src" => PktField::IpSrc,
            "ip_dst" => PktField::IpDst,
            "tcp_sport" => PktField::TcpSport,
            "tcp_dport" => PktField::TcpDport,
            "tcp_seq" => PktField::TcpSeq,
            "tcp_ack" => PktField::TcpAck,
            "tcp_off" => PktField::TcpOff,
            "tcp_flags" => PktField::TcpFlags,
            "tcp_win" => PktField::TcpWin,
            "tcp_csum" => PktField::TcpCsum,
            "udp_sport" => PktField::UdpSport,
            "udp_dport" => PktField::UdpDport,
            "udp_len" => PktField::UdpLen,
            "udp_csum" => PktField::UdpCsum,
            _ => return None,
        })
    }

    /// Fixed header fields (excluding payload offsets), for enumeration.
    pub const HEADER_FIELDS: [PktField; 24] = [
        PktField::EthDst,
        PktField::EthSrc,
        PktField::EthType,
        PktField::IpVhl,
        PktField::IpTos,
        PktField::IpLen,
        PktField::IpId,
        PktField::IpTtl,
        PktField::IpProto,
        PktField::IpCsum,
        PktField::IpSrc,
        PktField::IpDst,
        PktField::TcpSport,
        PktField::TcpDport,
        PktField::TcpSeq,
        PktField::TcpAck,
        PktField::TcpOff,
        PktField::TcpFlags,
        PktField::TcpWin,
        PktField::TcpCsum,
        PktField::UdpSport,
        PktField::UdpDport,
        PktField::UdpLen,
        PktField::UdpCsum,
    ];
}

/// A memory reference: the address of a load or store.
///
/// The region is syntactically evident, which is what lets Clara classify
/// accesses as stateless (stack), stateful (global), or packet data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemRef {
    /// A function-local stack slot (stateless; register-allocatable).
    Stack {
        /// Slot number within the function.
        slot: u32,
    },
    /// A global data structure entry (stateful; lives in NIC memory).
    Global {
        /// The structure.
        global: GlobalId,
        /// Optional dynamic entry index (scaled by `entry_bytes`).
        index: Option<Operand>,
        /// Fixed byte offset within the entry.
        offset: u32,
    },
    /// A packet header/payload field (lives in packet memory, e.g. CTM).
    Pkt {
        /// The field.
        field: PktField,
    },
}

impl MemRef {
    /// Shorthand for a stack slot reference.
    pub fn stack(slot: u32) -> MemRef {
        MemRef::Stack { slot }
    }

    /// Shorthand for a scalar global reference (no index, offset 0).
    pub fn global(global: GlobalId) -> MemRef {
        MemRef::Global {
            global,
            index: None,
            offset: 0,
        }
    }

    /// Shorthand for an indexed global reference.
    pub fn global_at(global: GlobalId, index: impl Into<Operand>, offset: u32) -> MemRef {
        MemRef::Global {
            global,
            index: Some(index.into()),
            offset,
        }
    }

    /// Shorthand for a packet-field reference.
    pub fn pkt(field: PktField) -> MemRef {
        MemRef::Pkt { field }
    }
}

/// NF-framework API calls (the Click API surface Clara reverse-ports).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ApiCall {
    /// `Packet::ip_header()` — locate the IPv4 header.
    IpHeader,
    /// `Packet::tcp_header()` — locate the TCP header.
    TcpHeader,
    /// `Packet::udp_header()` — locate the UDP header.
    UdpHeader,
    /// `Packet::ether_header()` — locate the Ethernet header.
    EthHeader,
    /// `Packet::length()` — packet length in bytes.
    PktLen,
    /// `HashMap::find` on the given global.
    HashMapFind(GlobalId),
    /// `HashMap::insert` on the given global.
    HashMapInsert(GlobalId),
    /// `HashMap::erase` on the given global.
    HashMapErase(GlobalId),
    /// `Vector::at` on the given global.
    VectorGet(GlobalId),
    /// `Vector::push_back` on the given global.
    VectorPush(GlobalId),
    /// `Vector::erase` on the given global.
    VectorDelete(GlobalId),
    /// Flow-table lookup on the given global: probes the key's bucket,
    /// lazily expiring timed-out entries, and refreshes `last_seen` on a
    /// hit. Returns `slot + 1` on a hit, `0` on a miss.
    FlowLookup(GlobalId),
    /// Flow-table insert-or-refresh on the given global: refreshes a
    /// live entry for the key, otherwise claims a free/expired slot, and
    /// as a last resort evicts per the table's [`crate::EvictPolicy`].
    /// Returns `slot + 1`.
    FlowUpsert(GlobalId),
    /// Flow-table removal on the given global. Returns `slot + 1` if a
    /// live entry was removed, `0` otherwise.
    FlowRemove(GlobalId),
    /// Reads the given flow table's churn counter (lifetime evictions
    /// plus timeout expirations).
    FlowChurn(GlobalId),
    /// `Packet::send` to an output port.
    PktSend,
    /// Drop the packet.
    PktDrop,
    /// Recompute/patch the IP checksum incrementally.
    ChecksumUpdate,
    /// Full checksum over the packet payload.
    ChecksumFull,
    /// Read the element clock (`Timestamp::now`).
    Timestamp,
    /// Pseudo-random number (`click_random`).
    Random,
}

impl ApiCall {
    /// API name used by the printer and the abstract vocabulary.
    pub fn name(&self) -> &'static str {
        match self {
            ApiCall::IpHeader => "ip_header",
            ApiCall::TcpHeader => "tcp_header",
            ApiCall::UdpHeader => "udp_header",
            ApiCall::EthHeader => "eth_header",
            ApiCall::PktLen => "pkt_len",
            ApiCall::HashMapFind(_) => "hashmap_find",
            ApiCall::HashMapInsert(_) => "hashmap_insert",
            ApiCall::HashMapErase(_) => "hashmap_erase",
            ApiCall::VectorGet(_) => "vector_get",
            ApiCall::VectorPush(_) => "vector_push",
            ApiCall::VectorDelete(_) => "vector_delete",
            ApiCall::FlowLookup(_) => "flow_lookup",
            ApiCall::FlowUpsert(_) => "flow_upsert",
            ApiCall::FlowRemove(_) => "flow_remove",
            ApiCall::FlowChurn(_) => "flow_churn",
            ApiCall::PktSend => "pkt_send",
            ApiCall::PktDrop => "pkt_drop",
            ApiCall::ChecksumUpdate => "checksum_update",
            ApiCall::ChecksumFull => "checksum_full",
            ApiCall::Timestamp => "timestamp",
            ApiCall::Random => "random",
        }
    }

    /// The stateful structure this call operates on, if any.
    pub fn state_global(&self) -> Option<GlobalId> {
        match self {
            ApiCall::HashMapFind(g)
            | ApiCall::HashMapInsert(g)
            | ApiCall::HashMapErase(g)
            | ApiCall::VectorGet(g)
            | ApiCall::VectorPush(g)
            | ApiCall::VectorDelete(g)
            | ApiCall::FlowLookup(g)
            | ApiCall::FlowUpsert(g)
            | ApiCall::FlowRemove(g)
            | ApiCall::FlowChurn(g) => Some(*g),
            _ => None,
        }
    }

    /// Does this call return a value?
    pub fn has_result(&self) -> bool {
        !matches!(self, ApiCall::PktSend | ApiCall::PktDrop)
    }

    /// Number of arguments the framework ABI expects for this call.
    ///
    /// The interpreter enforces this exactly: a lowering that passes the
    /// wrong count gets a typed trace error instead of silently defaulted
    /// or ignored arguments.
    pub fn arity(&self) -> usize {
        match self {
            ApiCall::HashMapFind(_)
            | ApiCall::HashMapInsert(_)
            | ApiCall::HashMapErase(_)
            | ApiCall::VectorGet(_)
            | ApiCall::VectorDelete(_)
            | ApiCall::FlowLookup(_)
            | ApiCall::FlowUpsert(_)
            | ApiCall::FlowRemove(_)
            | ApiCall::PktSend => 1,
            _ => 0,
        }
    }
}

/// A non-terminator instruction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Inst {
    /// `dst = op ty lhs, rhs`.
    Bin {
        /// Result value.
        dst: ValueId,
        /// Operation.
        op: BinOp,
        /// Operand type.
        ty: Ty,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// `dst = icmp pred ty lhs, rhs` (dst has type `i1`).
    Icmp {
        /// Result value (boolean).
        dst: ValueId,
        /// Predicate.
        pred: Pred,
        /// Operand type.
        ty: Ty,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// `dst = castop from_ty src to to_ty`.
    Cast {
        /// Result value.
        dst: ValueId,
        /// Conversion kind.
        op: CastOp,
        /// Source type.
        from: Ty,
        /// Destination type.
        to: Ty,
        /// Source operand.
        src: Operand,
    },
    /// `dst = select cond, on_true, on_false`.
    Select {
        /// Result value.
        dst: ValueId,
        /// Result type.
        ty: Ty,
        /// Boolean condition.
        cond: Operand,
        /// Value when `cond` is true.
        on_true: Operand,
        /// Value when `cond` is false.
        on_false: Operand,
    },
    /// `dst = load ty, mem`.
    Load {
        /// Result value.
        dst: ValueId,
        /// Loaded type.
        ty: Ty,
        /// Address.
        mem: MemRef,
    },
    /// `store ty val, mem`.
    Store {
        /// Stored type.
        ty: Ty,
        /// Stored value.
        val: Operand,
        /// Address.
        mem: MemRef,
    },
    /// `dst = call api(args...)` — an NF-framework API call.
    Call {
        /// Result value (if the API returns one).
        dst: Option<ValueId>,
        /// The framework API being invoked.
        api: ApiCall,
        /// Arguments.
        args: Vec<Operand>,
    },
    /// `dst = phi ty [(bb, val), ...]`.
    Phi {
        /// Result value.
        dst: ValueId,
        /// Result type.
        ty: Ty,
        /// Incoming (predecessor block, value) pairs.
        incomings: Vec<(BlockId, Operand)>,
    },
}

/// A block terminator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Term {
    /// Unconditional branch.
    Br {
        /// Target block.
        target: BlockId,
    },
    /// Conditional branch.
    CondBr {
        /// Boolean condition.
        cond: Operand,
        /// Target when true.
        then_bb: BlockId,
        /// Target when false.
        else_bb: BlockId,
    },
    /// Function return.
    Ret {
        /// Optional return value.
        val: Option<Operand>,
    },
}

impl Term {
    /// Successor blocks of this terminator.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Term::Br { target } => vec![*target],
            Term::CondBr {
                then_bb, else_bb, ..
            } => vec![*then_bb, *else_bb],
            Term::Ret { .. } => Vec::new(),
        }
    }
}

/// Coarse classification of an instruction, per the paper's Figure 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InstClass {
    /// Stateless computation (ALU work, casts, selects, phis).
    Compute,
    /// Stateless memory: loads/stores to function-local stack slots.
    StackMem,
    /// Stateful memory: loads/stores to global data structures.
    StatefulMem,
    /// Packet-data access (header/payload bytes).
    PacketMem,
    /// NF-framework API call (handled by reverse porting).
    Api,
}

impl Inst {
    /// The result value defined by this instruction, if any.
    pub fn dst(&self) -> Option<ValueId> {
        match self {
            Inst::Bin { dst, .. }
            | Inst::Icmp { dst, .. }
            | Inst::Cast { dst, .. }
            | Inst::Select { dst, .. }
            | Inst::Load { dst, .. }
            | Inst::Phi { dst, .. } => Some(*dst),
            Inst::Store { .. } => None,
            Inst::Call { dst, .. } => *dst,
        }
    }

    /// All operands read by this instruction (including memory indices).
    pub fn operands(&self) -> Vec<Operand> {
        let mut out = Vec::new();
        match self {
            Inst::Bin { lhs, rhs, .. } | Inst::Icmp { lhs, rhs, .. } => {
                out.push(*lhs);
                out.push(*rhs);
            }
            Inst::Cast { src, .. } => out.push(*src),
            Inst::Select {
                cond,
                on_true,
                on_false,
                ..
            } => {
                out.push(*cond);
                out.push(*on_true);
                out.push(*on_false);
            }
            Inst::Load { mem, .. } => push_mem_operands(mem, &mut out),
            Inst::Store { val, mem, .. } => {
                out.push(*val);
                push_mem_operands(mem, &mut out);
            }
            Inst::Call { args, .. } => out.extend(args.iter().copied()),
            Inst::Phi { incomings, .. } => out.extend(incomings.iter().map(|(_, v)| *v)),
        }
        out
    }

    /// Classifies the instruction per the paper's compute/memory/API split.
    pub fn class(&self) -> InstClass {
        match self {
            Inst::Bin { .. }
            | Inst::Icmp { .. }
            | Inst::Cast { .. }
            | Inst::Select { .. }
            | Inst::Phi { .. } => InstClass::Compute,
            Inst::Load { mem, .. } | Inst::Store { mem, .. } => match mem {
                MemRef::Stack { .. } => InstClass::StackMem,
                MemRef::Global { .. } => InstClass::StatefulMem,
                MemRef::Pkt { .. } => InstClass::PacketMem,
            },
            Inst::Call { .. } => InstClass::Api,
        }
    }
}

fn push_mem_operands(mem: &MemRef, out: &mut Vec<Operand>) {
    if let MemRef::Global {
        index: Some(idx), ..
    } = mem
    {
        out.push(*idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_names_round_trip() {
        for op in BinOp::ALL {
            assert_eq!(BinOp::from_name(op.name()), Some(op));
        }
        assert_eq!(BinOp::from_name("frobnicate"), None);
    }

    #[test]
    fn pred_names_round_trip() {
        for p in Pred::ALL {
            assert_eq!(Pred::from_name(p.name()), Some(p));
        }
    }

    #[test]
    fn pkt_field_names_round_trip() {
        for f in PktField::HEADER_FIELDS {
            assert_eq!(PktField::from_name(&f.name()), Some(f));
        }
        assert_eq!(
            PktField::from_name("payload+12"),
            Some(PktField::Payload(12))
        );
        assert_eq!(PktField::from_name("payload+x"), None);
    }

    #[test]
    fn classification_follows_memory_region() {
        let stack = Inst::Load {
            dst: ValueId(1),
            ty: Ty::I32,
            mem: MemRef::stack(0),
        };
        assert_eq!(stack.class(), InstClass::StackMem);

        let global = Inst::Store {
            ty: Ty::I32,
            val: Operand::imm(1),
            mem: MemRef::global(GlobalId(0)),
        };
        assert_eq!(global.class(), InstClass::StatefulMem);

        let pkt = Inst::Load {
            dst: ValueId(2),
            ty: Ty::I16,
            mem: MemRef::pkt(PktField::IpLen),
        };
        assert_eq!(pkt.class(), InstClass::PacketMem);

        let alu = Inst::Bin {
            dst: ValueId(3),
            op: BinOp::Xor,
            ty: Ty::I32,
            lhs: Operand::Value(ValueId(1)),
            rhs: Operand::imm(0xff),
        };
        assert_eq!(alu.class(), InstClass::Compute);
    }

    #[test]
    fn operands_include_memory_indices() {
        let inst = Inst::Store {
            ty: Ty::I32,
            val: Operand::Value(ValueId(5)),
            mem: MemRef::global_at(GlobalId(0), ValueId(6), 4),
        };
        let ops = inst.operands();
        assert!(ops.contains(&Operand::Value(ValueId(5))));
        assert!(ops.contains(&Operand::Value(ValueId(6))));
    }

    #[test]
    fn term_successors() {
        assert_eq!(
            Term::Br { target: BlockId(3) }.successors(),
            vec![BlockId(3)]
        );
        assert_eq!(Term::Ret { val: None }.successors(), Vec::<BlockId>::new());
    }
}
