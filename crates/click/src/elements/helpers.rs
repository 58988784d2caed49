//! Shared IR-construction helpers for the element corpus.

use nf_ir::{ApiCall, BinOp, FunctionBuilder, MemRef, Operand, PktField, Ty};

/// Loads the flow key (`ip_src ^ rotl(ip_dst) ^ ports`) — the canonical
/// 5-tuple mix most stateful elements key their tables on.
pub fn flow_key(fb: &mut FunctionBuilder) -> Operand {
    let src = fb.load(Ty::I32, MemRef::pkt(PktField::IpSrc));
    let dst = fb.load(Ty::I32, MemRef::pkt(PktField::IpDst));
    let sport = fb.load(Ty::I16, MemRef::pkt(PktField::TcpSport));
    let dport = fb.load(Ty::I16, MemRef::pkt(PktField::TcpDport));
    let d1 = fb.bin(BinOp::Shl, Ty::I32, dst, Operand::imm(7));
    let d2 = fb.bin(BinOp::LShr, Ty::I32, dst, Operand::imm(25));
    let drot = fb.bin(BinOp::Or, Ty::I32, d1, d2);
    let k1 = fb.bin(BinOp::Xor, Ty::I32, src, drot);
    let sp32 = fb.cast(nf_ir::CastOp::Zext, Ty::I16, Ty::I32, sport);
    let dp32 = fb.cast(nf_ir::CastOp::Zext, Ty::I16, Ty::I32, dport);
    let pmix = fb.bin(BinOp::Shl, Ty::I32, sp32, Operand::imm(16));
    let ports = fb.bin(BinOp::Or, Ty::I32, pmix, dp32);
    fb.bin(BinOp::Xor, Ty::I32, k1, ports)
}

/// Emits `checksum_update(); pkt_send(port); ret` in the current block.
pub fn csum_send_ret(fb: &mut FunctionBuilder, port: i64) {
    let _ = fb.call(ApiCall::ChecksumUpdate, vec![]);
    let _ = fb.call(ApiCall::PktSend, vec![Operand::imm(port)]);
    fb.ret(None);
}

/// Emits `pkt_send(port); ret` in the current block.
pub fn send_ret(fb: &mut FunctionBuilder, port: i64) {
    let _ = fb.call(ApiCall::PktSend, vec![Operand::imm(port)]);
    fb.ret(None);
}

/// Emits `pkt_drop(); ret` in the current block.
pub fn drop_ret(fb: &mut FunctionBuilder) {
    let _ = fb.call(ApiCall::PktDrop, vec![]);
    fb.ret(None);
}

/// Converts a 1-based slot handle returned by `hashmap_find`/`insert`
/// into a 0-based entry index.
pub fn slot_index(fb: &mut FunctionBuilder, handle: Operand) -> Operand {
    fb.bin(BinOp::Sub, Ty::I32, handle, Operand::imm(1))
}

/// Rewires the `phi_pos`-th instruction of `head` (which must be a phi) so
/// its incoming value from `latch` becomes `value`.
///
/// [`FunctionBuilder`] has no forward references, so loop-carried phis are
/// created with placeholder incomings and patched once the latch value
/// exists.
///
/// # Panics
///
/// Panics if the instruction at `phi_pos` is not a phi with a `latch`
/// incoming.
pub fn set_phi_incoming(
    f: &mut nf_ir::Function,
    head: nf_ir::BlockId,
    phi_pos: usize,
    latch: nf_ir::BlockId,
    value: Operand,
) {
    let inst = &mut f.blocks[head.index()].insts[phi_pos];
    if let nf_ir::Inst::Phi { incomings, .. } = inst {
        for (bb, v) in incomings.iter_mut() {
            if *bb == latch {
                *v = value;
                return;
            }
        }
    }
    panic!(
        "no phi with latch incoming at bb{} position {phi_pos}",
        head.0
    );
}
