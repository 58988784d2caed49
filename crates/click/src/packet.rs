//! Mutable packet header views.

use std::fmt;

use nf_ir::PktField;
use trafgen::{Packet, Proto};

/// Number of fixed header fields ([`PktField::HEADER_FIELDS`]).
const HEADERS: usize = PktField::HEADER_FIELDS.len();

/// A mutable view of one packet's header fields and payload.
///
/// Header fields are materialized from the immutable trace packet on
/// construction; NF code can then read and rewrite them (NAT address
/// rewriting, TTL decrements, checksum patches). They live in a fixed
/// array indexed by position in [`PktField::HEADER_FIELDS`], with a
/// bitmask of which fields the packet carries, so building a view and
/// reading a field never allocate or hash. Payload bytes are generated
/// lazily from the packet's deterministic seed, with a sparse overlay for
/// writes that holds its first bytes inline.
#[derive(Debug, Clone)]
pub struct PacketView {
    /// The underlying trace packet.
    pub base: Packet,
    /// Header values by [`header_index`]; 0 where absent.
    fields: [u64; HEADERS],
    /// Bit `i` set ⇔ header `i` is present (materialized or written).
    present: u32,
    payload_overlay: PayloadOverlay,
    /// Output port chosen by `pkt_send` (None until sent/dropped).
    pub verdict: Option<Verdict>,
}

/// What the NF decided to do with the packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Forwarded to an output port.
    Sent(u16),
    /// Dropped.
    Dropped,
}

impl PacketView {
    /// Builds the view, materializing header fields from the trace packet.
    pub fn new(pkt: &Packet) -> PacketView {
        let mut v = PacketView {
            base: *pkt,
            fields: [0; HEADERS],
            present: 0,
            payload_overlay: PayloadOverlay::new(),
            verdict: None,
        };
        let f = pkt.flow;
        let ip_len = u64::from(pkt.size.saturating_sub(14));
        v.set(PktField::EthDst, 0x00aa_bb01);
        v.set(PktField::EthSrc, 0x00cc_dd02);
        v.set(PktField::EthType, 0x0800);
        v.set(PktField::IpVhl, 0x45);
        v.set(PktField::IpTos, 0);
        v.set(PktField::IpLen, ip_len);
        v.set(PktField::IpId, u64::from(pkt.seq & 0xffff));
        v.set(PktField::IpTtl, u64::from(pkt.ttl));
        v.set(PktField::IpProto, u64::from(f.proto.number()));
        v.set(PktField::IpCsum, 0xbeef);
        v.set(PktField::IpSrc, u64::from(f.src_ip));
        v.set(PktField::IpDst, u64::from(f.dst_ip));
        match f.proto {
            Proto::Tcp => {
                v.set(PktField::TcpSport, u64::from(f.src_port));
                v.set(PktField::TcpDport, u64::from(f.dst_port));
                v.set(PktField::TcpSeq, u64::from(pkt.seq));
                v.set(PktField::TcpAck, u64::from(pkt.seq.wrapping_add(1)));
                v.set(PktField::TcpOff, 0x50);
                v.set(PktField::TcpFlags, u64::from(pkt.tcp_flags));
                v.set(PktField::TcpWin, 0xffff);
                v.set(PktField::TcpCsum, 0xcafe);
            }
            Proto::Udp => {
                v.set(PktField::UdpSport, u64::from(f.src_port));
                v.set(PktField::UdpDport, u64::from(f.dst_port));
                v.set(PktField::UdpLen, u64::from(pkt.size.saturating_sub(34)));
                v.set(PktField::UdpCsum, 0xfeed);
            }
        }
        v
    }

    /// Reads a header field or payload word (0 for absent fields, e.g.
    /// TCP fields of a UDP packet).
    pub fn get(&self, field: PktField) -> u64 {
        match field {
            PktField::Payload(off) => {
                let mut word = 0u64;
                for i in 0..4u16 {
                    let b = self
                        .payload_overlay
                        .get(off + i)
                        .unwrap_or_else(|| self.base.payload_byte(off + i));
                    word = (word << 8) | u64::from(b);
                }
                word
            }
            _ => header_index(field).map_or(0, |i| self.fields[i]),
        }
    }

    /// Writes a header field or payload word.
    pub fn set(&mut self, field: PktField, value: u64) {
        match field {
            PktField::Payload(off) => {
                for i in 0..4u16 {
                    let byte = ((value >> (8 * (3 - i))) & 0xff) as u8;
                    self.payload_overlay.set(off + i, byte);
                }
            }
            _ => {
                if let Some(i) = header_index(field) {
                    self.fields[i] = value;
                    self.present |= 1 << i;
                }
            }
        }
    }

    /// Packet length in bytes.
    pub fn len(&self) -> u16 {
        self.base.size
    }

    /// Packets are never empty (minimum 64-byte frames).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Payload length in bytes.
    pub fn payload_len(&self) -> u16 {
        self.base.payload_len()
    }

    /// A deterministic snapshot of every observable packet output: header
    /// fields and payload-overlay bytes in sorted order, plus the
    /// verdict. Two executions emitted the same packet iff their
    /// snapshots are equal — this is what "emitted packets agree" means
    /// for the difftest oracle.
    pub fn snapshot(&self) -> PacketSnapshot {
        // `HEADER_FIELDS` is in `PktField` order, so index order is sorted.
        let fields = PktField::HEADER_FIELDS
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.present & (1 << i) != 0)
            .map(|(i, &f)| (f, self.fields[i]))
            .collect();
        let payload = self.payload_overlay.bytes().to_vec();
        PacketSnapshot {
            fields,
            payload,
            verdict: self.verdict,
        }
    }
}

/// Payload bytes a [`PacketView`] holds without allocating: four words,
/// more than any corpus NF (or a chain of them) rewrites per packet.
const INLINE_PAYLOAD: usize = 16;

/// Rewritten payload bytes as `(offset, byte)`, sorted by offset. The
/// first [`INLINE_PAYLOAD`] live in the view itself; a packet that
/// rewrites more moves them all to the heap.
#[derive(Clone)]
struct PayloadOverlay {
    /// Bytes in use of `inline`, while nothing has spilled.
    len: usize,
    inline: [(u16, u8); INLINE_PAYLOAD],
    /// Every byte, once there were more than `inline` holds.
    spill: Vec<(u16, u8)>,
}

impl PayloadOverlay {
    fn new() -> PayloadOverlay {
        PayloadOverlay {
            len: 0,
            inline: [(0, 0); INLINE_PAYLOAD],
            spill: Vec::new(),
        }
    }

    /// The rewritten bytes, sorted by offset.
    fn bytes(&self) -> &[(u16, u8)] {
        if self.spill.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }

    fn get(&self, off: u16) -> Option<u8> {
        let bytes = self.bytes();
        let i = bytes.binary_search_by_key(&off, |&(o, _)| o).ok()?;
        Some(bytes[i].1)
    }

    fn set(&mut self, off: u16, byte: u8) {
        if !self.spill.is_empty() {
            match self.spill.binary_search_by_key(&off, |&(o, _)| o) {
                Ok(i) => self.spill[i].1 = byte,
                Err(i) => self.spill.insert(i, (off, byte)),
            }
            return;
        }
        match self.inline[..self.len].binary_search_by_key(&off, |&(o, _)| o) {
            Ok(i) => self.inline[i].1 = byte,
            Err(i) if self.len < INLINE_PAYLOAD => {
                self.inline.copy_within(i..self.len, i + 1);
                self.inline[i] = (off, byte);
                self.len += 1;
            }
            Err(i) => {
                let mut spill = Vec::with_capacity(2 * INLINE_PAYLOAD);
                spill.extend_from_slice(&self.inline[..i]);
                spill.push((off, byte));
                spill.extend_from_slice(&self.inline[i..]);
                self.spill = spill;
            }
        }
    }
}

/// Renders as the offset → byte map it holds.
impl fmt::Debug for PayloadOverlay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.bytes().iter().map(|(o, b)| (o, b)))
            .finish()
    }
}

/// Position of a header field in [`PktField::HEADER_FIELDS`]; `None` for
/// payload offsets.
fn header_index(field: PktField) -> Option<usize> {
    Some(match field {
        PktField::EthDst => 0,
        PktField::EthSrc => 1,
        PktField::EthType => 2,
        PktField::IpVhl => 3,
        PktField::IpTos => 4,
        PktField::IpLen => 5,
        PktField::IpId => 6,
        PktField::IpTtl => 7,
        PktField::IpProto => 8,
        PktField::IpCsum => 9,
        PktField::IpSrc => 10,
        PktField::IpDst => 11,
        PktField::TcpSport => 12,
        PktField::TcpDport => 13,
        PktField::TcpSeq => 14,
        PktField::TcpAck => 15,
        PktField::TcpOff => 16,
        PktField::TcpFlags => 17,
        PktField::TcpWin => 18,
        PktField::TcpCsum => 19,
        PktField::UdpSport => 20,
        PktField::UdpDport => 21,
        PktField::UdpLen => 22,
        PktField::UdpCsum => 23,
        PktField::Payload(_) => return None,
    })
}

/// Canonical, order-independent image of a packet's observable outputs
/// (see [`PacketView::snapshot`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketSnapshot {
    /// Header fields, sorted by field.
    pub fields: Vec<(PktField, u64)>,
    /// Rewritten payload bytes, sorted by offset.
    pub payload: Vec<(u16, u8)>,
    /// What the NF decided to do with the packet.
    pub verdict: Option<Verdict>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use trafgen::{FlowKey, TCP_SYN};

    fn pkt() -> Packet {
        Packet {
            flow: FlowKey {
                src_ip: 0x0a000001,
                dst_ip: 0xc0a80101,
                src_port: 1234,
                dst_port: 80,
                proto: Proto::Tcp,
            },
            flow_id: 0,
            size: 128,
            tcp_flags: TCP_SYN,
            seq: 42,
            ttl: 64,
            payload_seed: 9,
        }
    }

    #[test]
    fn fields_materialize_from_packet() {
        let v = PacketView::new(&pkt());
        assert_eq!(v.get(PktField::IpSrc), 0x0a000001);
        assert_eq!(v.get(PktField::TcpDport), 80);
        assert_eq!(v.get(PktField::IpLen), 128 - 14);
        assert_eq!(v.get(PktField::IpTtl), 64);
    }

    #[test]
    fn writes_are_visible() {
        let mut v = PacketView::new(&pkt());
        v.set(PktField::IpDst, 0x0a000099);
        assert_eq!(v.get(PktField::IpDst), 0x0a000099);
    }

    #[test]
    fn udp_packet_has_no_tcp_fields() {
        let mut p = pkt();
        p.flow.proto = Proto::Udp;
        p.tcp_flags = 0;
        let v = PacketView::new(&p);
        assert_eq!(v.get(PktField::TcpSeq), 0);
        assert_eq!(v.get(PktField::UdpSport), 1234);
    }

    #[test]
    fn payload_words_read_and_write() {
        let mut v = PacketView::new(&pkt());
        let orig = v.get(PktField::Payload(4));
        v.set(PktField::Payload(4), 0xdeadbeef);
        assert_eq!(v.get(PktField::Payload(4)), 0xdeadbeef);
        assert_ne!(orig, 0xdeadbeef_u64.wrapping_add(1));
        // Adjacent unwritten bytes still come from the seed.
        let _ = v.get(PktField::Payload(8));
    }

    #[test]
    fn header_index_matches_the_sorted_field_list() {
        for (i, &f) in PktField::HEADER_FIELDS.iter().enumerate() {
            assert_eq!(header_index(f), Some(i), "{f:?}");
        }
        assert!(PktField::HEADER_FIELDS.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(header_index(PktField::Payload(0)), None);
    }

    fn names(s: &PacketSnapshot) -> Vec<String> {
        s.fields.iter().map(|(f, _)| f.name()).collect()
    }

    #[test]
    fn tcp_snapshot_reports_exactly_the_eth_ip_tcp_fields() {
        let s = PacketView::new(&pkt()).snapshot();
        assert_eq!(
            names(&s),
            [
                "eth_dst",
                "eth_src",
                "eth_type",
                "ip_vhl",
                "ip_tos",
                "ip_len",
                "ip_id",
                "ip_ttl",
                "ip_proto",
                "ip_csum",
                "ip_src",
                "ip_dst",
                "tcp_sport",
                "tcp_dport",
                "tcp_seq",
                "tcp_ack",
                "tcp_off",
                "tcp_flags",
                "tcp_win",
                "tcp_csum",
            ]
        );
        assert_eq!(s.fields[12], (PktField::TcpSport, 1234));
        assert_eq!(s.fields[14], (PktField::TcpSeq, 42));
        assert_eq!(s.fields[15], (PktField::TcpAck, 43));
        assert!(s.payload.is_empty());
        assert_eq!(s.verdict, None);
    }

    #[test]
    fn udp_snapshot_reports_exactly_the_eth_ip_udp_fields() {
        let mut p = pkt();
        p.flow.proto = Proto::Udp;
        let s = PacketView::new(&p).snapshot();
        assert_eq!(
            names(&s),
            [
                "eth_dst",
                "eth_src",
                "eth_type",
                "ip_vhl",
                "ip_tos",
                "ip_len",
                "ip_id",
                "ip_ttl",
                "ip_proto",
                "ip_csum",
                "ip_src",
                "ip_dst",
                "udp_sport",
                "udp_dport",
                "udp_len",
                "udp_csum",
            ]
        );
        assert_eq!(s.fields[8], (PktField::IpProto, 17));
        assert_eq!(s.fields[14], (PktField::UdpLen, 128 - 34));
    }

    #[test]
    fn writing_an_absent_field_makes_it_appear_in_sorted_order() {
        let mut p = pkt();
        p.flow.proto = Proto::Udp;
        let mut v = PacketView::new(&p);
        v.set(PktField::TcpSeq, 0);
        v.set(PktField::Payload(9), 0x0102_0304);
        v.set(PktField::Payload(2), 0xaabb_ccdd);
        let s = v.snapshot();
        assert_eq!(s.fields.len(), 17);
        assert_eq!(s.fields[12], (PktField::TcpSeq, 0));
        assert!(s.fields.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(
            s.payload,
            [
                (2, 0xaa),
                (3, 0xbb),
                (4, 0xcc),
                (5, 0xdd),
                (9, 1),
                (10, 2),
                (11, 3),
                (12, 4)
            ]
        );
    }

    #[test]
    fn payload_writes_past_the_inline_bytes_keep_reads_and_order() {
        // Overlapping, out-of-order and repeated words: more bytes than
        // the view holds inline, checked against a map of the same writes.
        let mut v = PacketView::new(&pkt());
        let mut want = std::collections::BTreeMap::new();
        for (k, off) in [40u16, 0, 20, 8, 32, 4, 22, 12, 0, 60]
            .into_iter()
            .enumerate()
        {
            let word = 0x1122_3344u64.wrapping_mul(k as u64 + 1) & 0xffff_ffff;
            v.set(PktField::Payload(off), word);
            for i in 0..4u16 {
                want.insert(off + i, ((word >> (8 * (3 - i))) & 0xff) as u8);
            }
            assert_eq!(v.get(PktField::Payload(off)), word);
        }
        assert!(want.len() > INLINE_PAYLOAD);
        let got = v.snapshot().payload;
        assert_eq!(got, want.into_iter().collect::<Vec<_>>());
        // Unwritten bytes still come from the seed.
        let fresh = PacketView::new(&pkt());
        assert_eq!(
            v.get(PktField::Payload(100)),
            fresh.get(PktField::Payload(100))
        );
    }
}
