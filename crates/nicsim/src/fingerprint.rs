//! Cheap content fingerprints for memoization keys.
//!
//! `clara-core`'s evaluation engine memoizes vendor compiles and
//! profiling runs across threads. The cache keys come from here:
//!
//! - a module is fingerprinted by hashing its canonical printed IR, which
//!   is a total function of everything the compiler and profiler consume
//!   (globals, functions, blocks, instructions, in order);
//! - a trace is fingerprinted by hashing a fixed little-endian encoding
//!   of its workload spec and every packet field — no serialization, no
//!   allocation.

use nf_ir::Module;
use trafgen::{FlowDist, FlowKey, Packet, PktSizeDist, Trace, WorkloadSpec};

/// Incremental FNV-1a: stable across runs and platforms, unlike `std`'s
/// randomized `DefaultHasher`.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf29ce484222325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    fn u8(&mut self, v: u8) {
        self.bytes(&[v]);
    }

    fn u16(&mut self, v: u16) {
        self.bytes(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

/// FNV-1a over a byte string.
pub fn fingerprint_bytes(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.bytes(bytes);
    h.0
}

/// Content fingerprint of a module: equal printed IR ⇒ equal fingerprint.
///
/// Printing is linear in module size and far cheaper than a compile or a
/// profiling run, which is what makes it usable as a memo key.
pub fn module_fingerprint(module: &Module) -> u64 {
    fingerprint_bytes(nf_ir::print::module(module).as_bytes())
}

/// Content fingerprint of a trace: equal spec and packets ⇒ equal
/// fingerprint.
///
/// Every field is written at a fixed width (strings and the packet list
/// length-prefixed, enum variants tagged), so the encoding is injective.
/// The structs are destructured exhaustively: adding a field to any of
/// them fails to compile here instead of silently colliding cache keys.
pub fn trace_fingerprint(trace: &Trace) -> u64 {
    let Trace { spec, pkts } = trace;
    let WorkloadSpec {
        name,
        flows,
        flow_dist,
        pkt_size,
        syn_ratio,
        tcp_ratio,
        rate_mpps,
    } = spec;
    let mut h = Fnv::new();
    h.u64(name.len() as u64);
    h.bytes(name.as_bytes());
    h.u32(*flows);
    match *flow_dist {
        FlowDist::Uniform => h.u8(0),
        FlowDist::Zipf { s } => {
            h.u8(1);
            h.f64(s);
        }
    }
    match *pkt_size {
        PktSizeDist::Fixed(size) => {
            h.u8(0);
            h.u16(size);
        }
        PktSizeDist::Bimodal {
            small,
            large,
            small_frac,
        } => {
            h.u8(1);
            h.u16(small);
            h.u16(large);
            h.f64(small_frac);
        }
        PktSizeDist::Uniform { min, max } => {
            h.u8(2);
            h.u16(min);
            h.u16(max);
        }
    }
    h.f64(*syn_ratio);
    h.f64(*tcp_ratio);
    h.f64(*rate_mpps);
    h.u64(pkts.len() as u64);
    for pkt in pkts {
        let Packet {
            flow,
            flow_id,
            size,
            tcp_flags,
            seq,
            ttl,
            payload_seed,
        } = *pkt;
        let FlowKey {
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            proto,
        } = flow;
        h.u32(src_ip);
        h.u32(dst_ip);
        h.u16(src_port);
        h.u16(dst_port);
        h.u8(proto.number());
        h.u32(flow_id);
        h.u16(size);
        h.u8(tcp_flags);
        h.u32(seq);
        h.u8(ttl);
        h.u64(payload_seed);
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use trafgen::Proto;

    #[test]
    fn equal_modules_collide_and_different_modules_do_not() {
        let a = click_model::elements::cmsketch().module;
        let b = click_model::elements::cmsketch().module;
        let c = click_model::elements::aggcounter().module;
        assert_eq!(module_fingerprint(&a), module_fingerprint(&b));
        assert_ne!(module_fingerprint(&a), module_fingerprint(&c));
    }

    #[test]
    fn fingerprint_is_stable() {
        // Pin the FNV-1a constants: a silent change would invalidate any
        // externally persisted cache keyed on these fingerprints.
        assert_eq!(fingerprint_bytes(b""), 0xcbf29ce484222325);
        assert_eq!(fingerprint_bytes(b"a"), 0xaf63dc4c8601ec8c);
    }

    #[test]
    fn equal_traces_collide() {
        let a = Trace::generate(&WorkloadSpec::large_flows(), 50, 3);
        let b = Trace::generate(&WorkloadSpec::large_flows(), 50, 3);
        assert_eq!(trace_fingerprint(&a), trace_fingerprint(&b));
        assert_ne!(
            trace_fingerprint(&a),
            trace_fingerprint(&Trace::generate(&WorkloadSpec::large_flows(), 50, 4))
        );
    }

    #[test]
    fn every_field_reaches_the_trace_key() {
        let base = Trace::generate(&WorkloadSpec::imix(), 8, 5);
        let key = trace_fingerprint(&base);
        type Edit = fn(&mut Trace);
        let edits: &[(&str, Edit)] = &[
            ("spec.name", |t| t.spec.name.push('x')),
            ("spec.flows", |t| t.spec.flows += 1),
            ("spec.flow_dist", |t| t.spec.flow_dist = FlowDist::Uniform),
            ("spec.flow_dist.s", |t| {
                t.spec.flow_dist = FlowDist::Zipf { s: 0.95 }
            }),
            ("spec.pkt_size", |t| {
                t.spec.pkt_size = PktSizeDist::Fixed(64)
            }),
            ("spec.pkt_size.small", |t| {
                t.spec.pkt_size = PktSizeDist::Bimodal {
                    small: 65,
                    large: 1400,
                    small_frac: 0.6,
                }
            }),
            ("spec.pkt_size.large", |t| {
                t.spec.pkt_size = PktSizeDist::Bimodal {
                    small: 64,
                    large: 1401,
                    small_frac: 0.6,
                }
            }),
            ("spec.pkt_size.small_frac", |t| {
                t.spec.pkt_size = PktSizeDist::Bimodal {
                    small: 64,
                    large: 1400,
                    small_frac: 0.5,
                }
            }),
            ("spec.pkt_size.uniform", |t| {
                t.spec.pkt_size = PktSizeDist::Uniform { min: 64, max: 1400 }
            }),
            ("spec.syn_ratio", |t| t.spec.syn_ratio += 0.01),
            ("spec.tcp_ratio", |t| t.spec.tcp_ratio -= 0.01),
            ("spec.rate_mpps", |t| t.spec.rate_mpps += 1.0),
            ("pkts.len", |t| {
                t.pkts.pop();
            }),
            ("pkt.flow.src_ip", |t| t.pkts[3].flow.src_ip ^= 1),
            ("pkt.flow.dst_ip", |t| t.pkts[3].flow.dst_ip ^= 1),
            ("pkt.flow.src_port", |t| t.pkts[3].flow.src_port ^= 1),
            ("pkt.flow.dst_port", |t| t.pkts[3].flow.dst_port ^= 1),
            ("pkt.flow.proto", |t| {
                let p = &mut t.pkts[3].flow.proto;
                *p = if *p == Proto::Tcp {
                    Proto::Udp
                } else {
                    Proto::Tcp
                };
            }),
            ("pkt.flow_id", |t| t.pkts[3].flow_id += 1),
            ("pkt.size", |t| t.pkts[3].size += 1),
            ("pkt.tcp_flags", |t| t.pkts[3].tcp_flags ^= 0x80),
            ("pkt.seq", |t| t.pkts[3].seq += 1),
            ("pkt.ttl", |t| t.pkts[3].ttl -= 1),
            ("pkt.payload_seed", |t| t.pkts[3].payload_seed += 1),
        ];
        for (field, edit) in edits {
            let mut t = base.clone();
            edit(&mut t);
            assert_ne!(trace_fingerprint(&t), key, "{field} must change the key");
        }
    }

    #[test]
    fn trace_fingerprint_is_stable() {
        // Pinned like `fingerprint_is_stable`: the encoding keys persisted
        // profile artifacts, so changing it must be a deliberate edit.
        let t = Trace::generate(&WorkloadSpec::large_flows(), 4, 1);
        assert_eq!(trace_fingerprint(&t), 0xb81eda4f3baeec76);
    }
}
