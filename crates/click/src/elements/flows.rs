//! Heavy stateful elements built on the flow-table primitive
//! ([`nf_ir::StateKind::FlowTable`]): keyed tables with idle/hard
//! timeouts, LRU/random eviction, and churn counters. These are the
//! corpus NFs whose offload decisions hinge on flow-state behaviour
//! (Cora-style stateful applications) — they stress the profile cache,
//! the working-set accounting, and the partial-offload splitter.

use nf_ir::{
    ApiCall, BinOp, CastOp, EvictPolicy, FlowSpec, FunctionBuilder, MemRef, Module, Operand,
    PktField, Pred, StateKind, Ty,
};

use super::helpers::{csum_send_ret, drop_ret, flow_key, send_ret, slot_index};
use crate::element::{ElementMeta, InsightClass, NfElement};

/// `natchurn`: NAT whose translation table is a flow table with idle
/// expiry — ports are recycled as flows time out, so the port counter
/// and the table's churn counter both advance under short-flow storms.
/// The table is deliberately small with a long idle window (a CGNAT-style
/// scarce port pool): flow storms overflow buckets and force LRU
/// eviction well before entries idle out.
pub fn natchurn() -> NfElement {
    let mut m = Module::new("natchurn");
    let g_nat = m.add_flow_table(
        "nat_flows",
        16,
        256,
        FlowSpec {
            idle_timeout: 512,
            hard_timeout: 0,
            evict: EvictPolicy::Lru,
        },
    );
    let g_next = m.add_global("next_port", StateKind::Scalar, 4, 1);
    let g_churn = m.add_global("churn_seen", StateKind::Scalar, 4, 1);

    let mut fb = FunctionBuilder::new("process");
    let entry = fb.entry_block();
    let hit = fb.block();
    let miss = fb.block();
    fb.switch_to(entry);
    let _ = fb.call(ApiCall::IpHeader, vec![]);
    let key = flow_key(&mut fb);
    let found = fb
        .call(ApiCall::FlowLookup(g_nat), vec![key])
        .expect("has result");
    let is_hit = fb.icmp(Pred::Ne, Ty::I32, found, Operand::imm(0));
    fb.cond_br(is_hit, hit, miss);

    // Live mapping: rewrite the source port from the stored translation.
    fb.switch_to(hit);
    let slot = slot_index(&mut fb, found);
    let port = fb.load(Ty::I16, MemRef::global_at(g_nat, slot, 8));
    fb.store(Ty::I16, port, MemRef::pkt(PktField::TcpSport));
    csum_send_ret(&mut fb, 0);

    // New (or expired) flow: allocate the next external port.
    fb.switch_to(miss);
    let next = fb.load(Ty::I32, MemRef::global(g_next));
    let next1 = fb.bin(BinOp::Add, Ty::I32, next, Operand::imm(1));
    fb.store(Ty::I32, next1, MemRef::global(g_next));
    let span = fb.bin(BinOp::And, Ty::I32, next1, Operand::imm(0x3fff));
    let port = fb.bin(BinOp::Or, Ty::I32, span, Operand::imm(0x4000));
    let ins = fb
        .call(ApiCall::FlowUpsert(g_nat), vec![key])
        .expect("has result");
    let islot = slot_index(&mut fb, ins);
    fb.store(Ty::I16, port, MemRef::global_at(g_nat, islot, 8));
    fb.store(Ty::I16, port, MemRef::pkt(PktField::TcpSport));
    let churn = fb
        .call(ApiCall::FlowChurn(g_nat), vec![])
        .expect("has result");
    fb.store(Ty::I32, churn, MemRef::global(g_churn));
    csum_send_ret(&mut fb, 0);
    m.funcs.push(fb.finish());
    NfElement {
        module: m,
        meta: ElementMeta {
            name: "natchurn",
            paper_loc: 210,
            stateful: true,
            insights: vec![
                InsightClass::Prediction,
                InsightClass::ScaleOut,
                InsightClass::Placement,
            ],
            description: "NAT with port churn over an idle-expiring flow table",
        },
    }
}

/// `fwstate`: stateful firewall admitting only flows a SYN opened — the
/// flow table's idle timeout closes pinholes that go quiet.
pub fn fwstate() -> NfElement {
    let mut m = Module::new("fwstate");
    let g_flows = m.add_flow_table(
        "fw_state",
        16,
        2048,
        FlowSpec {
            idle_timeout: 32,
            hard_timeout: 0,
            evict: EvictPolicy::Lru,
        },
    );
    let g_drop = m.add_global("dropped", StateKind::Scalar, 4, 1);

    let mut fb = FunctionBuilder::new("process");
    let entry = fb.entry_block();
    let syn_path = fb.block();
    let est_path = fb.block();
    let est_hit = fb.block();
    let deny = fb.block();
    fb.switch_to(entry);
    let _ = fb.call(ApiCall::IpHeader, vec![]);
    let flags = fb.load(Ty::I8, MemRef::pkt(PktField::TcpFlags));
    let syn = fb.bin(BinOp::And, Ty::I8, flags, Operand::imm(0x02));
    let is_syn = fb.icmp(Pred::Ne, Ty::I8, syn, Operand::imm(0));
    fb.cond_br(is_syn, syn_path, est_path);

    // SYN: open (or refresh) the pinhole.
    fb.switch_to(syn_path);
    let key = flow_key(&mut fb);
    let ins = fb
        .call(ApiCall::FlowUpsert(g_flows), vec![key])
        .expect("has result");
    let islot = slot_index(&mut fb, ins);
    fb.store(
        Ty::I32,
        Operand::imm(1),
        MemRef::global_at(g_flows, islot, 8),
    );
    send_ret(&mut fb, 0);

    // Established traffic must match a live pinhole.
    fb.switch_to(est_path);
    let key2 = flow_key(&mut fb);
    let found = fb
        .call(ApiCall::FlowLookup(g_flows), vec![key2])
        .expect("has result");
    let hit = fb.icmp(Pred::Ne, Ty::I32, found, Operand::imm(0));
    fb.cond_br(hit, est_hit, deny);

    fb.switch_to(est_hit);
    let slot = slot_index(&mut fb, found);
    let cnt = fb.load(Ty::I32, MemRef::global_at(g_flows, slot, 8));
    let cnt1 = fb.bin(BinOp::Add, Ty::I32, cnt, Operand::imm(1));
    fb.store(Ty::I32, cnt1, MemRef::global_at(g_flows, slot, 8));
    send_ret(&mut fb, 0);

    fb.switch_to(deny);
    let d = fb.load(Ty::I32, MemRef::global(g_drop));
    let d1 = fb.bin(BinOp::Add, Ty::I32, d, Operand::imm(1));
    fb.store(Ty::I32, d1, MemRef::global(g_drop));
    drop_ret(&mut fb);
    m.funcs.push(fb.finish());
    NfElement {
        module: m,
        meta: ElementMeta {
            name: "fwstate",
            paper_loc: 175,
            stateful: true,
            insights: vec![
                InsightClass::Prediction,
                InsightClass::ScaleOut,
                InsightClass::Placement,
            ],
            description: "stateful firewall with idle-timeout pinholes",
        },
    }
}

/// `conntrack`: connection tracker keeping per-flow packet/byte tallies;
/// a hard timeout bounds entry lifetime and FIN/RST tears flows down.
pub fn conntrack() -> NfElement {
    let mut m = Module::new("conntrack");
    let g_ct = m.add_flow_table(
        "ct_table",
        32,
        4096,
        FlowSpec {
            idle_timeout: 0,
            hard_timeout: 256,
            evict: EvictPolicy::Lru,
        },
    );
    let g_closed = m.add_global("closed", StateKind::Scalar, 4, 1);

    let mut fb = FunctionBuilder::new("process");
    let entry = fb.entry_block();
    let teardown = fb.block();
    let out = fb.block();
    fb.switch_to(entry);
    let _ = fb.call(ApiCall::IpHeader, vec![]);
    let key = flow_key(&mut fb);
    let ins = fb
        .call(ApiCall::FlowUpsert(g_ct), vec![key])
        .expect("has result");
    let slot = slot_index(&mut fb, ins);
    let pkts = fb.load(Ty::I32, MemRef::global_at(g_ct, slot, 8));
    let pkts1 = fb.bin(BinOp::Add, Ty::I32, pkts, Operand::imm(1));
    fb.store(Ty::I32, pkts1, MemRef::global_at(g_ct, slot, 8));
    let len = fb.load(Ty::I16, MemRef::pkt(PktField::IpLen));
    let len32 = fb.cast(CastOp::Zext, Ty::I16, Ty::I32, len);
    let bytes = fb.load(Ty::I32, MemRef::global_at(g_ct, slot, 12));
    let bytes1 = fb.bin(BinOp::Add, Ty::I32, bytes, len32);
    fb.store(Ty::I32, bytes1, MemRef::global_at(g_ct, slot, 12));
    let flags = fb.load(Ty::I8, MemRef::pkt(PktField::TcpFlags));
    let finrst = fb.bin(BinOp::And, Ty::I8, flags, Operand::imm(0x05));
    let closing = fb.icmp(Pred::Ne, Ty::I8, finrst, Operand::imm(0));
    fb.cond_br(closing, teardown, out);

    fb.switch_to(teardown);
    let _ = fb.call(ApiCall::FlowRemove(g_ct), vec![key]);
    let c = fb.load(Ty::I32, MemRef::global(g_closed));
    let c1 = fb.bin(BinOp::Add, Ty::I32, c, Operand::imm(1));
    fb.store(Ty::I32, c1, MemRef::global(g_closed));
    fb.br(out);

    fb.switch_to(out);
    send_ret(&mut fb, 0);
    m.funcs.push(fb.finish());
    NfElement {
        module: m,
        meta: ElementMeta {
            name: "conntrack",
            paper_loc: 230,
            stateful: true,
            insights: vec![
                InsightClass::Prediction,
                InsightClass::ScaleOut,
                InsightClass::Coalescing,
            ],
            description: "connection tracker with hard-timeout entries",
        },
    }
}

/// `dnscache`: response cache keyed by resolver pair and query id;
/// random eviction models a cache that cannot afford LRU metadata.
pub fn dnscache() -> NfElement {
    let mut m = Module::new("dnscache");
    let g_cache = m.add_flow_table(
        "dns_cache",
        32,
        1024,
        FlowSpec {
            idle_timeout: 128,
            hard_timeout: 1024,
            evict: EvictPolicy::Random,
        },
    );
    let g_hits = m.add_global("cache_hits", StateKind::Scalar, 4, 1);
    let g_miss = m.add_global("cache_misses", StateKind::Scalar, 4, 1);

    let mut fb = FunctionBuilder::new("process");
    let entry = fb.entry_block();
    let is_dns = fb.block();
    let hit = fb.block();
    let miss = fb.block();
    let other = fb.block();
    fb.switch_to(entry);
    let udp_ok = fb.call(ApiCall::UdpHeader, vec![]).expect("has result");
    let not_udp = fb.icmp(Pred::Eq, Ty::I32, udp_ok, Operand::imm(0));
    fb.cond_br(not_udp, other, is_dns);

    fb.switch_to(is_dns);
    // Key on the query flow (client/resolver pair + ports); the query
    // word itself is what gets cached.
    let key = flow_key(&mut fb);
    let qid = fb.load(Ty::I32, MemRef::pkt(PktField::Payload(0)));
    let found = fb
        .call(ApiCall::FlowLookup(g_cache), vec![key])
        .expect("has result");
    let cached = fb.icmp(Pred::Ne, Ty::I32, found, Operand::imm(0));
    fb.cond_br(cached, hit, miss);

    // Cached: answer directly from the stored response word.
    fb.switch_to(hit);
    let slot = slot_index(&mut fb, found);
    let answer = fb.load(Ty::I32, MemRef::global_at(g_cache, slot, 8));
    fb.store(Ty::I32, answer, MemRef::pkt(PktField::Payload(4)));
    let h = fb.load(Ty::I32, MemRef::global(g_hits));
    let h1 = fb.bin(BinOp::Add, Ty::I32, h, Operand::imm(1));
    fb.store(Ty::I32, h1, MemRef::global(g_hits));
    send_ret(&mut fb, 0);

    // Miss: cache the query word and forward to the resolver.
    fb.switch_to(miss);
    let ins = fb
        .call(ApiCall::FlowUpsert(g_cache), vec![key])
        .expect("has result");
    let islot = slot_index(&mut fb, ins);
    fb.store(Ty::I32, qid, MemRef::global_at(g_cache, islot, 8));
    let ms = fb.load(Ty::I32, MemRef::global(g_miss));
    let ms1 = fb.bin(BinOp::Add, Ty::I32, ms, Operand::imm(1));
    fb.store(Ty::I32, ms1, MemRef::global(g_miss));
    send_ret(&mut fb, 1);

    fb.switch_to(other);
    send_ret(&mut fb, 1);
    m.funcs.push(fb.finish());
    NfElement {
        module: m,
        meta: ElementMeta {
            name: "dnscache",
            paper_loc: 195,
            stateful: true,
            insights: vec![InsightClass::Prediction, InsightClass::Placement],
            description: "DNS response cache with random eviction",
        },
    }
}

/// `flowlimiter`: per-flow packet budget enforced over a deliberately
/// small flow table — the idle timeout doubles as the refill interval,
/// and the table's churn counter is exported for observability.
pub fn flowlimiter() -> NfElement {
    let mut m = Module::new("flowlimiter");
    let g_lim = m.add_flow_table(
        "limiter",
        16,
        512,
        FlowSpec {
            idle_timeout: 16,
            hard_timeout: 0,
            evict: EvictPolicy::Lru,
        },
    );
    let g_drop = m.add_global("over_limit", StateKind::Scalar, 4, 1);
    let g_churn = m.add_global("table_churn", StateKind::Scalar, 4, 1);

    let mut fb = FunctionBuilder::new("process");
    let entry = fb.entry_block();
    let over = fb.block();
    let under = fb.block();
    fb.switch_to(entry);
    let _ = fb.call(ApiCall::IpHeader, vec![]);
    let key = flow_key(&mut fb);
    let ins = fb
        .call(ApiCall::FlowUpsert(g_lim), vec![key])
        .expect("has result");
    let slot = slot_index(&mut fb, ins);
    let used = fb.load(Ty::I32, MemRef::global_at(g_lim, slot, 8));
    let used1 = fb.bin(BinOp::Add, Ty::I32, used, Operand::imm(1));
    fb.store(Ty::I32, used1, MemRef::global_at(g_lim, slot, 8));
    let churn = fb
        .call(ApiCall::FlowChurn(g_lim), vec![])
        .expect("has result");
    fb.store(Ty::I32, churn, MemRef::global(g_churn));
    let exceeded = fb.icmp(Pred::UGt, Ty::I32, used1, Operand::imm(32));
    fb.cond_br(exceeded, over, under);

    fb.switch_to(over);
    let d = fb.load(Ty::I32, MemRef::global(g_drop));
    let d1 = fb.bin(BinOp::Add, Ty::I32, d, Operand::imm(1));
    fb.store(Ty::I32, d1, MemRef::global(g_drop));
    drop_ret(&mut fb);

    fb.switch_to(under);
    send_ret(&mut fb, 0);
    m.funcs.push(fb.finish());
    NfElement {
        module: m,
        meta: ElementMeta {
            name: "flowlimiter",
            paper_loc: 150,
            stateful: true,
            insights: vec![InsightClass::Prediction, InsightClass::ScaleOut],
            description: "per-flow packet budget over a churning flow table",
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Machine;
    use nf_ir::GlobalId;
    use trafgen::{Trace, WorkloadSpec};

    #[test]
    fn natchurn_assigns_stable_ports_per_flow() {
        let e = natchurn();
        let mut machine = Machine::new(&e.module).unwrap();
        let spec = WorkloadSpec::large_flows().with_flows(4);
        let trace = Trace::generate(&spec, 60, 1);
        for p in &trace.pkts {
            machine.run(p).unwrap();
        }
        // 4 live flows, no expiry in 60 ticks of steady traffic.
        let allocated = machine.state.load(GlobalId(1), 0, 0, 4);
        assert_eq!(allocated, 4, "one port per live flow");
    }

    #[test]
    fn fwstate_closes_idle_pinholes() {
        let e = fwstate();
        let mut machine = Machine::new(&e.module).unwrap();
        // All-UDP traffic never carries a SYN, so no pinhole ever opens.
        let spec = WorkloadSpec {
            tcp_ratio: 0.0,
            ..WorkloadSpec::large_flows().with_flows(3)
        };
        let trace = Trace::generate(&spec, 30, 2);
        for p in &trace.pkts {
            machine.run(p).unwrap();
        }
        assert_eq!(machine.state.load(GlobalId(1), 0, 0, 4), 30);
        // TCP traffic opens pinholes with its handshake SYNs and passes.
        let e2 = fwstate();
        let mut tcp_m = Machine::new(&e2.module).unwrap();
        let tcp = WorkloadSpec {
            tcp_ratio: 1.0,
            ..WorkloadSpec::large_flows().with_flows(3)
        };
        for p in &Trace::generate(&tcp, 30, 2).pkts {
            tcp_m.run(p).unwrap();
        }
        assert_eq!(tcp_m.state.load(GlobalId(1), 0, 0, 4), 0);
    }

    #[test]
    fn conntrack_tears_down_on_fin() {
        let e = conntrack();
        let mut machine = Machine::new(&e.module).unwrap();
        let spec = WorkloadSpec {
            tcp_ratio: 1.0,
            ..WorkloadSpec::small_flows().with_flows(8)
        };
        let trace = Trace::generate(&spec, 200, 3);
        for p in &trace.pkts {
            machine.run(p).unwrap();
        }
        let closed = machine.state.load(GlobalId(1), 0, 0, 4);
        let counters = machine.state.flow_counters(GlobalId(0));
        assert!(counters.insertions > 0);
        assert_eq!(
            machine.state.len_of(GlobalId(0)) as u64 + closed + counters.churn(),
            counters.insertions,
            "every inserted entry is live, closed, or churned away"
        );
    }

    #[test]
    fn dnscache_hits_repeat_queries() {
        let e = dnscache();
        let mut machine = Machine::new(&e.module).unwrap();
        let spec = WorkloadSpec {
            tcp_ratio: 0.0, // All UDP.
            ..WorkloadSpec::large_flows().with_flows(2)
        };
        let trace = Trace::generate(&spec, 40, 4);
        for p in &trace.pkts {
            machine.run(p).unwrap();
        }
        let hits = machine.state.load(GlobalId(1), 0, 0, 4);
        let misses = machine.state.load(GlobalId(2), 0, 0, 4);
        assert_eq!(hits + misses, 40);
        assert!(
            hits > misses,
            "repeat queries should hit: {hits} vs {misses}"
        );
    }

    #[test]
    fn flowlimiter_drops_over_budget_flows() {
        let e = flowlimiter();
        let mut machine = Machine::new(&e.module).unwrap();
        // One flow sending every tick never idles out and exceeds 32.
        let spec = WorkloadSpec::large_flows().with_flows(1);
        let trace = Trace::generate(&spec, 100, 5);
        for p in &trace.pkts {
            machine.run(p).unwrap();
        }
        let dropped = machine.state.load(GlobalId(1), 0, 0, 4);
        assert_eq!(dropped, 100 - 32);
    }
}
