//! NIC cost profiles are pinned bit for bit.
//!
//! `WorkloadProfile`s feed every insight: placement, coalescing, scale-out
//! and the predictors' training targets. A change to how the simulator
//! costs interpreted events (the order of a floating-point sum, a key
//! added to `global_access`) must not move any of them. This test hashes
//! the `Debug` rendering of the profiles of every extended-corpus NF under
//! five ports, two flow profiles and the three ways to profile one NF
//! (streamed, recorded then replayed, and `profile_workload`), plus the
//! per-stage profiles of two-NF chains and the coalescing plans that
//! `suggest_coalescing` and `exhaustive_coalescing` choose, and compares
//! the FNV-1a of it all against a committed golden.
//!
//! The golden must only change with an intended change to the cost
//! model; regenerate it with
//! `CLARA_BLESS=1 cargo test --release --test profile_fp`.

use clara_repro::clara::coalesce;
use clara_repro::click::{extended_corpus, NfElement};
use clara_repro::ir::BlockId;
use clara_repro::nicsim::{
    self, fingerprint_bytes, Accel, CoalescePlan, MemLevel, NicConfig, PortConfig,
};
use clara_repro::trafgen::{Trace, WorkloadSpec};

/// Packets per profile: enough for flow-table hits, CAM hits and
/// repeated coalesced fetches, few enough for a debug build.
const PKTS: usize = 160;

fn golden_path() -> String {
    format!("{}/tests/golden/profile_fp.txt", env!("CARGO_MANIFEST_DIR"))
}

fn specs() -> [WorkloadSpec; 2] {
    [
        WorkloadSpec::large_flows(),
        WorkloadSpec::small_flows().with_flows(8192),
    ]
}

/// The five ports: naive; every global placed, round-robin over the four
/// levels; all globals packed in one coalescing cluster; the first half
/// of the blocks as a CRC region plus the checksum engine; the second
/// half as an LPM region.
fn ports(e: &NfElement) -> Vec<(&'static str, PortConfig)> {
    let levels = [MemLevel::Cls, MemLevel::Ctm, MemLevel::Imem, MemLevel::Emem];
    let placed = e.module.globals.iter().fold(PortConfig::naive(), |p, g| {
        p.place(g.id, levels[g.id.index() % 4])
    });
    let cluster = CoalescePlan {
        clusters: vec![e.module.globals.iter().map(|g| (g.id, 0)).collect()],
    };
    let nblocks = e.module.handler().map_or(0, |f| f.blocks.len()) as u32;
    let half = nblocks / 2;
    let crc = PortConfig::naive()
        .accelerate((1..=half.max(1)).map(BlockId), Accel::Crc)
        .with_csum_accel();
    let lpm = PortConfig::naive().accelerate((half.max(1)..nblocks).map(BlockId), Accel::Lpm);
    vec![
        ("naive", PortConfig::naive()),
        ("placed", placed),
        ("coalesced", PortConfig::naive().with_coalesce(cluster)),
        ("crc+csum", crc),
        ("lpm", lpm),
    ]
}

/// The rendering the golden hashes, one line per profile or plan.
fn render() -> String {
    let cfg = NicConfig::default();
    let corpus = extended_corpus();
    let mut out = String::new();
    for (si, spec) in specs().iter().enumerate() {
        let trace = Trace::generate(spec, PKTS, 700 + si as u64);
        for e in &corpus {
            let nic = nfcc::compile_module(&e.module);
            let rec = nicsim::record_workload(&e.module, &trace, |_| {});
            for (name, port) in ports(e) {
                let streamed =
                    nicsim::profile_workload_compiled(&e.module, &nic, &trace, &port, &cfg);
                let replayed =
                    nicsim::profile_recorded_compiled(&e.module, &nic, &rec, &port, &cfg);
                let direct = nicsim::profile_workload(&e.module, &trace, &port, &cfg, |_| {});
                for (how, wp) in [
                    ("streamed", streamed),
                    ("replayed", replayed),
                    ("direct", direct),
                ] {
                    out.push_str(&format!("{} {} {name} {how} {wp:?}\n", spec.name, e.name()));
                }
            }
            let plan = coalesce::suggest_coalescing(&e.module, &trace, 7);
            out.push_str(&format!("{} {} suggest {plan:?}\n", spec.name, e.name()));
            let expert = coalesce::exhaustive_coalescing(&e.module, &trace, &cfg, 4);
            out.push_str(&format!(
                "{} {} exhaustive {expert:?}\n",
                spec.name,
                e.name()
            ));
        }
        // Two-NF chains: each NF followed by the next one in the corpus,
        // so droppers (firewall, ratelimiter) cut some chains short.
        for (i, a) in corpus.iter().enumerate() {
            let b = &corpus[(i + 1) % corpus.len()];
            let pa = &ports(a)[1].1;
            let pb = PortConfig::naive();
            let nics = [
                &nfcc::compile_module(&a.module),
                &nfcc::compile_module(&b.module),
            ];
            let stages = nicsim::profile_chain_stages(
                &[&a.module, &b.module],
                &nics,
                &trace,
                &[pa, &pb],
                &cfg,
                |_| {},
            );
            out.push_str(&format!(
                "{} chain {}+{} {stages:?}\n",
                spec.name,
                a.name(),
                b.name()
            ));
        }
    }
    out
}

#[test]
fn profiles_match_golden() {
    let rendered = render();
    assert!(
        rendered.lines().count() > 1000,
        "the rendering covers the corpus"
    );
    let fp = format!("{:016x}\n", fingerprint_bytes(rendered.as_bytes()));
    let path = golden_path();
    if std::env::var("CLARA_BLESS").is_ok() {
        std::fs::write(&path, &fp).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "{path} missing; regenerate with CLARA_BLESS=1 cargo test --release --test profile_fp"
        )
    });
    assert_eq!(
        fp, want,
        "a NIC cost profile changed; if intentional, regenerate with \
         CLARA_BLESS=1 cargo test --release --test profile_fp"
    );
}
