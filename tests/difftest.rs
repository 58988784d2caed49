//! Seed-pinned regression suite for the `clara difftest` oracle.
//!
//! Each fixed miscompile class gets a hand-written NIR module pinned as
//! a golden file under `tests/golden/difftest/`; the test asserts both
//! that the printed IR is stable and that all three execution layers
//! (reference executor, interpreter, optimized-module interpreter)
//! still agree on it. The shrinker's minimized output for the injected
//! smoke divergence is pinned the same way.
//!
//! Regenerate after an *intentional* change with:
//!
//! ```sh
//! CLARA_BLESS=1 cargo test --test difftest
//! ```

use std::path::Path;

use clara_repro::clara::difftest::{self, DifftestConfig, Injection};
use clara_repro::ir::{
    print, ApiCall, BinOp, CastOp, FunctionBuilder, MemRef, Module, Operand, PktField, Pred,
    StateKind, Ty,
};
use clara_repro::serve::WorkSpec;

fn golden_path(name: &str) -> String {
    format!(
        "{}/tests/golden/difftest/{name}.nir",
        env!("CARGO_MANIFEST_DIR")
    )
}

/// Pins `module` under `tests/golden/difftest/<name>.nir` and asserts
/// the parsed golden replays with no divergence across all layers.
fn pin_and_replay(name: &str, module: &Module) {
    let path = golden_path(name);
    let got = print::module(module);
    if std::env::var("CLARA_BLESS").is_ok() {
        std::fs::write(&path, &got).expect("write golden");
    } else {
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!("{path}: {e}; regenerate with CLARA_BLESS=1 cargo test --test difftest")
        });
        assert_eq!(
            got, want,
            "{name}: printed IR changed; if intentional, regenerate with \
             CLARA_BLESS=1 cargo test --test difftest"
        );
    }
    // Replay the on-disk artifact exactly as `clara difftest --replay`
    // does: parse, then run the three-layer oracle.
    let div = difftest::replay(Path::new(&path), 32, 0xd1f7, None).expect("golden parses");
    assert!(
        div.is_none(),
        "{name}: golden module diverges: {}",
        div.unwrap()
    );
}

/// Shift amounts at and past the type width. The interpreter used to
/// reduce them with a hardcoded `& 63` while constant folding used the
/// type width, so raw and optimized modules disagreed for every type
/// narrower than 64 bits. All layers now share the amount-mod-width
/// rule in `nf_ir::opt::eval_bin`.
fn shift_width_module() -> Module {
    let mut m = Module::new("regress_shift_width");
    let acc = m.add_global("acc", StateKind::Scalar, 8, 1);
    let mut fb = FunctionBuilder::new("process");
    let entry = fb.entry_block();
    fb.switch_to(entry);
    let len = fb.load(Ty::I16, MemRef::pkt(PktField::IpLen));
    let wide = fb.cast(CastOp::Zext, Ty::I16, Ty::I32, len);
    let narrow = fb.cast(CastOp::Trunc, Ty::I16, Ty::I8, len);
    // Immediate amounts: width + 1 wraps to 1, 2 * width to 0.
    let a = fb.bin(BinOp::Shl, Ty::I16, len, Operand::imm(17));
    let b = fb.bin(BinOp::LShr, Ty::I16, len, Operand::imm(16));
    let c = fb.bin(BinOp::AShr, Ty::I8, narrow, Operand::imm(9));
    let d = fb.bin(BinOp::Shl, Ty::I32, wide, Operand::imm(33));
    // A computed amount takes the non-constant-foldable path.
    let amt = fb.bin(BinOp::Add, Ty::I16, len, Operand::imm(16));
    let e = fb.bin(BinOp::Shl, Ty::I16, len, amt);
    // Fold everything into an observable store so nothing is dead.
    let ab = fb.bin(BinOp::Xor, Ty::I16, a, b);
    let cw = fb.cast(CastOp::Zext, Ty::I8, Ty::I32, c);
    let cd = fb.bin(BinOp::Xor, Ty::I32, cw, d);
    let ew = fb.cast(CastOp::Zext, Ty::I16, Ty::I32, e);
    let abw = fb.cast(CastOp::Zext, Ty::I16, Ty::I32, ab);
    let s1 = fb.bin(BinOp::Xor, Ty::I32, cd, ew);
    let s2 = fb.bin(BinOp::Xor, Ty::I32, s1, abw);
    fb.store(Ty::I32, s2, MemRef::global(acc));
    fb.ret(Some(s2));
    m.funcs.push(fb.finish());
    m
}

/// Dead loads from globals and packet fields. Dead-code elimination
/// used to delete them, which silently changed the optimized module's
/// state-access event sequence and its `nicsim` access profile — the
/// exact signals Clara's insights are trained on. `dce` now treats
/// those loads as observable; only the dead *stack* load may go.
fn dce_observable_module() -> Module {
    let mut m = Module::new("regress_dce_observable");
    let ctr = m.add_global("ctr", StateKind::Scalar, 8, 1);
    let mut fb = FunctionBuilder::new("process");
    let entry = fb.entry_block();
    fb.switch_to(entry);
    let slot = fb.slot();
    fb.store(Ty::I32, Operand::imm(5), MemRef::stack(slot));
    let _dead_global = fb.load(Ty::I32, MemRef::global(ctr));
    let _dead_pkt = fb.load(Ty::I16, MemRef::pkt(PktField::TcpSport));
    let _dead_stack = fb.load(Ty::I32, MemRef::stack(slot));
    let ttl = fb.load(Ty::I8, MemRef::pkt(PktField::IpTtl));
    fb.store(Ty::I8, ttl, MemRef::global(ctr));
    let _ = fb.call(ApiCall::PktSend, vec![Operand::imm(1)]);
    fb.ret(None);
    m.funcs.push(fb.finish());
    m
}

/// Strict framework-API semantics: exact arity and a range-checked
/// `pkt_send` port, computed from packet data so no layer can fold it
/// away. All layers must agree on the resulting verdicts.
fn api_strict_module() -> Module {
    let mut m = Module::new("regress_api_strict");
    let mut fb = FunctionBuilder::new("process");
    let entry = fb.entry_block();
    let out = fb.block();
    fb.switch_to(entry);
    let port = fb.load(Ty::I16, MemRef::pkt(PktField::TcpDport));
    let masked = fb.bin(BinOp::And, Ty::I16, port, Operand::imm(0x3f));
    let ok = fb.icmp(Pred::ULt, Ty::I16, masked, Operand::imm(64));
    fb.cond_br(ok, out, out);
    fb.switch_to(out);
    let widened = fb.cast(CastOp::Zext, Ty::I16, Ty::I64, masked);
    let narrowed = fb.cast(CastOp::Trunc, Ty::I64, Ty::I16, widened);
    let _ = fb.call(ApiCall::PktSend, vec![narrowed]);
    fb.ret(None);
    m.funcs.push(fb.finish());
    m
}

#[test]
fn golden_shift_width_regression() {
    pin_and_replay("shift_width", &shift_width_module());
}

#[test]
fn golden_dce_observable_regression() {
    pin_and_replay("dce_observable", &dce_observable_module());
}

#[test]
fn golden_api_strict_regression() {
    pin_and_replay("api_strict", &api_strict_module());
}

#[test]
fn golden_minimized_smoke_repro() {
    // The shrinker's output for the injected smoke divergence is pinned
    // too: minimization is deterministic, so a change here means the
    // shrinker (or the oracle it queries) changed behavior.
    let module = difftest::smoke_module();
    let trace = difftest::trace_for_seed(0xd1ff, 24);
    let out = difftest::shrink(&module, &trace, Some(Injection::FlipArith));
    assert!(
        out.blocks_after <= 3,
        "shrinker left {} blocks",
        out.blocks_after
    );
    let path = golden_path("smoke_min");
    let got = print::module(&out.module);
    if std::env::var("CLARA_BLESS").is_ok() {
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("{path}: {e}; regenerate with CLARA_BLESS=1 cargo test --test difftest")
    });
    assert_eq!(got, want, "minimized smoke repro changed");
    // The minimized module must still diverge under the same injection.
    let div = difftest::replay(Path::new(&path), 24, 0xd1ff, Some(Injection::FlipArith))
        .expect("golden parses");
    assert!(div.is_some(), "minimized repro no longer diverges");
}

#[test]
fn pinned_seed_sweep_is_clean() {
    for start in [0u64, 1000] {
        let cfg = DifftestConfig {
            seeds: 25,
            start_seed: start,
            pkts: 24,
            shrink: false,
            ..DifftestConfig::default()
        };
        let report = difftest::run(&cfg).expect("no backends configured");
        assert_eq!(report.engine_failures, 0, "start={start}");
        assert!(
            report.divergent.is_empty(),
            "start={start} first divergence: {}",
            report.divergent[0].divergence.as_ref().unwrap()
        );
    }
}

/// Every extended-corpus NF on the traffic the serving daemon profiles
/// (`WorkSpec::trace`: 400 packets of large or small flows): the
/// interpreter, which reuses its buffers across packets, must agree with
/// the independently written reference executor packet by packet, and
/// the optimized module must match both.
#[test]
fn extended_corpus_agrees_across_layers_on_served_traffic() {
    for (i, e) in clara_repro::click::extended_corpus().iter().enumerate() {
        for small_flows in [false, true] {
            let spec = WorkSpec {
                nf: e.name().to_string(),
                packets: 400,
                seed: 21 + i as u64,
                small_flows,
                backend: None,
                precision: None,
            };
            if let Some(div) = difftest::check_module(&e.module, &spec.trace(), None) {
                panic!("{} small_flows={small_flows}: {div}", e.name());
            }
        }
    }
}
