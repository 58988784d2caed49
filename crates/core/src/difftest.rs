//! Differential semantics oracle across the three execution layers.
//!
//! Clara's insights are only trustworthy if the execution that produced
//! the profiles is the execution the NF actually performs. This module
//! checks that end to end: for each synthesized seed it runs the same
//! trace through
//!
//! - **layer A** — the reference executor ([`click_model::RefMachine`],
//!   independently written Click-element semantics),
//! - **layer B** — the NIR interpreter ([`click_model::Machine`]) on the
//!   lowered module, and
//! - **layer C** — the same interpreter on the
//!   [`nf_ir::opt`]-optimized module,
//!
//! and asserts that emitted packets and port decisions, state-access
//! sequences, API events, and the `nicsim` cost profiles (B vs C,
//! compute excluded) all agree. On divergence a built-in shrinker
//! removes instructions, rewrites terminators, and drops globals —
//! re-verifying with [`nf_ir::verify`] and re-checking the oracle after
//! every edit — and writes a minimized NIR module plus a repro command
//! as an artifact.
//!
//! Seed sweeps fan out through [`crate::engine`] (`try_par_map`), so
//! they are parallel, fault-tolerant, and — with `CLARA_CACHE_DIR` set —
//! profile raw/optimized modules through the persistent disk cache.
//!
//! With [`DifftestConfig::backends`] naming two or more built-in device
//! manifests, every clean seed is additionally profiled under each
//! device and the access-side profile signals must be identical across
//! all of them (execution semantics are hardware-invariant), while the
//! sweep collects the largest cross-backend compute delta as evidence
//! the manifests genuinely change predicted cost.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use clara_hal::{Backend as _, DeviceBackend};
use clara_obs as obs;
use click_model::{Event, Machine, PacketView, RefMachine};
use nf_ir::inst::{BinOp, Inst, Term};
use nf_ir::{opt, parse, print, verify, Module};
use nic_sim::{NicConfig, PortConfig};
use trafgen::{Trace, WorkloadSpec};

use crate::engine::{self, Engine};
use crate::error::ClaraError;

/// Configuration of one difftest sweep.
#[derive(Debug, Clone)]
pub struct DifftestConfig {
    /// Number of synthesized seeds to check.
    pub seeds: u64,
    /// First seed (the sweep covers `start_seed..start_seed + seeds`).
    pub start_seed: u64,
    /// Packets per seed.
    pub pkts: usize,
    /// Distribution-guided synthesis (matches the training corpora).
    pub guided: bool,
    /// Run the shrinker on divergent seeds.
    pub shrink: bool,
    /// Where to write minimized repros (none: report only).
    pub artifact_dir: Option<PathBuf>,
    /// Deliberate miscompile injected into layer C (smoke tests).
    pub inject: Option<Injection>,
    /// Built-in device backends for the cross-backend oracle: every
    /// clean seed is additionally profiled under each named manifest and
    /// the access-side signals must be identical everywhere, while
    /// compute-cycle deltas are collected as evidence the devices
    /// actually differ. Fewer than two names: the dimension is skipped.
    pub backends: Vec<String>,
}

impl Default for DifftestConfig {
    fn default() -> DifftestConfig {
        DifftestConfig {
            seeds: 500,
            start_seed: 0,
            pkts: 64,
            guided: true,
            shrink: true,
            artifact_dir: None,
            inject: None,
            backends: Vec::new(),
        }
    }
}

/// A deliberate miscompile applied to the optimized module, used to
/// prove the oracle catches divergences and the shrinker minimizes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Injection {
    /// Flip the first `add` to `sub` (or the reverse). A no-op on
    /// modules with neither, so shrinking converges on the arithmetic
    /// actually responsible for the divergence.
    FlipArith,
}

/// Which layers (or derived signals) disagreed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivergenceKind {
    /// Reference executor vs interpreter on the same module.
    RefVsInterp,
    /// Interpreter on the raw vs the optimized module.
    RawVsOpt,
    /// `nicsim` access profiles (compute excluded) raw vs optimized.
    Profile,
    /// A layer failed loudly (typed trace error) — malformed lowering.
    TraceError,
    /// The optimized module no longer passes `nf_ir::verify`.
    OptInvalid,
    /// Access profiles differ across device backends — execution
    /// semantics leaked a hardware dependency.
    Backend,
}

impl DivergenceKind {
    /// Stable label used in reports and artifacts.
    pub fn label(self) -> &'static str {
        match self {
            DivergenceKind::RefVsInterp => "ref-vs-interp",
            DivergenceKind::RawVsOpt => "raw-vs-opt",
            DivergenceKind::Profile => "profile",
            DivergenceKind::TraceError => "trace-error",
            DivergenceKind::OptInvalid => "opt-invalid",
            DivergenceKind::Backend => "backend",
        }
    }
}

/// One observed disagreement between layers.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Which signal disagreed.
    pub kind: DivergenceKind,
    /// Packet index at which it surfaced (None: end-of-trace signals).
    pub pkt: Option<usize>,
    /// Human-readable description of the mismatch.
    pub detail: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] ", self.kind.label())?;
        if let Some(i) = self.pkt {
            write!(f, "pkt {i}: ")?;
        }
        write!(f, "{}", self.detail)
    }
}

/// Outcome of shrinking one divergent module.
#[derive(Debug, Clone)]
pub struct ShrinkOutcome {
    /// The minimized module (still divergent, still verifies).
    pub module: Module,
    /// Blocks before/after.
    pub blocks_before: usize,
    /// Blocks after shrinking.
    pub blocks_after: usize,
    /// Instructions before shrinking.
    pub insts_before: usize,
    /// Instructions after shrinking.
    pub insts_after: usize,
    /// Oracle evaluations the shrinker spent.
    pub checks: usize,
}

/// Per-seed result.
#[derive(Debug, Clone)]
pub struct SeedReport {
    /// The synthesis seed.
    pub seed: u64,
    /// Name of the synthesized module.
    pub module_name: String,
    /// The divergence, if any.
    pub divergence: Option<Divergence>,
    /// Shrinker result for divergent seeds (when shrinking is enabled).
    pub minimized: Option<ShrinkOutcome>,
    /// Artifact path, when a repro was written.
    pub artifact: Option<PathBuf>,
    /// Artifact-write failure, surfaced instead of dropped.
    pub artifact_error: Option<String>,
    /// Largest absolute compute-cycle delta between any configured
    /// backend and the first one (0.0 when the backend dimension is
    /// off or the seed diverged before reaching it).
    pub backend_compute_delta: f64,
}

/// Aggregate result of a sweep.
#[derive(Debug, Clone)]
pub struct DifftestReport {
    /// Seeds checked (excluding engine-failed tasks).
    pub checked: usize,
    /// Divergent seeds, in seed order.
    pub divergent: Vec<SeedReport>,
    /// Engine tasks that failed permanently (fault injection, panics).
    pub engine_failures: usize,
    /// Artifact directory the sweep wrote into, if configured.
    pub artifact_dir: Option<PathBuf>,
    /// Largest cross-backend compute delta observed over the sweep.
    /// Semantics must be backend-invariant but *costs* must not be:
    /// a multi-backend sweep over API-calling NFs where this stays 0.0
    /// means the manifests are not actually being consulted.
    pub max_backend_compute_delta: f64,
}

impl DifftestReport {
    /// Maps the report to the CLI error contract: divergences dominate
    /// (exit 6), then degraded runs (exit 3), else success.
    pub fn into_result(self) -> Result<DifftestReport, ClaraError> {
        if !self.divergent.is_empty() {
            return Err(ClaraError::Divergence {
                found: self.divergent.len(),
                checked: self.checked + self.divergent.len(),
                artifact_dir: self.artifact_dir.clone(),
            });
        }
        if self.engine_failures > 0 {
            return Err(ClaraError::Degraded {
                failed: self.engine_failures,
                total: self.checked + self.engine_failures,
            });
        }
        Ok(self)
    }
}

struct DtCounters {
    seeds: obs::Counter,
    divergences: obs::Counter,
    pkts_ref: obs::Counter,
    pkts_interp: obs::Counter,
    pkts_opt: obs::Counter,
    shrink_checks: obs::Counter,
    backend_profiles: obs::Counter,
}

fn counters() -> &'static DtCounters {
    static C: OnceLock<DtCounters> = OnceLock::new();
    C.get_or_init(|| DtCounters {
        seeds: obs::counter("difftest.seeds"),
        divergences: obs::counter("difftest.divergences"),
        pkts_ref: obs::counter("difftest.pkts.ref"),
        pkts_interp: obs::counter("difftest.pkts.interp"),
        pkts_opt: obs::counter("difftest.pkts.opt"),
        shrink_checks: obs::counter("difftest.shrink_checks"),
        backend_profiles: obs::counter("difftest.backend_profiles"),
    })
}

/// The deterministic trace a seed is checked under. Replay commands use
/// the same derivation, so a repro needs only `--seed` and `--pkts`.
pub fn trace_for_seed(seed: u64, pkts: usize) -> Trace {
    Trace::generate(&WorkloadSpec::imix(), pkts, seed)
}

/// The layer-C pipeline: `nf_ir::opt::optimize` plus the configured
/// injection, if any.
pub fn optimize_module(module: &Module, inject: Option<Injection>) -> Module {
    let mut m = module.clone();
    let _ = opt::optimize(&mut m);
    if let Some(inj) = inject {
        apply_injection(&mut m, inj);
    }
    m
}

fn apply_injection(m: &mut Module, inj: Injection) {
    match inj {
        Injection::FlipArith => {
            for f in &mut m.funcs {
                for b in &mut f.blocks {
                    for inst in &mut b.insts {
                        if let Inst::Bin { op, .. } = inst {
                            match op {
                                BinOp::Add => {
                                    *op = BinOp::Sub;
                                    return;
                                }
                                BinOp::Sub => {
                                    *op = BinOp::Add;
                                    return;
                                }
                                _ => {}
                            }
                        }
                    }
                }
            }
        }
    }
}

/// How the profile oracle (B vs C) is evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProfileMode {
    /// Through the engine's memo/disk caches (sweeps).
    Cached,
    /// Direct `nicsim` profiling, bypassing caches (shrinker).
    Direct,
    /// Skipped (shrinker predicates for non-profile divergences).
    Skip,
}

/// Runs the full three-layer oracle for one module over one trace.
///
/// Returns the first divergence found, or `None` when every layer
/// agrees (including the raw-vs-optimized access profiles).
pub fn check_module(
    module: &Module,
    trace: &Trace,
    inject: Option<Injection>,
) -> Option<Divergence> {
    check_with(module, trace, inject, ProfileMode::Cached)
}

fn observable(events: &[Event]) -> Vec<&Event> {
    events
        .iter()
        .filter(|e| !matches!(e, Event::Block(_)))
        .collect()
}

fn first_mismatch<T: PartialEq + fmt::Debug>(a: &[T], b: &[T]) -> String {
    let i = a
        .iter()
        .zip(b.iter())
        .position(|(x, y)| x != y)
        .unwrap_or_else(|| a.len().min(b.len()));
    format!(
        "event {i}: {:?} vs {:?} (lengths {} vs {})",
        a.get(i),
        b.get(i),
        a.len(),
        b.len()
    )
}

#[allow(clippy::too_many_lines)]
fn check_with(
    module: &Module,
    trace: &Trace,
    inject: Option<Injection>,
    profiles: ProfileMode,
) -> Option<Divergence> {
    let c = counters();
    let opt_module = optimize_module(module, inject);
    if let Err(e) = verify::verify_module(&opt_module) {
        return Some(Divergence {
            kind: DivergenceKind::OptInvalid,
            pkt: None,
            detail: format!("optimized module fails verification: {e}"),
        });
    }
    let mut layer_a = match RefMachine::new(module) {
        Ok(m) => m,
        Err(e) => {
            return Some(Divergence {
                kind: DivergenceKind::TraceError,
                pkt: None,
                detail: format!("module fails verification: {e}"),
            })
        }
    };
    let mut layer_b = Machine::new(module).expect("verified by RefMachine::new");
    let mut layer_c = Machine::new(&opt_module).expect("verified above");

    for (i, pkt) in trace.pkts.iter().enumerate() {
        let mut va = PacketView::new(pkt);
        let mut vb = PacketView::new(pkt);
        let mut vc = PacketView::new(pkt);
        let ra = layer_a.run_view(&mut va);
        c.pkts_ref.incr();
        let rb = layer_b.run_view(&mut vb);
        c.pkts_interp.incr();
        let rc = layer_c.run_view(&mut vc);
        c.pkts_opt.incr();

        // Loud failure anywhere — including layers disagreeing about
        // *whether* execution fails — stops the seed immediately.
        let errs: Vec<String> = [("ref", &ra), ("interp", &rb), ("opt", &rc)]
            .iter()
            .filter_map(|(l, r)| r.as_ref().err().map(|e| format!("{l}: {e}")))
            .collect();
        if !errs.is_empty() {
            return Some(Divergence {
                kind: DivergenceKind::TraceError,
                pkt: Some(i),
                detail: errs.join("; "),
            });
        }
        let (ta, verdict_a) = ra.expect("checked above");
        let (tb, verdict_b) = rb.expect("checked above");
        let (tc, verdict_c) = rc.expect("checked above");

        // Layer A vs B: same module, independent evaluators — the whole
        // trace must match (events, steps, return, packet, verdict).
        if ta != tb {
            return Some(Divergence {
                kind: DivergenceKind::RefVsInterp,
                pkt: Some(i),
                detail: if ta.events != tb.events {
                    first_mismatch(&ta.events, &tb.events)
                } else {
                    format!(
                        "steps/ret: {}/{:?} vs {}/{:?}",
                        ta.steps, ta.ret, tb.steps, tb.ret
                    )
                },
            });
        }
        if verdict_a != verdict_b || va.snapshot() != vb.snapshot() {
            return Some(Divergence {
                kind: DivergenceKind::RefVsInterp,
                pkt: Some(i),
                detail: format!("packet outputs differ: verdict {verdict_a:?} vs {verdict_b:?}"),
            });
        }

        // Layer B vs C: optimization may renumber blocks and drop pure
        // compute, but every observable — the State/Pkt/Api event
        // subsequence, return value, verdict, and emitted packet — must
        // be identical.
        if tb.ret != tc.ret {
            return Some(Divergence {
                kind: DivergenceKind::RawVsOpt,
                pkt: Some(i),
                detail: format!("return value: {:?} vs {:?}", tb.ret, tc.ret),
            });
        }
        if verdict_b != verdict_c {
            return Some(Divergence {
                kind: DivergenceKind::RawVsOpt,
                pkt: Some(i),
                detail: format!("verdict: {verdict_b:?} vs {verdict_c:?}"),
            });
        }
        if vb.snapshot() != vc.snapshot() {
            return Some(Divergence {
                kind: DivergenceKind::RawVsOpt,
                pkt: Some(i),
                detail: "emitted packet contents differ".into(),
            });
        }
        let ob = observable(&tb.events);
        let oc = observable(&tc.events);
        if ob != oc {
            return Some(Divergence {
                kind: DivergenceKind::RawVsOpt,
                pkt: Some(i),
                detail: format!("state-access sequence: {}", first_mismatch(&ob, &oc)),
            });
        }
    }

    // Cross-packet state must agree at end of trace. (Mid-trace value
    // differences that never reach an output would surface here.)
    let fa = engine::value_fingerprint(&layer_a.state);
    let fb = engine::value_fingerprint(&layer_b.state);
    let fc = engine::value_fingerprint(&layer_c.state);
    if fa != fb {
        return Some(Divergence {
            kind: DivergenceKind::RefVsInterp,
            pkt: None,
            detail: format!("final state fingerprint: {fa:#x} vs {fb:#x}"),
        });
    }
    if fb != fc {
        return Some(Divergence {
            kind: DivergenceKind::RawVsOpt,
            pkt: None,
            detail: format!("final state fingerprint: {fb:#x} vs {fc:#x}"),
        });
    }

    // Profile oracle: the optimized module must cost the same through
    // the real nfcc/nicsim pipeline, compute cycles excluded.
    let (wp_raw, wp_opt) = match profiles {
        ProfileMode::Skip => return None,
        ProfileMode::Cached => {
            let eng = Engine::new();
            let port = PortConfig::naive();
            let cfg = NicConfig::default();
            (
                eng.profile_cached(module, trace, &port, &cfg),
                eng.profile_cached(&opt_module, trace, &port, &cfg),
            )
        }
        ProfileMode::Direct => {
            let port = PortConfig::naive();
            let cfg = NicConfig::default();
            (
                nic_sim::profile_workload(module, trace, &port, &cfg, |_| {}),
                nic_sim::profile_workload(&opt_module, trace, &port, &cfg, |_| {}),
            )
        }
    };
    wp_raw
        .access_divergence_from(&wp_opt)
        .map(|detail| Divergence {
            kind: DivergenceKind::Profile,
            pkt: None,
            detail,
        })
}

/// Shrinks a divergent module: repeatedly drops instructions, rewrites
/// terminators (unconditionalizing branches, truncating to `ret`), and
/// pops trailing globals; every candidate must pass [`nf_ir::verify`]
/// and still diverge under the oracle before it replaces the current
/// module. The trace is first truncated to the shortest prefix that
/// still reproduces.
pub fn shrink(module: &Module, trace: &Trace, inject: Option<Injection>) -> ShrinkOutcome {
    let blocks_before = module.funcs[0].blocks.len();
    let insts_before: usize = module.funcs[0].blocks.iter().map(|b| b.insts.len()).sum();
    let mut checks = 0usize;
    const BUDGET: usize = 2500;

    // Shrinker predicates skip the profile oracle unless the divergence
    // itself is a profile mismatch — candidate modules should not churn
    // the compile caches.
    let initial = check_with(module, trace, inject, ProfileMode::Skip);
    let profile_mode = if initial.is_some() {
        ProfileMode::Skip
    } else {
        ProfileMode::Direct
    };
    let diverges = |m: &Module, t: &Trace, checks: &mut usize| -> bool {
        *checks += 1;
        counters().shrink_checks.incr();
        verify::verify_module(m).is_ok() && check_with(m, t, inject, profile_mode).is_some()
    };

    let mut cur = module.clone();
    if !diverges(&cur, trace, &mut checks) {
        // Not actually divergent (or only under cached profiles): return
        // unchanged rather than "minimizing" toward nothing.
        return ShrinkOutcome {
            module: cur,
            blocks_before,
            blocks_after: blocks_before,
            insts_before,
            insts_after: insts_before,
            checks,
        };
    }

    // Trace minimization: divergences that surface at packet k only
    // need packets 0..=k.
    let mut trace = trace.clone();
    if let Some(d) = check_with(&cur, &trace, inject, profile_mode) {
        if let Some(k) = d.pkt {
            let mut t2 = trace.clone();
            t2.pkts.truncate(k + 1);
            if diverges(&cur, &t2, &mut checks) {
                trace = t2;
            }
        }
    }

    while checks < BUDGET {
        match shrink_step(&cur, &trace, &mut checks, BUDGET, &diverges) {
            Some(next) => cur = next,
            None => break,
        }
    }

    let blocks_after = cur.funcs[0].blocks.len();
    let insts_after = cur.funcs[0].blocks.iter().map(|b| b.insts.len()).sum();
    ShrinkOutcome {
        module: cur,
        blocks_before,
        blocks_after,
        insts_before,
        insts_after,
        checks,
    }
}

/// One greedy pass: returns the first accepted (smaller, still
/// divergent, still valid) candidate, or `None` at a local minimum.
fn shrink_step(
    cur: &Module,
    trace: &Trace,
    checks: &mut usize,
    budget: usize,
    diverges: &dyn Fn(&Module, &Trace, &mut usize) -> bool,
) -> Option<Module> {
    let func = &cur.funcs[0];

    // 1. Drop one instruction.
    for (bi, block) in func.blocks.iter().enumerate() {
        for ii in 0..block.insts.len() {
            if *checks >= budget {
                return None;
            }
            let mut cand = cur.clone();
            cand.funcs[0].blocks[bi].insts.remove(ii);
            prune(&mut cand);
            if diverges(&cand, trace, checks) {
                return Some(cand);
            }
        }
    }

    // 2. Rewrite terminators: unconditionalize branches, then truncate
    // whole suffixes by returning early.
    for (bi, block) in func.blocks.iter().enumerate() {
        let mut replacements: Vec<Term> = Vec::new();
        match &block.term {
            Term::CondBr {
                then_bb, else_bb, ..
            } => {
                replacements.push(Term::Br { target: *then_bb });
                replacements.push(Term::Br { target: *else_bb });
                replacements.push(Term::Ret { val: None });
            }
            Term::Br { .. } => replacements.push(Term::Ret { val: None }),
            Term::Ret { val: Some(_) } => replacements.push(Term::Ret { val: None }),
            Term::Ret { val: None } => {}
        }
        for term in replacements {
            if *checks >= budget {
                return None;
            }
            let mut cand = cur.clone();
            cand.funcs[0].blocks[bi].term = term;
            prune(&mut cand);
            if diverges(&cand, trace, checks) {
                return Some(cand);
            }
        }
    }

    // 3. Drop the last global (verification rejects dangling uses).
    if !cur.globals.is_empty() && *checks < budget {
        let mut cand = cur.clone();
        cand.globals.pop();
        if diverges(&cand, trace, checks) {
            return Some(cand);
        }
    }
    None
}

/// Removes blocks made unreachable by a shrink edit (semantics-neutral;
/// the oracle re-check guards against everything else).
fn prune(m: &mut Module) {
    for f in &mut m.funcs {
        let _ = opt::remove_unreachable(f);
    }
}

fn io_err(path: &Path, source: std::io::Error) -> ClaraError {
    ClaraError::Io {
        path: path.to_path_buf(),
        source,
    }
}

/// Writes the minimized module and a repro note; returns the `.nir` path.
fn write_artifacts(
    dir: &Path,
    seed: u64,
    pkts: usize,
    minimized: &Module,
    div: &Divergence,
    inject: Option<Injection>,
) -> Result<PathBuf, ClaraError> {
    fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
    let nir = dir.join(format!("seed{seed}.nir"));
    fs::write(&nir, print::module(minimized)).map_err(|e| io_err(&nir, e))?;
    let note = dir.join(format!("seed{seed}.txt"));
    let inject_flag = match inject {
        Some(Injection::FlipArith) => " --inject",
        None => "",
    };
    let body = format!(
        "seed: {seed}\ndivergence: {div}\nrepro: clara difftest --replay {} --pkts {pkts} \
         --seed {seed}{inject_flag}\n",
        nir.display()
    );
    fs::write(&note, body).map_err(|e| io_err(&note, e))?;
    Ok(nir)
}

/// Resolves backend names against the built-in device manifests.
/// Unknown names surface as [`ClaraError::Manifest`] (exit code 8),
/// naming the devices that are available.
pub fn resolve_backends(names: &[String]) -> Result<Vec<&'static DeviceBackend>, ClaraError> {
    names
        .iter()
        .map(|n| {
            clara_hal::builtin(n).ok_or_else(|| ClaraError::Manifest {
                origin: format!("builtin:{n}"),
                field: "(backend)".into(),
                detail: format!(
                    "unknown backend `{n}` (available: {})",
                    clara_hal::builtin_names().join(", ")
                ),
            })
        })
        .collect()
}

/// Cross-backend oracle for one clean seed: profiles the module under
/// every configured device (through the engine's caches, keyed by
/// manifest fingerprint) and asserts the access-side signals — packet
/// counts and sizes, fixed and global accesses, working sets — are
/// identical everywhere. Returns the first divergence, if any, plus the
/// largest compute-cycle delta seen, which should be nonzero whenever
/// the devices differ in accelerator or vendor-library costs.
fn check_backends(
    module: &Module,
    trace: &Trace,
    backends: &[&'static DeviceBackend],
) -> (Option<Divergence>, f64) {
    let Some((base, rest)) = backends.split_first() else {
        return (None, 0.0);
    };
    if rest.is_empty() {
        return (None, 0.0);
    }
    let eng = Engine::new();
    let port = PortConfig::naive();
    let wp_base = eng.profile_cached_for(module, trace, &port, base.nic(), base.fingerprint());
    counters().backend_profiles.incr();
    let mut max_delta = 0.0f64;
    for b in rest {
        let wp = eng.profile_cached_for(module, trace, &port, b.nic(), b.fingerprint());
        counters().backend_profiles.incr();
        if let Some(detail) = wp_base.access_divergence_from(&wp) {
            return (
                Some(Divergence {
                    kind: DivergenceKind::Backend,
                    pkt: None,
                    detail: format!("{} vs {}: {detail}", base.name(), b.name()),
                }),
                max_delta,
            );
        }
        max_delta = max_delta.max((wp_base.compute - wp.compute).abs());
    }
    (None, max_delta)
}

fn check_seed(cfg: &DifftestConfig, backends: &[&'static DeviceBackend], seed: u64) -> SeedReport {
    let module = nf_synth::synth_corpus(1, cfg.guided, seed).remove(0);
    let trace = trace_for_seed(seed, cfg.pkts);
    counters().seeds.incr();
    let mut divergence = check_module(&module, &trace, cfg.inject);
    // The shrinker replays the single-device oracle, so backend
    // divergences (which that oracle cannot reproduce) are reported
    // unminimized.
    let shrinkable = divergence.is_some();
    let mut backend_compute_delta = 0.0;
    if divergence.is_none() {
        let (bd, delta) = check_backends(&module, &trace, backends);
        divergence = bd;
        backend_compute_delta = delta;
    }
    let mut report = SeedReport {
        seed,
        module_name: module.name.clone(),
        divergence,
        minimized: None,
        artifact: None,
        artifact_error: None,
        backend_compute_delta,
    };
    if let Some(div) = &report.divergence {
        counters().divergences.incr();
        if cfg.shrink && shrinkable {
            let outcome = shrink(&module, &trace, cfg.inject);
            if let Some(dir) = &cfg.artifact_dir {
                match write_artifacts(dir, seed, cfg.pkts, &outcome.module, div, cfg.inject) {
                    Ok(path) => report.artifact = Some(path),
                    Err(e) => report.artifact_error = Some(e.to_string()),
                }
            }
            report.minimized = Some(outcome);
        }
    }
    report
}

/// Runs a full sweep: `cfg.seeds` synthesized NFs, checked in parallel
/// through the engine (fault-tolerant, disk-cached when configured).
///
/// Fails fast — before any seed runs — when `cfg.backends` names a
/// device that is not built in.
pub fn run(cfg: &DifftestConfig) -> Result<DifftestReport, ClaraError> {
    let backends = resolve_backends(&cfg.backends)?;
    let _span = obs::span!(
        "difftest",
        "seeds={} pkts={} inject={:?}",
        cfg.seeds,
        cfg.pkts,
        cfg.inject
    );
    let seeds: Vec<u64> = (cfg.start_seed..cfg.start_seed.saturating_add(cfg.seeds)).collect();
    let outcome = engine::try_par_map("difftest-sweep", &seeds, |_, &seed| {
        check_seed(cfg, &backends, seed)
    });
    let engine_failures = outcome.failures.len();
    let mut checked = 0usize;
    let mut divergent = Vec::new();
    let mut max_backend_compute_delta = 0.0f64;
    for r in outcome.results.into_iter().flatten() {
        max_backend_compute_delta = max_backend_compute_delta.max(r.backend_compute_delta);
        if r.divergence.is_some() {
            divergent.push(r);
        } else {
            checked += 1;
        }
    }
    divergent.sort_by_key(|r| r.seed);
    Ok(DifftestReport {
        checked,
        divergent,
        engine_failures,
        artifact_dir: cfg.artifact_dir.clone(),
        max_backend_compute_delta,
    })
}

/// Replays a (typically shrinker-minimized) NIR module artifact through
/// the oracle, rebuilding the same trace the sweep used.
pub fn replay(
    path: &Path,
    pkts: usize,
    seed: u64,
    inject: Option<Injection>,
) -> Result<Option<Divergence>, ClaraError> {
    let text = fs::read_to_string(path).map_err(|e| io_err(path, e))?;
    let module = parse::parse_module(&text).map_err(|e| ClaraError::Format {
        path: Some(path.to_path_buf()),
        detail: e.to_string(),
    })?;
    let trace = trace_for_seed(seed, pkts);
    Ok(check_module(&module, &trace, inject))
}

/// A hand-built multi-block module for the injected-divergence smoke
/// test: the `add` on the large-packet path feeds a stored counter and
/// the return value, so [`Injection::FlipArith`] must be caught, and the
/// CFG has enough slack for the shrinker to prove it minimizes.
pub fn smoke_module() -> Module {
    use nf_ir::{ApiCall, FunctionBuilder, MemRef, Operand, PktField, Pred, StateKind, Ty};
    let mut m = Module::new("difftest_smoke");
    let ctr = m.add_global("ctr", StateKind::Scalar, 8, 1);
    let scratch = m.add_global("scratch", StateKind::Scalar, 8, 1);
    let _ = scratch; // Exists so the shrinker has a global to drop.
    let mut fb = FunctionBuilder::new("process");
    let entry = fb.entry_block();
    let big = fb.block();
    let small = fb.block();
    let join = fb.block();
    let send = fb.block();
    let drop_bb = fb.block();
    fb.switch_to(entry);
    let len = fb.load(Ty::I16, MemRef::pkt(PktField::IpLen));
    let is_big = fb.icmp(Pred::UGt, Ty::I16, len, Operand::imm(200));
    fb.cond_br(is_big, big, small);
    fb.switch_to(big);
    let wide = fb.cast(nf_ir::CastOp::Zext, Ty::I16, Ty::I32, len);
    let bumped = fb.bin(BinOp::Add, Ty::I32, wide, Operand::imm(3));
    fb.store(Ty::I32, bumped, MemRef::global(ctr));
    fb.br(join);
    fb.switch_to(small);
    fb.store(Ty::I32, Operand::imm(7), MemRef::global(ctr));
    fb.br(join);
    fb.switch_to(join);
    let back = fb.load(Ty::I32, MemRef::global(ctr));
    let ok = fb.icmp(Pred::ULt, Ty::I32, back, Operand::imm(100_000));
    fb.cond_br(ok, send, drop_bb);
    fb.switch_to(send);
    let _ = fb.call(ApiCall::PktSend, vec![Operand::imm(0)]);
    fb.ret(Some(back));
    fb.switch_to(drop_bb);
    let _ = fb.call(ApiCall::PktDrop, vec![]);
    fb.ret(None);
    m.funcs.push(fb.finish());
    m
}

/// Smoke-test result: proof the oracle catches an injected miscompile
/// and the shrinker reduces it.
#[derive(Debug, Clone)]
pub struct SmokeReport {
    /// The injected divergence was detected.
    pub caught: bool,
    /// Blocks in the deliberately broken module.
    pub blocks_before: usize,
    /// Blocks after shrinking.
    pub blocks_after: usize,
    /// Instructions after shrinking.
    pub insts_after: usize,
}

/// Runs the injected-divergence smoke test: breaks [`smoke_module`] via
/// [`Injection::FlipArith`], asserts the oracle notices, and shrinks the
/// repro. CI requires `caught` and a small `blocks_after`.
pub fn smoke() -> SmokeReport {
    let module = smoke_module();
    let trace = trace_for_seed(0xd1ff, 24);
    let caught = check_module(&module, &trace, Some(Injection::FlipArith)).is_some();
    let outcome = shrink(&module, &trace, Some(Injection::FlipArith));
    SmokeReport {
        caught,
        blocks_before: outcome.blocks_before,
        blocks_after: outcome.blocks_after,
        insts_after: outcome.insts_after,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_corpus_element_passes_the_oracle() {
        let nf = click_model::elements::cmsketch();
        let trace = trace_for_seed(7, 20);
        let div = check_module(&nf.module, &trace, None);
        assert!(div.is_none(), "unexpected divergence: {}", div.unwrap());
    }

    #[test]
    fn injected_miscompile_is_caught_and_shrunk() {
        let report = smoke();
        assert!(report.caught, "injection went unnoticed");
        assert_eq!(report.blocks_before, 6);
        assert!(
            report.blocks_after <= 3,
            "shrinker left {} blocks",
            report.blocks_after
        );
    }

    #[test]
    fn small_seed_sweep_is_clean() {
        let cfg = DifftestConfig {
            seeds: 10,
            pkts: 16,
            ..DifftestConfig::default()
        };
        let report = run(&cfg).expect("no backends configured");
        assert_eq!(report.engine_failures, 0);
        assert!(
            report.divergent.is_empty(),
            "first: {}",
            report.divergent[0].divergence.as_ref().unwrap()
        );
        assert_eq!(report.checked, 10);
        assert_eq!(report.max_backend_compute_delta, 0.0);
    }

    #[test]
    fn cross_backend_sweep_is_clean_with_nonzero_cost_deltas() {
        let cfg = DifftestConfig {
            seeds: 8,
            pkts: 16,
            backends: clara_hal::builtin_names()
                .iter()
                .map(|s| (*s).to_string())
                .collect(),
            ..DifftestConfig::default()
        };
        let report = run(&cfg).expect("builtin names resolve");
        assert_eq!(report.engine_failures, 0);
        assert!(
            report.divergent.is_empty(),
            "semantics leaked a hardware dependency: {}",
            report.divergent[0].divergence.as_ref().unwrap()
        );
        // Devices must disagree on *cost* even while they agree on
        // semantics — otherwise the manifests are not being consulted.
        assert!(
            report.max_backend_compute_delta > 0.0,
            "no compute delta across {} backends",
            cfg.backends.len()
        );
    }

    #[test]
    fn unknown_backend_is_a_manifest_error() {
        let cfg = DifftestConfig {
            seeds: 1,
            backends: vec!["agilio-cx".into(), "no-such-device".into()],
            ..DifftestConfig::default()
        };
        let err = run(&cfg).expect_err("unknown backend");
        assert_eq!(err.exit_code(), 8);
        assert!(err.to_string().contains("no-such-device"), "{err}");
    }

    #[test]
    fn shrink_of_non_divergent_module_is_a_no_op() {
        let module = smoke_module();
        let trace = trace_for_seed(1, 8);
        let out = shrink(&module, &trace, None);
        assert_eq!(out.blocks_after, out.blocks_before);
        assert_eq!(print::module(&out.module), print::module(&module));
    }
}
