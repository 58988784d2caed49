//! The unified placement planner: one typed request, one typed plan.
//!
//! Before this module, the repo had three disconnected placement
//! surfaces — the exact ILP (`crates/ilp`), the greedy fallback inside
//! the solver, and the partial-offload chain splitter
//! ([`crate::partial`]) — each with its own ad-hoc entry point. The
//! redesigned API collapses them behind a single flow:
//!
//! ```text
//! PlacementRequest ──▶ Clara::place ──▶ PlacementPlan
//! ```
//!
//! A [`PlacementRequest`] names an NF set, describes traffic via
//! `trafgen` axes (packets, seed, flow profile), and picks a device
//! backend, an inference precision, and an [`Objective`]. The returned
//! [`PlacementPlan`] carries, per NF, the exact ILP memory mapping with
//! its objective value *and* the greedy fallback's plan with its delta
//! (the difftest invariant: ILP objective ≥ greedy objective, and the
//! two must agree on feasibility), plus the chain's partial-offload
//! split point and the modeled per-side throughput/latency on the chosen
//! backend.
//!
//! The **objective value** is the per-packet memory-latency saving of a
//! placement over the all-EMEM baseline: `Σ f_i · L_emem − Σ f_i ·
//! L_place(i)` in cycles per packet. Every level is at least as fast as
//! EMEM, so the objective is non-negative, and because the exact solver
//! minimizes the same cost the greedy heuristic packs, ILP ≥ greedy
//! holds by construction on every instance where both are feasible.
//! Greedy may strand an item the exact solver places (it never
//! backtracks); the converse — greedy feasible, ILP infeasible — would
//! be a solver bug.
//!
//! Setting [`PlacementRequest::replay`] to a [`Schedule`] name makes the
//! plan *dynamic*: the planner walks the schedule epoch by epoch,
//! profiles the NF set on each phase's trace (every epoch of a phase
//! replays it), and re-solves when the observed per-NF access drift
//! exceeds [`PlacementRequest::drift_threshold`]. The [`ReplaySummary`]
//! records every epoch's drift, the re-solve count, and migration cost
//! (bytes of state moved between levels) against the predicted gain
//! (cycles per packet saved by the new plan under the new traffic).
//! Deterministic counters (`place.epochs`, `place.resolves`,
//! `place.migrated_globals`) land in the run report so a draining server
//! surfaces its re-planning history.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

use clara_obs as obs;
use ilp_solver::{AssignmentProblem, IlpError};
use nf_ir::{GlobalId, Module};
use nic_sim::{solve_perf, MemLevel, NicConfig, PortConfig, WorkloadProfile};
use trafgen::{Schedule, Trace, WorkloadSpec, BUILTIN_SCHEDULES};

use crate::clara::Clara;
use crate::engine;
use crate::error::{ClaraError, PlacementFailure};
use crate::partial::{split_plans, HostConfig};
use crate::placement::{apply_placement, CAPACITY_HEADROOM};
use tinyml::quant::Precision;

pub use crate::partial::{best_split, suggest_split};

/// Default branch-and-bound node budget per NF. Corpus instances solve
/// in well under a thousand nodes; exceeding this surfaces as a typed
/// solver timeout instead of a hang.
pub const DEFAULT_NODE_BUDGET: u64 = 2_000_000;

/// Default relative drift (L1 change of the per-NF access vector) that
/// triggers a re-solve during replay.
pub const DEFAULT_DRIFT_THRESHOLD: f64 = 0.2;

/// Default epoch count for replay mode.
pub const DEFAULT_EPOCHS: usize = 4;

/// Throughput slack the host-cores objective tolerates when buying back
/// host cores (mirrors the paper's "within 5% of best" reading).
pub const DEFAULT_SPLIT_SLACK: f64 = 0.95;

/// What the chain-split stage of a plan optimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Objective {
    /// Maximize end-to-end throughput; ties go to fewer host cores.
    Throughput,
    /// Minimize host cores while staying within
    /// [`DEFAULT_SPLIT_SLACK`] of the best achievable throughput (the
    /// paper's headline metric: host cores freed for revenue work).
    #[default]
    HostCores,
}

impl Objective {
    /// Wire/CLI name (`throughput` or `host-cores`).
    pub fn as_str(&self) -> &'static str {
        match self {
            Objective::Throughput => "throughput",
            Objective::HostCores => "host-cores",
        }
    }

    /// Parses a wire/CLI name; `None` for unknown values.
    pub fn parse(s: &str) -> Option<Objective> {
        match s {
            "throughput" => Some(Objective::Throughput),
            "host-cores" => Some(Objective::HostCores),
            _ => None,
        }
    }

    fn slack(self) -> f64 {
        match self {
            Objective::Throughput => 1.0,
            Objective::HostCores => DEFAULT_SPLIT_SLACK,
        }
    }
}

/// A typed placement request: NF set, traffic, device, precision,
/// objective, and (optionally) a replay schedule. Build one with
/// [`PlacementRequest::new`] defaults or fluently via
/// [`PlacementRequest::builder`].
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementRequest {
    /// Corpus NF names, in chain order.
    pub nfs: Vec<String>,
    /// Packets per profiling trace (per epoch in replay mode).
    pub packets: usize,
    /// Trace seed.
    pub seed: u64,
    /// Use the small-flows (cache-hostile) profile instead of
    /// large-flows. Ignored in replay mode (the schedule picks specs).
    pub small_flows: bool,
    /// Builtin backend name; `None` for the session default.
    pub backend: Option<String>,
    /// Inference precision; `None` for the model's default.
    pub precision: Option<Precision>,
    /// Chain-split objective.
    pub objective: Objective,
    /// Builtin [`Schedule`] name to replay (`steady`, `shift`, `burst`);
    /// `None` for a static one-shot plan.
    pub replay: Option<String>,
    /// Requested epoch count for replay mode (schedules clamp to their
    /// own minimum).
    pub epochs: usize,
    /// Relative access-vector drift that triggers a re-solve.
    pub drift_threshold: f64,
    /// Branch-and-bound node budget per NF solve.
    pub node_budget: u64,
}

impl PlacementRequest {
    /// A request with serving-path defaults: 400 packets, seed 42,
    /// large flows, session backend/precision, host-cores objective, no
    /// replay.
    pub fn new<I, S>(nfs: I) -> PlacementRequest
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        PlacementRequest {
            nfs: nfs.into_iter().map(Into::into).collect(),
            packets: 400,
            seed: 42,
            small_flows: false,
            backend: None,
            precision: None,
            objective: Objective::default(),
            replay: None,
            epochs: DEFAULT_EPOCHS,
            drift_threshold: DEFAULT_DRIFT_THRESHOLD,
            node_budget: DEFAULT_NODE_BUDGET,
        }
    }

    /// Fluent builder over [`PlacementRequest::new`] defaults.
    pub fn builder<I, S>(nfs: I) -> PlacementRequestBuilder
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        PlacementRequestBuilder {
            req: PlacementRequest::new(nfs),
        }
    }

    /// The profiling trace for a static (non-replay) request.
    pub fn trace(&self) -> Trace {
        Trace::generate(
            &WorkloadSpec::by_flow_size(self.small_flows),
            self.packets.max(1),
            self.seed,
        )
    }

    /// Resolves the replay schedule, if any. Unknown names are a typed
    /// format error listing the builtins.
    pub fn schedule(&self) -> Result<Option<Schedule>, ClaraError> {
        match &self.replay {
            None => Ok(None),
            Some(name) => Schedule::builtin(name, self.epochs)
                .map(Some)
                .ok_or_else(|| ClaraError::Format {
                    path: None,
                    detail: format!(
                        "unknown replay schedule `{name}` (available: {})",
                        BUILTIN_SCHEDULES.join(", ")
                    ),
                }),
        }
    }
}

/// Fluent builder for [`PlacementRequest`].
#[derive(Debug, Clone)]
pub struct PlacementRequestBuilder {
    req: PlacementRequest,
}

impl PlacementRequestBuilder {
    /// Packets per profiling trace.
    pub fn packets(mut self, n: usize) -> Self {
        self.req.packets = n;
        self
    }

    /// Trace seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.req.seed = seed;
        self
    }

    /// Profile under the small-flows workload.
    pub fn small_flows(mut self, yes: bool) -> Self {
        self.req.small_flows = yes;
        self
    }

    /// Builtin backend name.
    pub fn backend(mut self, name: impl Into<String>) -> Self {
        self.req.backend = Some(name.into());
        self
    }

    /// Inference precision.
    pub fn precision(mut self, p: Precision) -> Self {
        self.req.precision = Some(p);
        self
    }

    /// Chain-split objective.
    pub fn objective(mut self, o: Objective) -> Self {
        self.req.objective = o;
        self
    }

    /// Replay a builtin schedule by name.
    pub fn replay(mut self, schedule: impl Into<String>) -> Self {
        self.req.replay = Some(schedule.into());
        self
    }

    /// Epoch count for replay mode.
    pub fn epochs(mut self, n: usize) -> Self {
        self.req.epochs = n;
        self
    }

    /// Drift threshold for replay re-solves.
    pub fn drift_threshold(mut self, t: f64) -> Self {
        self.req.drift_threshold = t;
        self
    }

    /// Branch-and-bound node budget per NF.
    pub fn node_budget(mut self, n: u64) -> Self {
        self.req.node_budget = n;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> PlacementRequest {
        self.req
    }
}

/// The greedy fallback's answer for one NF.
#[derive(Debug, Clone, PartialEq)]
pub struct GreedyPlan {
    /// Greedy memory mapping.
    pub placement: BTreeMap<GlobalId, MemLevel>,
    /// Greedy cost `Σ f_i · L_place(i)` (cycles/packet).
    pub cost: f64,
    /// Greedy objective (baseline − cost, cycles/packet saved).
    pub objective: f64,
}

/// One NF's exact solve with its greedy fallback attached.
#[derive(Debug, Clone, PartialEq)]
pub struct NfSolve {
    /// Optimal memory mapping.
    pub placement: BTreeMap<GlobalId, MemLevel>,
    /// Optimal cost `Σ f_i · L_place(i)` (cycles/packet).
    pub cost: f64,
    /// Objective value (baseline − cost, cycles/packet saved; ≥ 0).
    pub objective: f64,
    /// The greedy fallback; `None` when the heuristic stranded an item
    /// the exact solver still placed.
    pub greedy: Option<GreedyPlan>,
}

impl NfSolve {
    /// ILP objective minus greedy objective: how much the exact solve
    /// buys over the fallback (≥ 0). When greedy found no plan at all,
    /// the whole ILP objective is the delta.
    pub fn delta(&self) -> f64 {
        match &self.greedy {
            Some(g) => self.objective - g.objective,
            None => self.objective,
        }
    }
}

/// One NF's entry in a [`PlacementPlan`].
#[derive(Debug, Clone, PartialEq)]
pub struct NfPlan {
    /// Corpus NF name.
    pub nf: String,
    /// The exact solve (placement, objective, greedy delta).
    pub solve: NfSolve,
    /// The exact placement as render-ready `(global, level)` name pairs.
    pub named_placement: Vec<(String, String)>,
    /// The greedy placement as name pairs (`None` when greedy stranded).
    pub named_greedy_placement: Option<Vec<(String, String)>>,
    /// Suggested NIC core count under the profiled workload.
    pub suggested_cores: u32,
    /// Modeled throughput at the placed port and suggested cores (Mpps).
    pub throughput_mpps: f64,
    /// Modeled per-packet latency at the placed port (µs).
    pub latency_us: f64,
}

/// The chain's chosen partial-offload split.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitSummary {
    /// Stages `0..nic_stages` run on the NIC; the rest on the host.
    pub nic_stages: usize,
    /// Total chain stages (= NFs in the request).
    pub total_stages: usize,
    /// End-to-end throughput at the chosen split (Mpps).
    pub throughput_mpps: f64,
    /// End-to-end per-packet latency at the chosen split (µs).
    pub latency_us: f64,
    /// Host cores the split consumes (0 = full offload).
    pub host_cores_needed: u32,
}

/// One replay epoch's drift decision.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochReport {
    /// Epoch index within the schedule.
    pub epoch: usize,
    /// Workload spec name active during the epoch.
    pub workload: String,
    /// Max per-NF relative access drift vs the plan's basis profiles.
    pub drift: f64,
    /// Whether the planner (re-)solved this epoch (epoch 0 always
    /// solves; later epochs only past the threshold).
    pub resolved: bool,
    /// Globals whose memory level changed in this epoch's re-solve.
    pub migrated_globals: u64,
    /// Bytes of state moved between levels (migration cost).
    pub migration_bytes: u64,
    /// Cycles/packet the new plan saves over keeping the old placement
    /// under the new traffic (predicted gain).
    pub predicted_gain: f64,
}

/// Aggregate replay outcome ([`PlacementPlan::replay`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ReplaySummary {
    /// Schedule replayed.
    pub schedule: String,
    /// Drift threshold used.
    pub drift_threshold: f64,
    /// Per-epoch decisions, in order.
    pub epochs: Vec<EpochReport>,
    /// Drift-triggered re-solves (the initial epoch-0 solve is not a
    /// *re*-solve and is not counted).
    pub resolves: u64,
    /// Total globals migrated across all re-solves.
    pub migrated_globals: u64,
    /// Total migration cost in bytes.
    pub migration_bytes: u64,
    /// Total predicted gain across re-solves (cycles/packet).
    pub predicted_gain: f64,
}

/// The unified answer to a [`PlacementRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementPlan {
    /// Device backend the plan targets.
    pub backend: String,
    /// Inference precision used.
    pub precision: Precision,
    /// Chain-split objective used.
    pub objective: Objective,
    /// Per-NF exact plans (request order).
    pub nfs: Vec<NfPlan>,
    /// The chain's partial-offload split.
    pub split: SplitSummary,
    /// Sum of per-NF ILP objectives (cycles/packet saved).
    pub total_objective: f64,
    /// Sum of per-NF greedy objectives (stranded NFs contribute 0;
    /// always ≤ [`PlacementPlan::total_objective`]).
    pub greedy_total_objective: f64,
    /// Replay outcome when the request named a schedule.
    pub replay: Option<ReplaySummary>,
}

/// Builds the capacitated assignment instance for one NF on one device
/// (costs `f_i · L_j`, sizes `total_bytes`, capacities with
/// [`CAPACITY_HEADROOM`]).
fn instance(module: &Module, wp: &WorkloadProfile, cfg: &NicConfig) -> AssignmentProblem {
    let globals = &module.globals;
    let costs: Vec<Vec<f64>> = globals
        .iter()
        .map(|g| {
            let freq = wp.accesses_to(g.id);
            MemLevel::ALL
                .iter()
                .map(|l| freq * f64::from(cfg.level(*l).latency))
                .collect()
        })
        .collect();
    let sizes: Vec<u64> = globals.iter().map(|g| g.total_bytes().max(1)).collect();
    let caps: Vec<u64> = MemLevel::ALL
        .iter()
        .map(|l| (cfg.level(*l).capacity as f64 * CAPACITY_HEADROOM) as u64)
        .collect();
    AssignmentProblem { costs, sizes, caps }
}

fn to_placement(module: &Module, assignment: &[usize]) -> BTreeMap<GlobalId, MemLevel> {
    module
        .globals
        .iter()
        .zip(assignment.iter())
        .map(|(g, &j)| (g.id, MemLevel::ALL[j]))
        .collect()
}

/// Cost of an arbitrary placement under a profile: `Σ f_i · L_place(i)`
/// in cycles per packet (globals missing from the map count as EMEM).
pub fn placement_cost(
    module: &Module,
    wp: &WorkloadProfile,
    cfg: &NicConfig,
    placement: &BTreeMap<GlobalId, MemLevel>,
) -> f64 {
    module
        .globals
        .iter()
        .map(|g| {
            let level = placement.get(&g.id).copied().unwrap_or(MemLevel::Emem);
            wp.accesses_to(g.id) * f64::from(cfg.level(level).latency)
        })
        .sum()
}

/// The all-EMEM baseline cost the objective is measured against.
pub fn baseline_cost(module: &Module, wp: &WorkloadProfile, cfg: &NicConfig) -> f64 {
    placement_cost(module, wp, cfg, &BTreeMap::new())
}

/// Flushes IEEE negative zero (a `baseline − cost` artifact on
/// zero-state NFs) so rendered objectives are `0.000`, not `-0.000`.
fn nonneg_zero(v: f64) -> f64 {
    if v == 0.0 {
        0.0
    } else {
        v
    }
}

/// Exactly solves one NF's placement with the greedy fallback attached.
///
/// Errors are typed: an instance no assignment satisfies is
/// [`PlacementFailure::Infeasible`]; an exhausted node budget is
/// [`PlacementFailure::SolverTimeout`].
pub fn solve_nf(
    module: &Module,
    wp: &WorkloadProfile,
    cfg: &NicConfig,
    node_budget: u64,
) -> Result<NfSolve, ClaraError> {
    let p = instance(module, wp, cfg);
    let baseline = baseline_cost(module, wp, cfg);
    let sol = match p.solve_within(node_budget) {
        Ok(Some(s)) => s,
        Ok(None) => {
            return Err(ClaraError::Placement {
                kind: PlacementFailure::Infeasible,
                detail: format!(
                    "`{}`: state does not fit any feasible memory assignment",
                    module.name
                ),
            })
        }
        Err(IlpError::BudgetExhausted { budget }) => {
            return Err(ClaraError::Placement {
                kind: PlacementFailure::SolverTimeout,
                detail: format!("`{}`: node budget of {budget} exhausted", module.name),
            })
        }
        Err(e) => {
            return Err(ClaraError::Format {
                path: None,
                detail: format!("`{}`: malformed placement instance: {e}", module.name),
            })
        }
    };
    let greedy = p.solve_greedy().ok().flatten().map(|g| GreedyPlan {
        placement: to_placement(module, &g.assignment),
        cost: g.cost,
        objective: nonneg_zero(baseline - g.cost),
    });
    Ok(NfSolve {
        placement: to_placement(module, &sol.assignment),
        cost: sol.cost,
        objective: nonneg_zero(baseline - sol.cost),
        greedy,
    })
}

/// The greedy fallback alone: `None` when the heuristic strands an item.
pub fn greedy_placement(
    module: &Module,
    wp: &WorkloadProfile,
    cfg: &NicConfig,
) -> Option<BTreeMap<GlobalId, MemLevel>> {
    let p = instance(module, wp, cfg);
    p.solve_greedy()
        .ok()
        .flatten()
        .map(|g| to_placement(module, &g.assignment))
}

/// Clara's ILP-based placement suggestion. Returns `None` when the
/// instance is infeasible (state larger than the NIC's memory).
pub fn suggest_placement(
    module: &Module,
    wp: &WorkloadProfile,
    cfg: &NicConfig,
) -> Option<BTreeMap<GlobalId, MemLevel>> {
    solve_nf(module, wp, cfg, DEFAULT_NODE_BUDGET)
        .ok()
        .map(|s| s.placement)
}

/// Relative L1 drift between two access profiles of the same NF: the
/// summed absolute change of the fixed- and per-global access
/// frequencies, normalized by the old profile's total. Exactly 0 for
/// bit-identical traces; compute changes are deliberately ignored (they
/// cannot change a placement).
pub fn drift(old: &WorkloadProfile, new: &WorkloadProfile) -> f64 {
    let mut num = 0.0;
    let mut den = 0.0;
    for (a, b) in old.fixed_accesses.iter().zip(new.fixed_accesses.iter()) {
        num += (a - b).abs();
        den += a;
    }
    let keys: BTreeSet<GlobalId> = old
        .global_access
        .keys()
        .chain(new.global_access.keys())
        .copied()
        .collect();
    for g in keys {
        let a = old.accesses_to(g);
        let b = new.accesses_to(g);
        num += (a - b).abs();
        den += a;
    }
    if num <= 1e-12 {
        0.0
    } else {
        num / den.max(1e-9)
    }
}

/// Migration between two per-NF solves: `(globals moved, bytes moved)`.
fn migration(modules: &[&click_model::NfElement], old: &[NfSolve], new: &[NfSolve]) -> (u64, u64) {
    let mut moved = 0u64;
    let mut bytes = 0u64;
    for ((e, o), n) in modules.iter().zip(old.iter()).zip(new.iter()) {
        for g in &e.module.globals {
            let from = o.placement.get(&g.id).copied().unwrap_or(MemLevel::Emem);
            let to = n.placement.get(&g.id).copied().unwrap_or(MemLevel::Emem);
            if from != to {
                moved += 1;
                bytes += g.total_bytes();
            }
        }
    }
    (moved, bytes)
}

/// The extended corpus, built once per process, each NF with its
/// module's [`nic_sim::module_fingerprint`]: a request only looks NFs up
/// by name, and rebuilding all 32 modules (or re-printing one's IR to
/// key the profile cache) per request cost more than the lookup it
/// served.
fn extended_corpus() -> &'static [(click_model::NfElement, u64)] {
    static CORPUS: OnceLock<Vec<(click_model::NfElement, u64)>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        click_model::extended_corpus()
            .into_iter()
            .map(|e| {
                let fp = nic_sim::module_fingerprint(&e.module);
                (e, fp)
            })
            .collect()
    })
}

fn solve_all(
    modules: &[&click_model::NfElement],
    profiles: &[WorkloadProfile],
    nic: &NicConfig,
    node_budget: u64,
    device: &str,
) -> Result<Vec<NfSolve>, ClaraError> {
    modules
        .iter()
        .zip(profiles.iter())
        .map(|(e, wp)| {
            solve_nf(&e.module, wp, nic, node_budget).map_err(|err| match err {
                ClaraError::Placement { kind, detail } => ClaraError::Placement {
                    kind,
                    detail: format!("{detail} on device `{device}`"),
                },
                other => other,
            })
        })
        .collect()
}

impl Clara {
    /// Plans placement for an NF set: resolves the request's builtin
    /// backend (session default when unset) and its precision (model
    /// default when unset), then runs [`Clara::place_on_prec`]. This is
    /// the typed entry point behind `clara place`.
    pub fn place(&self, req: &PlacementRequest) -> Result<PlacementPlan, ClaraError> {
        let backend: &dyn clara_hal::Backend = match &req.backend {
            Some(name) => crate::difftest::resolve_backends(std::slice::from_ref(name))?[0],
            None => clara_hal::default_backend(),
        };
        self.place_on_prec(req, backend, req.precision.unwrap_or(self.precision))
    }

    /// Fully explicit placement planning: request × backend × precision.
    /// The backend may be a warm server's loaded device or a manifest
    /// loaded from disk; `req.backend` and `req.precision` are not
    /// consulted.
    pub fn place_on_prec(
        &self,
        req: &PlacementRequest,
        backend: &dyn clara_hal::Backend,
        precision: Precision,
    ) -> Result<PlacementPlan, ClaraError> {
        obs::counter("place.requests").incr();
        let root = obs::span!(
            "clara-place",
            "nfs={} backend={}",
            req.nfs.join(","),
            backend.name()
        );
        if req.nfs.is_empty() {
            return Err(ClaraError::Placement {
                kind: PlacementFailure::UnknownNf,
                detail: "request names no NFs".into(),
            });
        }
        let mut modules: Vec<&click_model::NfElement> = Vec::with_capacity(req.nfs.len());
        let mut module_fps: Vec<u64> = Vec::with_capacity(req.nfs.len());
        for nf in &req.nfs {
            let (e, fp) = extended_corpus()
                .iter()
                .find(|(e, _)| e.name() == nf)
                .ok_or_else(|| ClaraError::Placement {
                    kind: PlacementFailure::UnknownNf,
                    detail: format!("`{nf}` is not in the corpus"),
                })?;
            modules.push(e);
            module_fps.push(*fp);
        }

        let nic = backend.nic();
        let naive = PortConfig::naive();
        let scope =
            engine::ProfileScope::naive(nic, backend.nic_fingerprint(), backend.fingerprint());
        // Every NF is profiled on the same trace: hash it once.
        let profile_at = |trace: &Trace| -> Vec<WorkloadProfile> {
            let trace_fp = nic_sim::trace_fingerprint(trace);
            modules
                .iter()
                .zip(&module_fps)
                .map(|(e, &fp)| scope.profile(&e.module, fp, trace, trace_fp))
                .collect()
        };
        // The chain's stages compile through the engine's cache, keyed on
        // the corpus fingerprints: a repeated request compiles nothing.
        let engine = engine::Engine::new();
        let compiled: Vec<_> = modules
            .iter()
            .zip(&module_fps)
            .map(|(e, &fp)| engine.compile_cached_fp(&e.module, fp))
            .collect();
        let module_refs: Vec<&Module> = modules.iter().map(|e| &e.module).collect();
        let nic_refs: Vec<&nfcc::NicModule> = compiled.iter().map(|n| &**n).collect();
        // The chain runs under naive ports: ports that only place state
        // change no profile value, so its stage profiles are those of the
        // placed chain, and it records its counters under the placement
        // once the plan has one.
        let naive_ports = vec![&naive; modules.len()];
        let run_chain = |trace: &Trace| {
            let pass =
                nic_sim::run_chain(&module_refs, &nic_refs, trace, &naive_ports, nic, |_| {});
            let stages = pass.stage_profiles();
            (pass, stages)
        };

        // Solve: one shot on the static trace, or a drift-driven walk
        // over the replay schedule. `basis` is the (trace, profiles) the
        // current plan was solved on — the final plan is rendered
        // against it, and the chain pass (with its stage profiles) runs
        // over its trace.
        let (solves, basis_trace, basis_profiles, replay, (chain, stages)) = match req.schedule()? {
            None => {
                let trace = req.trace();
                // The chain pass comes first: its stage 0 is the first
                // NF's standalone profile, so only the others run on
                // their own.
                let (chain, stages) = run_chain(&trace);
                let mut profiles = vec![stages[0].clone()];
                if modules.len() > 1 {
                    let trace_fp = nic_sim::trace_fingerprint(&trace);
                    profiles.extend(
                        modules[1..]
                            .iter()
                            .zip(&module_fps[1..])
                            .map(|(e, &fp)| scope.profile(&e.module, fp, &trace, trace_fp)),
                    );
                }
                match solve_all(&modules, &profiles, nic, req.node_budget, backend.name()) {
                    Ok(solves) => (solves, trace, profiles, None, (chain, stages)),
                    Err(e) => {
                        chain.record(&naive_ports);
                        return Err(e);
                    }
                }
            }
            Some(sched) => {
                let total = sched.epochs();
                let mut reports: Vec<EpochReport> = Vec::with_capacity(total);
                let mut resolves = 0u64;
                let mut migrated = 0u64;
                let mut migration_bytes = 0u64;
                let mut predicted_gain = 0.0f64;
                let mut current: Vec<NfSolve> = Vec::new();
                // Every epoch of a phase replays the phase's trace, so
                // each phase's trace is generated, hashed and profiled
                // once, on its first epoch: `(phase, trace, profiles)`.
                let mut phases: Vec<(usize, Trace, Vec<WorkloadProfile>)> = Vec::new();
                // The entry of `phases` the current plan was solved on.
                let mut basis = 0usize;
                for epoch in 0..total {
                    let (phase, spec) = sched.phase_of(epoch).expect("epoch within schedule");
                    let workload = spec.name.clone();
                    if phases.last().is_none_or(|&(p, _, _)| p != phase) {
                        let trace = sched
                            .epoch_trace(epoch, req.packets.max(1), req.seed)
                            .expect("epoch within schedule");
                        let profiles = profile_at(&trace);
                        phases.push((phase, trace, profiles));
                    }
                    let now = phases.len() - 1;
                    let profiles = &phases[now].2;
                    obs::counter("place.epochs").incr();
                    if epoch == 0 {
                        current =
                            solve_all(&modules, profiles, nic, req.node_budget, backend.name())?;
                        reports.push(EpochReport {
                            epoch,
                            workload,
                            drift: 0.0,
                            resolved: true,
                            migrated_globals: 0,
                            migration_bytes: 0,
                            predicted_gain: 0.0,
                        });
                        basis = now;
                        continue;
                    }
                    let d = phases[basis]
                        .2
                        .iter()
                        .zip(profiles.iter())
                        .map(|(o, n)| drift(o, n))
                        .fold(0.0f64, f64::max);
                    if d > req.drift_threshold {
                        let next =
                            solve_all(&modules, profiles, nic, req.node_budget, backend.name())?;
                        let (moved, bytes) = migration(&modules, &current, &next);
                        // Gain: what the *old* placement would cost under
                        // the new traffic, minus the re-solved cost.
                        let gain: f64 = modules
                            .iter()
                            .zip(current.iter())
                            .zip(profiles.iter())
                            .zip(next.iter())
                            .map(|(((e, old), wp), new)| {
                                placement_cost(&e.module, wp, nic, &old.placement) - new.cost
                            })
                            .sum();
                        resolves += 1;
                        migrated += moved;
                        migration_bytes += bytes;
                        predicted_gain += gain;
                        obs::counter("place.resolves").incr();
                        obs::counter("place.migrated_globals").add(moved);
                        reports.push(EpochReport {
                            epoch,
                            workload,
                            drift: d,
                            resolved: true,
                            migrated_globals: moved,
                            migration_bytes: bytes,
                            predicted_gain: gain,
                        });
                        current = next;
                        basis = now;
                    } else {
                        reports.push(EpochReport {
                            epoch,
                            workload,
                            drift: d,
                            resolved: false,
                            migrated_globals: 0,
                            migration_bytes: 0,
                            predicted_gain: 0.0,
                        });
                    }
                }
                let summary = ReplaySummary {
                    schedule: sched.name.clone(),
                    drift_threshold: req.drift_threshold,
                    epochs: reports,
                    resolves,
                    migrated_globals: migrated,
                    migration_bytes,
                    predicted_gain,
                };
                let (_, trace, profiles) = phases.swap_remove(basis);
                let chain = run_chain(&trace);
                (current, trace, profiles, Some(summary), chain)
            }
        };

        // Render the plan against the basis: per-NF ports, suggested
        // cores and operating points, then the chain split.
        let (nfs, ports) = match self.render_nfs(&modules, solves, &basis_profiles, nic, precision)
        {
            Ok(rendered) => rendered,
            Err(e) => {
                chain.record(&naive_ports);
                return Err(e);
            }
        };
        chain.record(&ports.iter().collect::<Vec<_>>());
        let total_objective: f64 = nfs.iter().map(|p| p.solve.objective).sum();
        let greedy_total_objective: f64 = nfs
            .iter()
            .map(|p| p.solve.greedy.as_ref().map_or(0.0, |g| g.objective))
            .sum();
        let split_plans = split_plans(
            &stages,
            &basis_trace,
            nic,
            nic.cores,
            &HostConfig::default(),
        );
        let chosen = best_split(&split_plans, req.objective.slack())
            .expect("a chain always has at least the 0-stage split");
        let split = SplitSummary {
            nic_stages: chosen.nic_stages,
            total_stages: modules.len(),
            throughput_mpps: chosen.throughput_mpps,
            latency_us: chosen.latency_us,
            host_cores_needed: chosen.host_cores_needed,
        };
        drop(root);

        Ok(PlacementPlan {
            backend: backend.name().to_string(),
            precision,
            objective: req.objective,
            nfs,
            split,
            total_objective,
            greedy_total_objective,
            replay,
        })
    }

    /// Each NF's entry of a plan and its placed port: the solve with its
    /// placements named, the suggested core count, and the operating
    /// point at that count, all against the NF's basis profile.
    fn render_nfs(
        &self,
        modules: &[&click_model::NfElement],
        solves: Vec<NfSolve>,
        profiles: &[WorkloadProfile],
        nic: &NicConfig,
        precision: Precision,
    ) -> Result<(Vec<NfPlan>, Vec<PortConfig>), ClaraError> {
        let naive = PortConfig::naive();
        let mut nfs: Vec<NfPlan> = Vec::with_capacity(modules.len());
        let mut ports: Vec<PortConfig> = Vec::with_capacity(modules.len());
        for ((e, solve), wp) in modules.iter().zip(solves).zip(profiles) {
            let port = apply_placement(naive.clone(), &solve.placement);
            let suggested_cores = self
                .scaleout
                .predict_prec(wp, nic, &naive, precision)?
                .min(nic.cores);
            let perf = solve_perf(wp, nic, &port, suggested_cores);
            let named = |placement: &BTreeMap<GlobalId, MemLevel>| {
                placement
                    .iter()
                    .map(|(&g, l)| {
                        let gname = e.module.global(g).map_or("?", |d| d.name.as_str());
                        (gname.to_string(), l.name().to_string())
                    })
                    .collect::<Vec<_>>()
            };
            let named_placement = named(&solve.placement);
            let named_greedy_placement = solve.greedy.as_ref().map(|g| named(&g.placement));
            nfs.push(NfPlan {
                nf: e.name().to_string(),
                solve,
                named_placement,
                named_greedy_placement,
                suggested_cores,
                throughput_mpps: perf.throughput_mpps,
                latency_us: perf.latency_us,
            });
            ports.push(port);
        }
        Ok((nfs, ports))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nic_sim::profile_workload;

    fn profiled(e: &click_model::NfElement) -> (WorkloadProfile, NicConfig) {
        let cfg = NicConfig::default();
        let trace = Trace::generate(&WorkloadSpec::small_flows().with_flows(2048), 500, 1);
        let wp = profile_workload(&e.module, &trace, &PortConfig::naive(), &cfg, |_| {});
        (wp, cfg)
    }

    #[test]
    fn objective_is_nonnegative_and_beats_greedy() {
        let e = click_model::elements::mazunat();
        let (wp, cfg) = profiled(&e);
        let s = solve_nf(&e.module, &wp, &cfg, DEFAULT_NODE_BUDGET).expect("feasible");
        assert!(s.objective >= 0.0);
        let g = s.greedy.as_ref().expect("greedy feasible on default NIC");
        assert!(s.objective >= g.objective - 1e-9);
        assert!(s.delta() >= -1e-9);
        // Objective really is baseline minus cost.
        let baseline = baseline_cost(&e.module, &wp, &cfg);
        assert!((s.objective - (baseline - s.cost)).abs() < 1e-9);
    }

    #[test]
    fn solver_timeout_is_typed() {
        let e = click_model::elements::mazunat();
        let (wp, cfg) = profiled(&e);
        match solve_nf(&e.module, &wp, &cfg, 0) {
            Err(ClaraError::Placement {
                kind: PlacementFailure::SolverTimeout,
                ..
            }) => {}
            other => panic!("expected solver timeout, got {other:?}"),
        }
    }

    #[test]
    fn drift_is_zero_for_identical_profiles_and_positive_for_shifts() {
        let e = click_model::elements::flowstats();
        let cfg = NicConfig::default();
        let naive = PortConfig::naive();
        let large = Trace::generate(&WorkloadSpec::large_flows(), 400, 42);
        let small = Trace::generate(&WorkloadSpec::small_flows().with_flows(8192), 400, 42);
        let a = profile_workload(&e.module, &large, &naive, &cfg, |_| {});
        let b = profile_workload(&e.module, &large, &naive, &cfg, |_| {});
        let c = profile_workload(&e.module, &small, &naive, &cfg, |_| {});
        assert_eq!(drift(&a, &b), 0.0);
        assert!(drift(&a, &c) > 0.0);
    }

    #[test]
    fn request_defaults_match_the_serving_path() {
        let req = PlacementRequest::new(["nat"]);
        assert_eq!(req.packets, 400);
        assert_eq!(req.seed, 42);
        assert_eq!(req.objective, Objective::HostCores);
        assert!(req.schedule().unwrap().is_none());
        let req = PlacementRequest::builder(["nat"])
            .packets(100)
            .seed(7)
            .replay("shift")
            .epochs(6)
            .drift_threshold(0.5)
            .build();
        assert_eq!(req.packets, 100);
        let sched = req.schedule().unwrap().expect("builtin");
        assert_eq!(sched.epochs(), 6);
        let bad = PlacementRequest::builder(["nat"]).replay("nosuch").build();
        assert!(bad.schedule().is_err());
    }

    #[test]
    fn objective_names_round_trip() {
        for o in [Objective::Throughput, Objective::HostCores] {
            assert_eq!(Objective::parse(o.as_str()), Some(o));
        }
        assert_eq!(Objective::parse("speed"), None);
    }
}
