//! The Clara facade: train once, analyze any NF.
//!
//! Facade API conventions:
//!
//! - configuration is built from the [`ClaraConfig::full`]/
//!   [`ClaraConfig::fast`] presets or the fluent
//!   [`ClaraConfig::builder`]; the struct itself is `#[non_exhaustive]`
//!   so fields can be added without breaking downstream builds;
//! - user-input failures surface as [`ClaraError`], never panics;
//! - [`Clara::save`]/[`Clara::load`] write a versioned JSON envelope so
//!   trained pipelines persist across bench runs and reject files from
//!   incompatible builds;
//! - with a `CLARA_REPORT` sink configured, [`Clara::train`] and
//!   [`Clara::analyze`] record a [`clara_obs`] span tree and write a
//!   JSON run report when they finish.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::{Mutex, OnceLock};

use clara_obs as obs;
use nf_ir::{BlockId, GlobalId, Module};
use nic_sim::{Accel, CoalescePlan, MemLevel, NicConfig, PortConfig, WorkloadProfile};
use serde::{Deserialize, Kind, Serialize, Tokens, Value};
use trafgen::Trace;

use crate::algid::{AlgoClass, AlgoIdentifier, ClassifierKind};
use crate::coalesce;
use crate::engine;
use crate::error::ClaraError;
use crate::placement;
use crate::predict::{
    memory_count_accuracy_fp, InstructionPredictor, PredictTrainConfig, PredictorKind,
};
use crate::prepare::prepare_module;
use crate::scaleout::{ScaleoutKind, ScaleoutModel};
use tinyml::quant::Precision;

/// The one format version [`Clara::save`] writes and [`Clara::load`]
/// reads. Version 3 saves only the f64 weights (the Q16.16 twins are
/// rebuilt from them on load) and stores regression trees as flat
/// preorder arrays. A model file is a deterministic function of its
/// [`ClaraConfig`], so an older file is re-trained, not converted.
pub const MODEL_FORMAT_VERSION: u64 = 3;

/// The sections of a model file, read in one streaming pass by
/// [`Envelope::read`]. The first of duplicate keys counts and unknown keys
/// are skipped. A section that is well-formed JSON but does not decode
/// keeps its error instead of ending the pass, so the file's
/// `format_version`, wherever it sits, still decides between a version
/// mismatch and that error.
#[derive(Default)]
struct Envelope {
    version: Option<Value>,
    nic_config: Option<Result<NicConfig, String>>,
    precision: Option<Result<Precision, String>>,
    models: Option<Result<Models, String>>,
}

/// The `models` section of a model file.
#[derive(Deserialize)]
struct Models {
    predictor: InstructionPredictor,
    algid: AlgoIdentifier,
    scaleout: ScaleoutModel,
}

impl Envelope {
    /// Reads the envelope of `json`, decoding each section straight from
    /// the text.
    ///
    /// # Errors
    ///
    /// Returns an error when `json` is not well-formed JSON (or nests
    /// deeper than [`serde_json::MAX_DEPTH`]).
    fn read(json: &str) -> Result<Envelope, serde::Error> {
        let mut p = serde_json::Parser::new(json);
        let mut env = Envelope::default();
        if p.peek()? == Kind::Map {
            p.map_begin()?;
            while let Some(key) = p.map_key()?.map(Cow::into_owned) {
                match key.as_str() {
                    "format_version" if env.version.is_none() => env.version = Some(p.value()?),
                    "nic_config" if env.nic_config.is_none() => {
                        env.nic_config = Some(decode_or_skip(&mut p)?)
                    }
                    "precision" if env.precision.is_none() => {
                        env.precision = Some(decode_or_skip(&mut p)?)
                    }
                    "models" if env.models.is_none() => env.models = Some(decode_or_skip(&mut p)?),
                    _ => p.skip()?,
                }
            }
        } else {
            p.skip()?;
        }
        p.end()?;
        Ok(env)
    }
}

/// Decodes the next value as a `T`. A value that is well-formed but does
/// not decode is skipped from where it started, and its error returned
/// inside `Ok`.
fn decode_or_skip<T: Deserialize>(
    p: &mut serde_json::Parser<'_>,
) -> Result<Result<T, String>, serde::Error> {
    let start = p.clone();
    match T::deserialize(p) {
        Ok(t) => Ok(Ok(t)),
        Err(e) => {
            *p = start;
            p.skip()?;
            Ok(Err(e.to_string()))
        }
    }
}

/// A decoded envelope section, or why the file has no usable one.
fn section<T>(slot: Option<Result<T, String>>, name: &str) -> Result<T, String> {
    slot.unwrap_or_else(|| Err(format!("missing `{name}` section")))
}

/// Training budget for the whole Clara pipeline.
///
/// Construct via the presets ([`ClaraConfig::full`], [`ClaraConfig::fast`])
/// or the fluent builder:
///
/// ```
/// use clara_core::ClaraConfig;
/// let cfg = ClaraConfig::builder().predict_programs(240).seed(7).build();
/// assert_eq!(cfg.predict_programs, 240);
/// assert_eq!(cfg.seed, 7);
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ClaraConfig {
    /// Synthesized programs for instruction-prediction training.
    pub predict_programs: usize,
    /// Labeled variants per class for algorithm identification.
    pub algid_per_class: usize,
    /// Synthesized programs for scale-out training.
    pub scaleout_programs: usize,
    /// Neural-model training epochs.
    pub epochs: usize,
    /// RNG seed.
    pub seed: u64,
    /// Default inference precision for the trained pipeline (callers can
    /// still override per call/request).
    pub precision: Precision,
}

impl ClaraConfig {
    /// Full-quality configuration (benchmarks, release builds).
    pub fn full(seed: u64) -> ClaraConfig {
        ClaraConfig {
            predict_programs: 240,
            algid_per_class: 40,
            scaleout_programs: 60,
            epochs: 35,
            seed,
            precision: Precision::F64,
        }
    }

    /// Reduced configuration for tests and examples.
    pub fn fast(seed: u64) -> ClaraConfig {
        ClaraConfig {
            predict_programs: 50,
            algid_per_class: 25,
            scaleout_programs: 16,
            epochs: 15,
            seed,
            precision: Precision::F64,
        }
    }

    /// Fluent builder seeded with the [`ClaraConfig::full`] defaults.
    pub fn builder() -> ClaraConfigBuilder {
        ClaraConfigBuilder {
            cfg: ClaraConfig::full(0),
        }
    }

    /// Builder pre-populated from this configuration (tweak a preset).
    pub fn to_builder(&self) -> ClaraConfigBuilder {
        ClaraConfigBuilder { cfg: self.clone() }
    }
}

/// Fluent builder for [`ClaraConfig`] (the only way to assemble a custom
/// configuration now that the struct is `#[non_exhaustive]`).
#[derive(Debug, Clone)]
pub struct ClaraConfigBuilder {
    cfg: ClaraConfig,
}

impl ClaraConfigBuilder {
    /// Sets the instruction-prediction corpus size.
    #[must_use]
    pub fn predict_programs(mut self, n: usize) -> Self {
        self.cfg.predict_programs = n;
        self
    }

    /// Sets the labeled variants per algorithm class.
    #[must_use]
    pub fn algid_per_class(mut self, n: usize) -> Self {
        self.cfg.algid_per_class = n;
        self
    }

    /// Sets the scale-out training corpus size.
    #[must_use]
    pub fn scaleout_programs(mut self, n: usize) -> Self {
        self.cfg.scaleout_programs = n;
        self
    }

    /// Sets the neural-model training epochs.
    #[must_use]
    pub fn epochs(mut self, n: usize) -> Self {
        self.cfg.epochs = n;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Sets the default inference precision (`F64` reference semantics
    /// or the `Q16` fixed-point fast path).
    #[must_use]
    pub fn precision(mut self, precision: Precision) -> Self {
        self.cfg.precision = precision;
        self
    }

    /// Finalizes the configuration.
    pub fn build(self) -> ClaraConfig {
        self.cfg
    }
}

impl Default for ClaraConfigBuilder {
    fn default() -> Self {
        ClaraConfig::builder()
    }
}

/// A fully trained Clara instance.
#[derive(Serialize, Deserialize)]
pub struct Clara {
    /// Instruction predictor (LSTM+FC).
    pub predictor: InstructionPredictor,
    /// Algorithm identifier (SVM over SPE features).
    pub algid: AlgoIdentifier,
    /// Scale-out core-count model (GBDT).
    pub scaleout: ScaleoutModel,
    /// NIC configuration used for training and analysis (the default
    /// device's; saved with the model).
    pub nic: NicConfig,
    /// Default inference precision (from [`ClaraConfig::precision`] at
    /// train time, saved with the model). Entry points without an
    /// explicit precision use this.
    pub precision: Precision,
}

/// The offloading insights Clara generates for one NF + workload.
#[derive(Debug, Clone)]
pub struct Insights {
    /// Predicted NIC compute instructions per packet-handler invocation.
    pub predicted_compute: f64,
    /// Counted memory accesses (IR loads/stores to state/packet data).
    pub counted_mem: u32,
    /// Memory-counting fidelity vs the vendor compiler (percent).
    pub mem_count_accuracy: f64,
    /// Identified accelerator opportunity and its loop region.
    pub accel: Option<(AlgoClass, Vec<BlockId>)>,
    /// Suggested core count for the profiled workload.
    pub suggested_cores: u32,
    /// Suggested state placement.
    pub placement: BTreeMap<GlobalId, MemLevel>,
    /// Suggested variable packing.
    pub coalesce: CoalescePlan,
    /// The host-side workload profile the suggestions are based on.
    pub profile: WorkloadProfile,
}

/// The lightweight performance-parameter bundle served per request by
/// `clara serve` and returned per item by
/// [`Clara::predict_batch_on_prec_cached`]: the paper's §3 predictions
/// without the §4 porting strategies (no placement ILP, no coalescing
/// clustering).
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Predicted NIC compute instructions per packet-handler invocation.
    pub predicted_compute: f64,
    /// Counted memory accesses (IR loads/stores to state/packet data).
    pub counted_mem: u32,
    /// Suggested core count for the profiled workload.
    pub suggested_cores: u32,
    /// Modeled throughput at the suggested core count, in Mpps. Unlike
    /// the compute/memory halves, this depends on the target device, so
    /// cross-backend prediction deltas are visible per request.
    pub predicted_throughput_mpps: f64,
    /// Modeled per-packet latency at the suggested core count, in µs.
    pub predicted_latency_us: f64,
}

impl Insights {
    /// Converts the insights into a concrete port configuration
    /// (the "Clara porting" of Section 5.1).
    pub fn port_config(&self) -> PortConfig {
        let mut port = PortConfig::naive()
            .with_csum_accel()
            .with_coalesce(self.coalesce.clone());
        port = placement::apply_placement(port, &self.placement);
        if let Some((class, region)) = &self.accel {
            let accel = match class {
                AlgoClass::Crc | AlgoClass::Crypto => Some(Accel::Crc),
                AlgoClass::Lpm => Some(Accel::Lpm),
                AlgoClass::None => None,
            };
            if let Some(a) = accel {
                port = port.accelerate(region.iter().copied(), a);
            }
        }
        port
    }
}

impl Clara {
    /// Trains the full pipeline from synthesized corpora.
    ///
    /// The corpus compiles and the corpus × workload profiling matrix
    /// fan out across [`crate::engine`]'s worker pool
    /// ([`crate::engine::threads`] workers); results are bit-identical to
    /// a serial run. Engine tasks that fail — panics, injected faults —
    /// are retried twice; faulted runs whose failures all retry out are
    /// likewise bit-identical to a fault-free run.
    ///
    /// # Errors
    ///
    /// Returns [`ClaraError::Degraded`] when any engine task exhausted
    /// its retry budget (or hit a stage deadline): the pipeline is then
    /// incomplete and no `Clara` is produced, but the run report (when a
    /// sink is configured) is still written with the failure counters.
    pub fn train(cfg: &ClaraConfig) -> Result<Clara, ClaraError> {
        let sink = obs::sink_from_env();
        if sink.is_some() {
            obs::enable();
        }
        let root = obs::span!(
            "clara-train",
            "predict={} algid={} scaleout={} epochs={} seed={}",
            cfg.predict_programs,
            cfg.algid_per_class,
            cfg.scaleout_programs,
            cfg.epochs,
            cfg.seed
        );
        // Branches may run on spawned threads; parenting them explicitly
        // under the root handle keeps the span tree identical to a
        // serial run. Each branch reports (model, failures, tasks) so a
        // degraded run can be surfaced with exact counts.
        let rh = root.handle();
        let nic = NicConfig::default();
        type Branch<M> = (Option<M>, Vec<engine::TaskFailure>, usize);
        // Instruction prediction: synthesized program/assembly pairs.
        let train_predictor = || -> Branch<InstructionPredictor> {
            let _branch = obs::span_under(rh, "train-predict-branch");
            let train_modules = nf_synth::synth_corpus(cfg.predict_programs, true, cfg.seed);
            let (samples, mut failures, mut total) =
                crate::predict::try_block_samples(&train_modules);
            total += 1;
            let fit = engine::try_time_stage("train-predict", || {
                InstructionPredictor::train(
                    PredictorKind::ClaraLstm,
                    &samples,
                    &PredictTrainConfig {
                        epochs: cfg.epochs,
                        seed: cfg.seed,
                        ..Default::default()
                    },
                )
            });
            match fit {
                Ok(p) => (Some(p), failures, total),
                Err(f) => {
                    failures.push(f);
                    (None, failures, total)
                }
            }
        };
        // Algorithm identification.
        let train_algid = || -> Branch<AlgoIdentifier> {
            let _branch = obs::span_under(rh, "train-algid-branch");
            let fit = engine::try_time_stage("train-algid", || {
                let corpus = crate::algid::labeled_corpus(cfg.algid_per_class, cfg.seed ^ 0xa1);
                AlgoIdentifier::train(&corpus, ClassifierKind::ClaraSvm, cfg.seed)
            });
            match fit {
                Ok(a) => (Some(a), Vec::new(), 1),
                Err(f) => (None, vec![f], 1),
            }
        };
        // Scale-out analysis.
        let train_scaleout = || -> Branch<ScaleoutModel> {
            let _branch = obs::span_under(rh, "train-scaleout-branch");
            let (so_data, mut failures, mut total) =
                crate::scaleout::try_training_set(cfg.scaleout_programs, cfg.seed ^ 0x50, &nic);
            total += 1;
            let fit = engine::try_time_stage("train-scaleout", || {
                ScaleoutModel::train(ScaleoutKind::ClaraGbdt, &so_data, &nic, cfg.seed)
            });
            match fit {
                Ok(so) => (Some(so), failures, total),
                Err(f) => {
                    failures.push(f);
                    (None, failures, total)
                }
            }
        };
        // The three models are independent; with more than one engine
        // worker they train concurrently (each branch also fans out
        // internally). Either path assembles the same three results, so
        // the worker count never changes the trained pipeline.
        let ((predictor, pf, pt), (algid, af, at), (scaleout, sf, st)) = if engine::threads() > 1 {
            std::thread::scope(|s| {
                let a = s.spawn(train_algid);
                let so = s.spawn(train_scaleout);
                let p = train_predictor();
                (p, a.join().expect("algid"), so.join().expect("scaleout"))
            })
        } else {
            (train_predictor(), train_algid(), train_scaleout())
        };
        let failed = pf.len() + af.len() + sf.len();
        let total = pt + at + st;
        drop(root);
        // The report is written even for degraded runs — it is where the
        // engine.task_failures / engine.retries counters land, and a
        // degraded run is exactly when they matter.
        if let Some(raw) = sink {
            write_report(&raw, "clara_train.json");
        }
        match (predictor, algid, scaleout) {
            (Some(predictor), Some(algid), Some(scaleout)) if failed == 0 => Ok(Clara {
                predictor,
                algid,
                scaleout,
                nic,
                precision: cfg.precision,
            }),
            _ => Err(ClaraError::Degraded { failed, total }),
        }
    }

    /// Serializes the trained pipeline to a versioned JSON envelope
    /// (`{format_version, nic_config, precision, models}`), so it can be
    /// reloaded by any build that reads the same [`MODEL_FORMAT_VERSION`].
    /// Only the f64 weights are written; the Q16.16 twins are rebuilt
    /// from them on load.
    ///
    /// # Errors
    ///
    /// Returns [`ClaraError::Io`] on filesystem failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ClaraError> {
        let path = path.as_ref();
        let envelope = Value::Map(vec![
            (
                "format_version".to_string(),
                MODEL_FORMAT_VERSION.to_value(),
            ),
            ("nic_config".to_string(), self.nic.to_value()),
            ("precision".to_string(), self.precision.to_value()),
            (
                "models".to_string(),
                Value::Map(vec![
                    ("predictor".to_string(), self.predictor.to_value()),
                    ("algid".to_string(), self.algid.to_value()),
                    ("scaleout".to_string(), self.scaleout.to_value()),
                ]),
            ),
        ]);
        let json = serde_json::to_string(&envelope).map_err(|e| ClaraError::Format {
            path: Some(path.to_path_buf()),
            detail: e.to_string(),
        })?;
        std::fs::write(path, json).map_err(|source| ClaraError::Io {
            path: path.to_path_buf(),
            source,
        })
    }

    /// Loads a pipeline previously written by [`Clara::save`].
    ///
    /// Reads [`MODEL_FORMAT_VERSION`] only, in one pass over the text:
    /// each section decodes straight from the JSON, with no value tree.
    /// Decoding checks every shape inference indexes (matrix sizes, LSTM
    /// tensors against their config, tree arrays, GBDT split features)
    /// and then rebuilds the Q16.16 companions from the f64 weights — a
    /// pure function of the weights, so they are identical to the ones
    /// training built.
    ///
    /// # Errors
    ///
    /// Returns [`ClaraError::Io`] when the file cannot be read,
    /// [`ClaraError::Format`] when it is not well-formed JSON, not a
    /// Clara model envelope, or a model section fails those checks, and
    /// [`ClaraError::UnsupportedVersion`] when it is well-formed JSON
    /// written in any other format version.
    pub fn load(path: impl AsRef<Path>) -> Result<Clara, ClaraError> {
        let path = path.as_ref();
        let format = |detail: String| ClaraError::Format {
            path: Some(path.to_path_buf()),
            detail,
        };
        let json = std::fs::read_to_string(path).map_err(|source| ClaraError::Io {
            path: path.to_path_buf(),
            source,
        })?;
        let env = Envelope::read(&json).map_err(|e| format(e.to_string()))?;
        let found = match env.version {
            Some(Value::Int(i)) if i >= 0 => i as u64,
            Some(Value::UInt(u)) => u,
            _ => {
                return Err(format(
                    "missing `format_version` — not a Clara model file (or written by a \
                     pre-versioning build)"
                        .to_string(),
                ))
            }
        };
        if found != MODEL_FORMAT_VERSION {
            return Err(ClaraError::UnsupportedVersion {
                found,
                supported: MODEL_FORMAT_VERSION,
            });
        }
        let models = section(env.models, "models").map_err(format)?;
        Ok(Clara {
            predictor: models.predictor,
            algid: models.algid,
            scaleout: models.scaleout,
            nic: section(env.nic_config, "nic_config").map_err(format)?,
            precision: section(env.precision, "precision").map_err(format)?,
        })
    }

    /// The trace-independent half of a prediction (verification, LSTM
    /// compute estimate, memory count), memoized process-wide by
    /// (predictor, module, precision). `module_fp` is the module's
    /// printed-IR [`nic_sim::module_fingerprint`], the same identity the
    /// engine's compile and profile caches key on. The precision joins
    /// the key so a server holding both paths warm never serves one
    /// precision's estimate for the other. Memoized values are pure
    /// deterministic functions of the key, so a hit is bit-identical to
    /// recomputation; hit/miss counters are volatile because racing
    /// batch workers may both miss the same key.
    fn module_half(
        &self,
        predictor_fp: u64,
        module: &Module,
        module_fp: u64,
        precision: Precision,
    ) -> Result<(f64, u32), ClaraError> {
        type HalfMemo = Mutex<HashMap<(u64, u64, Precision), (f64, u32)>>;
        static MEMO: OnceLock<HalfMemo> = OnceLock::new();
        let key = (predictor_fp, module_fp, precision);
        let memo = MEMO.get_or_init(Mutex::default);
        if let Some(&hit) = memo.lock().expect("memo poisoned").get(&key) {
            obs::volatile_counter("clara.predict_memo.hits").incr();
            return Ok(hit);
        }
        obs::volatile_counter("clara.predict_memo.misses").incr();
        nf_ir::verify::verify_module(module).map_err(|e| ClaraError::InvalidModule {
            name: module.name.clone(),
            detail: e.to_string(),
        })?;
        let prepared = prepare_module(module);
        let value = (
            self.predictor
                .predict_prepared_compute(&prepared, precision),
            prepared.counted_mem(),
        );
        memo.lock().expect("memo poisoned").insert(key, value);
        Ok(value)
    }

    /// Content fingerprint of the trained predictor weights, the
    /// `predictor_fp` argument of [`Clara::predict_batch_on_prec_cached`].
    /// Hashing the full weight tensors costs milliseconds, which is noise
    /// on a one-shot CLI run but dominates a warm sub-millisecond serving
    /// request; a resident server should call this **once** and reuse
    /// the value.
    pub fn predictor_fingerprint(&self) -> u64 {
        engine::value_fingerprint(&self.predictor)
    }

    /// Predicts performance parameters for a batch of `(module, trace)`
    /// pairs on `backend` at `precision`: the one predict entry point,
    /// for a single item as for a batch.
    ///
    /// The batch runs as **one** `predict-batch` [`crate::engine`]
    /// stage across the worker pool (instead of one facade call per
    /// request), and every item reuses one request-scoped
    /// [`engine::Engine`] handle so compiles and profiles are shared
    /// through the process-wide caches. Results come back in input order,
    /// and each is bit-identical to a one-item call with the same
    /// arguments.
    ///
    /// The trained models are reused as-is (compute and memory
    /// predictions are device-independent), while profiling, the
    /// scale-out estimate and the modeled operating point use the
    /// backend's device configuration, and its manifest fingerprint keys
    /// the engine caches, so two devices never share a cached profile.
    /// `Q16` routes model inference (compute estimate and core
    /// suggestion) through the fixed-point twins; counted memory,
    /// profiling and the performance model are precision-independent.
    ///
    /// `predictor_fp` must be this instance's
    /// [`Clara::predictor_fingerprint`]. The trace-independent half of a
    /// prediction (IR verification, LSTM compute estimate, memory count)
    /// is a pure function of (trained predictor, module, precision) and
    /// is memoized process-wide under it; a fingerprint that was not
    /// produced from this instance's predictor poisons that memo with
    /// misattributed entries, so callers must cache it per instance.
    ///
    /// # Errors
    ///
    /// Each item fails independently: [`ClaraError::EmptyTrace`] for a
    /// packet-less trace, [`ClaraError::InvalidModule`] when IR
    /// verification fails, [`ClaraError::Prediction`] for an unusable
    /// model estimate, and [`ClaraError::Degraded`] when the item's
    /// engine task failed permanently (panic past the retry budget or a
    /// stage deadline).
    pub fn predict_batch_on_prec_cached(
        &self,
        items: &[(&Module, &Trace)],
        backend: &dyn clara_hal::Backend,
        precision: Precision,
        predictor_fp: u64,
    ) -> Vec<Result<Prediction, ClaraError>> {
        let nic = backend.nic();
        let naive = PortConfig::naive();
        let scope =
            engine::ProfileScope::naive(nic, backend.nic_fingerprint(), backend.fingerprint());
        let outcome = engine::try_par_map("predict-batch", items, |_, &(module, trace)| {
            if trace.pkts.is_empty() {
                return Err(ClaraError::EmptyTrace);
            }
            // One module identity per item, shared by the memo below and
            // the engine's compile and profile caches.
            let module_fp = nic_sim::module_fingerprint(module);
            let (predicted_compute, counted_mem) =
                self.module_half(predictor_fp, module, module_fp, precision)?;
            let trace_fp = nic_sim::trace_fingerprint(trace);
            let profile = scope.profile(module, module_fp, trace, trace_fp);
            // Scale-out is trained once and parameterized by the device
            // at inference time; the clamp keeps suggestions honest for
            // devices with fewer cores than the training default.
            let suggested_cores = self
                .scaleout
                .predict_prec(&profile, nic, &naive, precision)?
                .min(nic.cores);
            let perf = nic_sim::solve_perf(&profile, nic, &naive, suggested_cores);
            Ok(Prediction {
                predicted_compute,
                counted_mem,
                suggested_cores,
                predicted_throughput_mpps: perf.throughput_mpps,
                predicted_latency_us: perf.latency_us,
            })
        });
        outcome
            .results
            .into_iter()
            .map(|r| match r {
                Some(item) => item,
                // The task itself died (panic past the retry budget or a
                // stage deadline) — surface it as a degraded single-task
                // run so the caller sees the same shape `analyze` uses.
                None => Err(ClaraError::Degraded {
                    failed: 1,
                    total: 1,
                }),
            })
            .collect()
    }

    /// Analyzes an unported NF against a workload trace, producing the
    /// full insight bundle.
    ///
    /// # Errors
    ///
    /// Returns [`ClaraError::EmptyTrace`] for a packet-less trace,
    /// [`ClaraError::InvalidModule`] when the module fails IR
    /// verification, [`ClaraError::Prediction`] when a trained model
    /// produces an unusable estimate, and [`ClaraError::Degraded`] when
    /// the profiling task failed permanently (exhausted retries or hit a
    /// stage deadline).
    pub fn analyze(&self, module: &Module, trace: &Trace) -> Result<Insights, ClaraError> {
        self.analyze_prec(module, trace, self.precision)
    }

    /// [`Clara::analyze`] at an explicit inference precision (same
    /// default device).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Clara::analyze`].
    pub fn analyze_prec(
        &self,
        module: &Module,
        trace: &Trace,
        precision: Precision,
    ) -> Result<Insights, ClaraError> {
        // The default device keys the caches by its manifest, as
        // `analyze_on_prec(default_backend())` does, so the two share one
        // entry; any other device keys by its configuration.
        let default: &dyn clara_hal::Backend = clara_hal::default_backend();
        let (nic_fp, backend_fp) = if self.nic == *default.nic() {
            (default.nic_fingerprint(), default.fingerprint())
        } else {
            let fp = engine::value_fingerprint(&self.nic);
            (fp, fp)
        };
        self.analyze_with(module, trace, &self.nic, nic_fp, backend_fp, precision)
    }

    /// [`Clara::analyze`] against a specific device backend at an
    /// explicit precision: identical code path and span tree, but the
    /// profiling run, placement capacities, scale-out estimate, and
    /// coalescing evaluation all use the backend's device configuration,
    /// and its manifest fingerprint keys the engine caches. Analyzing on
    /// the default backend at the model's precision is bit-identical to
    /// [`Clara::analyze`]. See [`Clara::predict_batch_on_prec_cached`] for
    /// what the precision covers.
    ///
    /// # Errors
    ///
    /// Same contract as [`Clara::analyze`].
    pub fn analyze_on_prec(
        &self,
        module: &Module,
        trace: &Trace,
        backend: &dyn clara_hal::Backend,
        precision: Precision,
    ) -> Result<Insights, ClaraError> {
        self.analyze_with(
            module,
            trace,
            backend.nic(),
            backend.nic_fingerprint(),
            backend.fingerprint(),
            precision,
        )
    }

    /// `nic_fp` is `nic`'s [`engine::value_fingerprint`] and `backend_fp`
    /// keys the device, as in [`engine::Engine::profile_cached_for`].
    fn analyze_with(
        &self,
        module: &Module,
        trace: &Trace,
        nic: &NicConfig,
        nic_fp: u64,
        backend_fp: u64,
        precision: Precision,
    ) -> Result<Insights, ClaraError> {
        if trace.pkts.is_empty() {
            return Err(ClaraError::EmptyTrace);
        }
        nf_ir::verify::verify_module(module).map_err(|e| ClaraError::InvalidModule {
            name: module.name.clone(),
            detail: e.to_string(),
        })?;
        let sink = obs::sink_from_env();
        if sink.is_some() {
            obs::enable();
        }
        let root = obs::span!(
            "clara-analyze",
            "nf={} pkts={}",
            module.name,
            trace.pkts.len()
        );
        let prepared = {
            let _s = obs::span("analyze-prepare");
            prepare_module(module)
        };
        let predicted_compute = {
            let _s = obs::span("analyze-predict-compute");
            self.predictor
                .predict_prepared_compute(&prepared, precision)
        };
        let counted_mem = prepared.counted_mem();
        let accel = {
            let _s = obs::span("analyze-algid");
            let (class, region) = self.algid.identify(module);
            if class == AlgoClass::None || region.is_empty() {
                None
            } else {
                Some((class, region))
            }
        };
        // Host-side profiling for the workload-specific insights, memoized
        // so repeat analyses of the same NF + trace reuse the run. This
        // is the one engine task in the analyze path, so it runs under
        // the fault-tolerance machinery (retries, deadline, injection).
        // The module's fingerprint keys the profile, the coalescing
        // summary's compile and the memory-count accuracy's compile.
        // When there are scalars to pack, the coalescing summary rides
        // the profiling pass if the profile cache misses; a retried
        // attempt starts a fresh one.
        let module_fp = nic_sim::module_fingerprint(module);
        let naive = PortConfig::naive();
        let packs = coalesce::packs(module);
        let (profile, summary) = match engine::try_time_stage("analyze-profile", || {
            let scope = engine::ProfileScope::naive(nic, nic_fp, backend_fp);
            let trace_fp = nic_sim::trace_fingerprint(trace);
            if packs {
                scope.profile_summarized(module, module_fp, trace, trace_fp)
            } else {
                (scope.profile(module, module_fp, trace, trace_fp), None)
            }
        }) {
            Ok(p) => p,
            Err(_) => {
                drop(root);
                if let Some(raw) = sink {
                    write_report(&raw, "clara_analyze.json");
                }
                return Err(ClaraError::Degraded {
                    failed: 1,
                    total: 1,
                });
            }
        };
        let placement = {
            let _s = obs::span("analyze-placement");
            placement::plan::suggest_placement(module, &profile, nic).unwrap_or_default()
        };
        let coalesce = {
            let _s = obs::span("analyze-coalesce");
            if packs {
                // A cached profile ran no pass to ride: the summary runs
                // as its own pass.
                let summary = summary.unwrap_or_else(|| {
                    let compiled = engine::Engine::new().compile_cached_fp(module, module_fp);
                    nic_sim::profile_summarized(module, &compiled, trace, nic).1
                });
                coalesce::suggest_from(&summary, 7)
            } else {
                CoalescePlan::default()
            }
        };
        let suggested_cores = {
            let _s = obs::span("analyze-scaleout");
            self.scaleout
                .predict_prec(&profile, nic, &naive, precision)?
                .min(nic.cores)
        };
        drop(root);
        if let Some(raw) = sink {
            write_report(&raw, "clara_analyze.json");
        }
        Ok(Insights {
            predicted_compute,
            counted_mem,
            mem_count_accuracy: memory_count_accuracy_fp(module, module_fp),
            accel,
            suggested_cores,
            placement,
            coalesce,
            profile,
        })
    }
}

/// Best-effort run-report write for the facade's `CLARA_REPORT` sink
/// (telemetry must never fail the pipeline).
fn write_report(raw_sink: &str, default_name: &str) {
    let path = obs::resolve_sink(raw_sink, default_name);
    if let Err(e) = obs::RunReport::capture().write(&path) {
        eprintln!(
            "warning: could not write run report to {}: {e}",
            path.display()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trafgen::WorkloadSpec;

    #[test]
    fn end_to_end_insights_for_cmsketch() {
        let clara = Clara::train(&ClaraConfig::fast(1)).expect("train");
        let e = click_model::elements::cmsketch();
        let trace = Trace::generate(&WorkloadSpec::large_flows(), 300, 2);
        let insights = clara.analyze(&e.module, &trace).expect("analysis succeeds");

        assert!(insights.predicted_compute > 0.0);
        assert!(insights.counted_mem > 0);
        assert!(insights.mem_count_accuracy > 90.0);
        let (class, region) = insights.accel.as_ref().expect("cmsketch has CRC loops");
        assert_eq!(*class, AlgoClass::Crc);
        assert!(!region.is_empty());
        assert!((1..=60).contains(&insights.suggested_cores));

        // The Clara port must beat the naive port on the simulator.
        let port = insights.port_config();
        let cfg = NicConfig::default();
        let naive_pt = nic_sim::simulate(&e.module, &trace, &PortConfig::naive(), &cfg, 20);
        let clara_pt = nic_sim::simulate(&e.module, &trace, &port, &cfg, 20);
        assert!(
            clara_pt.throughput_mpps > naive_pt.throughput_mpps,
            "clara {} vs naive {}",
            clara_pt.throughput_mpps,
            naive_pt.throughput_mpps
        );
        assert!(clara_pt.latency_us < naive_pt.latency_us);
    }

    #[test]
    fn save_load_round_trip_preserves_predictions() {
        let clara = Clara::train(&ClaraConfig::fast(5)).expect("train");
        let dir = std::env::temp_dir().join("clara_model_test.json");
        clara.save(&dir).expect("saves");
        let loaded = Clara::load(&dir).expect("loads");
        std::fs::remove_file(&dir).ok();

        let e = click_model::elements::iplookup(256);
        let trace = Trace::generate(&WorkloadSpec::large_flows(), 200, 6);
        let a = clara.analyze(&e.module, &trace).expect("analysis succeeds");
        let b = loaded
            .analyze(&e.module, &trace)
            .expect("analysis succeeds");
        assert_eq!(a.predicted_compute, b.predicted_compute);
        assert_eq!(a.suggested_cores, b.suggested_cores);
        assert_eq!(a.accel, b.accel);
        assert_eq!(a.placement, b.placement);
    }

    #[test]
    fn predict_batch_matches_analyze_and_serial_predict_one() {
        let clara = Clara::train(&ClaraConfig::fast(8)).expect("train");
        let elems = [
            click_model::elements::cmsketch(),
            click_model::elements::iplookup(128),
            click_model::elements::tcpack(),
        ];
        let traces: Vec<Trace> = (0..elems.len())
            .map(|i| Trace::generate(&WorkloadSpec::large_flows(), 150, 10 + i as u64))
            .collect();
        let items: Vec<(&nf_ir::Module, &Trace)> = elems
            .iter()
            .zip(traces.iter())
            .map(|(e, t)| (&e.module, t))
            .collect();
        let default = clara_hal::default_backend();
        let fp = clara.predictor_fingerprint();
        let batch = clara.predict_batch_on_prec_cached(&items, default, clara.precision, fp);
        assert_eq!(batch.len(), items.len());
        for ((e, t), p) in elems.iter().zip(traces.iter()).zip(
            batch
                .iter()
                .map(|r| r.as_ref().expect("batch item succeeds")),
        ) {
            let one = clara
                .predict_batch_on_prec_cached(&[(&e.module, t)], default, clara.precision, fp)
                .pop()
                .expect("one item in, one result out")
                .expect("predict_one succeeds");
            assert_eq!(&one, p, "batch and single-item predictions must agree");
            let insights = clara.analyze(&e.module, t).expect("analyze succeeds");
            assert_eq!(p.predicted_compute, insights.predicted_compute);
            assert_eq!(p.counted_mem, insights.counted_mem);
            assert_eq!(p.suggested_cores, insights.suggested_cores);
        }
        // Per-item failures stay per-item: an empty trace fails its slot
        // without poisoning the rest of the batch.
        let empty = Trace::generate(&WorkloadSpec::large_flows(), 0, 1);
        let mixed = clara.predict_batch_on_prec_cached(
            &[(&elems[0].module, &empty), items[1]],
            default,
            clara.precision,
            fp,
        );
        assert!(matches!(mixed[0], Err(ClaraError::EmptyTrace)));
        assert!(mixed[1].is_ok());
    }

    #[test]
    fn stateless_nf_gets_no_placement_or_accel() {
        let clara = Clara::train(&ClaraConfig::fast(3)).expect("train");
        let e = click_model::elements::tcpack();
        let trace = Trace::generate(&WorkloadSpec::large_flows(), 100, 4);
        let insights = clara.analyze(&e.module, &trace).expect("analysis succeeds");
        assert!(insights.placement.is_empty());
        assert!(insights.coalesce.clusters.is_empty());
        assert!(insights.accel.is_none(), "{:?}", insights.accel);
        let empty = Trace::generate(&WorkloadSpec::large_flows(), 0, 4);
        assert!(matches!(
            clara.analyze(&e.module, &empty),
            Err(ClaraError::EmptyTrace)
        ));
    }
}
