//! Multicore scale-out factor analysis (paper Section 4.2).
//!
//! Clara predicts the close-to-optimal core count for an NF and workload
//! by training a GBDT cost model on synthesized programs deployed to the
//! NIC across different "schedules" (core counts) — the TVM-inspired
//! algorithm/schedule separation. Features capture arithmetic intensity
//! (compute vs memory to different regions) and workload shape.

use nic_sim::{optimal_cores, solve_perf, NicConfig, PortConfig, WorkloadProfile};

use crate::error::ClaraError;
use serde::{Deserialize, Error, Serialize, Tokens, Value};
use tinyml::automl::AutoMlRegressor;
use tinyml::gbdt::{GbdtConfig, GbdtRegressor};
use tinyml::knn::Knn;
use tinyml::mlp::{Loss, Mlp, MlpConfig};
use tinyml::quant::{Precision, QuantGbdt};
use tinyml::regressor::{Regressor, RegressorInput};
use tinyml::Dataset;
use trafgen::WorkloadSpec;

#[cfg(test)]
use trafgen::Trace;

/// Width of [`features_of`]'s vector.
const FEATURES: usize = 9;

/// Feature vector of one (NF workload-profile, NIC) pair.
pub fn features_of(wp: &WorkloadProfile, cfg: &NicConfig, port: &PortConfig) -> Vec<f64> {
    let demand = wp.channel_demand(cfg, port);
    let mem_total: f64 = demand.iter().sum();
    let ai = wp.compute / mem_total.max(1e-9);
    let ws: u64 = wp.working_set.values().sum();
    let f: [f64; FEATURES] = [
        wp.compute / 100.0,
        demand[0],
        demand[1],
        demand[2],
        demand[3], // EMEM misses
        demand[4], // EMEM cache hits
        ai.min(100.0),
        ((ws.max(1)) as f64).log2(),
        wp.mean_pkt_size / 100.0,
    ];
    f.to_vec()
}

/// Ground-truth optimal core count by exhaustive sweep (what the paper
/// obtains "by exhaustive benchmarking with all possible configurations").
pub fn optimal_by_sweep(wp: &WorkloadProfile, cfg: &NicConfig, port: &PortConfig) -> u32 {
    let pts: Vec<_> = (1..=cfg.cores)
        .map(|c| solve_perf(wp, cfg, port, c))
        .collect();
    optimal_cores(&pts)
}

/// The regressor family (Figure 11a's contenders).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScaleoutKind {
    /// Clara's GBDT.
    ClaraGbdt,
    /// k-nearest neighbours.
    Knn,
    /// Fully-connected network.
    Dnn,
    /// AutoML pipeline search.
    AutoMl,
}

impl ScaleoutKind {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ScaleoutKind::ClaraGbdt => "Clara (GBDT)",
            ScaleoutKind::Knn => "kNN",
            ScaleoutKind::Dnn => "DNN",
            ScaleoutKind::AutoMl => "AutoML",
        }
    }
}

#[derive(Serialize, Deserialize)]
enum SoModel {
    Gbdt(GbdtRegressor),
    Knn(Knn),
    Dnn(Mlp),
    AutoMl(AutoMlRegressor),
}

/// A trained scale-out (optimal core count) predictor.
///
/// For the GBDT family a Q16.16 quantized companion rides along, built
/// from the f64 ensemble at construction (after training and after
/// decoding) and never serialized. Other families fall back to f64 at
/// any requested precision.
pub struct ScaleoutModel {
    saved: Saved,
    quant: Option<QuantGbdt>,
}

/// What a [`ScaleoutModel`] saves: everything but its quantized
/// companion.
#[derive(Serialize, Deserialize)]
#[serde(validate = "Saved::validate")]
struct Saved {
    model: SoModel,
    kind: ScaleoutKind,
    max_cores: u32,
}

impl Saved {
    /// The decoding check: a GBDT splits only on features the scale-out
    /// feature vector has.
    fn validate(&self) -> Result<(), Error> {
        if let SoModel::Gbdt(m) = &self.model {
            if m.n_features() > FEATURES {
                return Err(Error(format!(
                    "GBDT splits on feature {} of a {FEATURES}-wide feature vector",
                    m.n_features() - 1
                )));
            }
        }
        Ok(())
    }
}

impl Serialize for ScaleoutModel {
    fn to_value(&self) -> Value {
        self.saved.to_value()
    }
}

impl Deserialize for ScaleoutModel {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Saved::from_value(v).map(ScaleoutModel::new)
    }

    fn deserialize<R: Tokens + ?Sized>(r: &mut R) -> Result<Self, Error> {
        Saved::deserialize(r).map(ScaleoutModel::new)
    }
}

/// Builds the training set: synthesized NFs × workload profiles, labeled
/// with the sweep-optimal core count.
///
/// # Panics
///
/// Panics if any profiling or labeling task fails permanently;
/// [`try_training_set`] is the fault-tolerant form.
pub fn training_set(programs: usize, seed: u64, cfg: &NicConfig) -> Dataset {
    let (data, failures, total) = try_training_set(programs, seed, cfg);
    assert!(
        failures.is_empty(),
        "scaleout training set: {} of {total} task(s) failed permanently; first: {}",
        failures.len(),
        failures[0].error
    );
    data
}

/// Fault-tolerant [`training_set`]: matrix cells whose profiling fails
/// permanently (and rows whose labeling fails) are dropped from the
/// dataset and reported in the failure list. Returns
/// `(dataset, failures, tasks attempted)`.
pub fn try_training_set(
    programs: usize,
    seed: u64,
    cfg: &NicConfig,
) -> (Dataset, Vec<crate::engine::TaskFailure>, usize) {
    let modules = nf_synth::synth_corpus(programs, true, seed);
    let workloads = [
        WorkloadSpec::large_flows(),
        WorkloadSpec::small_flows().with_flows(8192),
        WorkloadSpec::min_size(),
    ];
    let port = PortConfig::naive();
    // The corpus × workload matrix fans out across the engine's worker
    // pool; profiles come back in the same (module-major) order the old
    // serial loop produced, so the dataset is bit-identical.
    let matrix = crate::engine::try_profile_matrix(&modules, &workloads, 400, seed, &port, cfg);
    let mut total = matrix.total();
    let mut failures = matrix.failures;
    let profiles: Vec<WorkloadProfile> = matrix.results.into_iter().flatten().collect();
    let labeled = crate::engine::try_par_map("scaleout-label", &profiles, |_, wp| {
        let label = optimal_by_sweep(wp, cfg, &port);
        (features_of(wp, cfg, &port), f64::from(label))
    });
    total += labeled.total();
    failures.extend(labeled.failures);
    let mut data = Dataset::default();
    for (x, y) in labeled.results.into_iter().flatten() {
        data.push(x, y);
    }
    (data, failures, total)
}

impl ScaleoutModel {
    /// Trains a predictor on a labeled dataset.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn train(kind: ScaleoutKind, data: &Dataset, cfg: &NicConfig, seed: u64) -> ScaleoutModel {
        assert!(!data.is_empty(), "empty dataset");
        let model = match kind {
            ScaleoutKind::ClaraGbdt => SoModel::Gbdt(GbdtRegressor::fit(
                &data.x,
                &data.y,
                &GbdtConfig {
                    rounds: 500,
                    shrinkage: 0.03,
                    tree: tinyml::tree::TreeConfig {
                        max_depth: 6,
                        min_split: 4,
                        min_leaf: 2,
                    },
                },
            )),
            ScaleoutKind::Knn => SoModel::Knn(Knn::fit(&data.x, &data.y, 3)),
            ScaleoutKind::Dnn => {
                let mut m = Mlp::new(MlpConfig {
                    inputs: data.dim(),
                    hidden: vec![32, 16],
                    outputs: 1,
                    loss: Loss::Mse,
                    lr: 0.01,
                    epochs: 120,
                    seed,
                });
                m.fit(&data.x, &data.y);
                SoModel::Dnn(m)
            }
            ScaleoutKind::AutoMl => SoModel::AutoMl(AutoMlRegressor::search(data, 10, seed)),
        };
        ScaleoutModel::new(Saved {
            model,
            kind,
            max_cores: cfg.cores,
        })
    }

    /// Assembles a model and builds its quantized companion — the one
    /// constructor training and decoding share.
    fn new(saved: Saved) -> ScaleoutModel {
        let quant = match &saved.model {
            SoModel::Gbdt(m) => Some(QuantGbdt::quantize(m)),
            _ => None,
        };
        ScaleoutModel { saved, quant }
    }

    /// The model family used.
    pub fn kind(&self) -> ScaleoutKind {
        self.saved.kind
    }

    /// The [`Regressor`] serving a given precision (f64 reference unless
    /// a quantized companion exists and `Q16` was requested).
    fn regressor(&self, precision: Precision) -> &dyn Regressor {
        if matches!(precision, Precision::Q16) {
            if let Some(q) = &self.quant {
                return q;
            }
        }
        match &self.saved.model {
            SoModel::Gbdt(m) => m,
            SoModel::Knn(m) => m,
            SoModel::Dnn(m) => m,
            SoModel::AutoMl(m) => m,
        }
    }

    /// Predicts the optimal core count for a profiled workload.
    ///
    /// # Errors
    ///
    /// Returns [`ClaraError::Prediction`] when the regressor produces a
    /// non-finite estimate (a corrupt or out-of-domain model).
    pub fn predict(
        &self,
        wp: &WorkloadProfile,
        cfg: &NicConfig,
        port: &PortConfig,
    ) -> Result<u32, ClaraError> {
        self.predict_prec(wp, cfg, port, Precision::F64)
    }

    /// [`ScaleoutModel::predict`] at an explicit precision.
    ///
    /// # Errors
    ///
    /// Returns [`ClaraError::Prediction`] when the regressor produces a
    /// non-finite estimate (a corrupt or out-of-domain model).
    pub fn predict_prec(
        &self,
        wp: &WorkloadProfile,
        cfg: &NicConfig,
        port: &PortConfig,
        precision: Precision,
    ) -> Result<u32, ClaraError> {
        let f = features_of(wp, cfg, port);
        let raw = self
            .regressor(precision)
            .predict(RegressorInput::Features(&f));
        if !raw.is_finite() {
            return Err(ClaraError::Prediction {
                detail: format!(
                    "{} scale-out model returned a non-finite core estimate ({raw})",
                    self.saved.kind.name()
                ),
            });
        }
        Ok((raw.round().max(1.0) as u32).min(self.saved.max_cores))
    }

    /// Mean absolute error (in cores) on a labeled dataset.
    pub fn mae(&self, data: &Dataset) -> f64 {
        let preds: Vec<f64> = data
            .x
            .iter()
            .map(|f| {
                let raw = self
                    .regressor(Precision::F64)
                    .predict(RegressorInput::Features(f));
                raw.round().clamp(1.0, f64::from(self.saved.max_cores))
            })
            .collect();
        tinyml::metrics::mae(&data.y, &preds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gbdt_beats_constant_predictor() {
        let cfg = NicConfig::default();
        let train = training_set(30, 1, &cfg);
        let test = training_set(10, 2, &cfg);
        let m = ScaleoutModel::train(ScaleoutKind::ClaraGbdt, &train, &cfg, 1);
        let mae = m.mae(&test);
        // Constant predictor: always guess the training mean.
        let mean = train.y.iter().sum::<f64>() / train.len() as f64;
        let base = tinyml::metrics::mae(&test.y, &vec![mean.round(); test.len()]);
        assert!(mae <= base, "gbdt {mae:.2} vs constant {base:.2}");
    }

    #[test]
    fn predictions_are_in_range() {
        let cfg = NicConfig::default();
        let train = training_set(12, 3, &cfg);
        let m = ScaleoutModel::train(ScaleoutKind::ClaraGbdt, &train, &cfg, 3);
        let e = click_model::elements::aggcounter();
        let trace = Trace::generate(&WorkloadSpec::large_flows(), 200, 4);
        let wp = nic_sim::profile_workload(&e.module, &trace, &PortConfig::naive(), &cfg, |_| {});
        let c = m
            .predict(&wp, &cfg, &PortConfig::naive())
            .expect("finite prediction");
        assert!((1..=cfg.cores).contains(&c), "{c}");
    }

    #[test]
    fn all_baselines_train() {
        let cfg = NicConfig::default();
        let train = training_set(8, 5, &cfg);
        for kind in [ScaleoutKind::Knn, ScaleoutKind::Dnn, ScaleoutKind::AutoMl] {
            let m = ScaleoutModel::train(kind, &train, &cfg, 5);
            assert!(m.mae(&train).is_finite(), "{}", kind.name());
        }
    }
}
