//! Cross-platform instruction prediction (paper Sections 3.2–3.3).
//!
//! Clara predicts, per basic block, how many compute instructions the
//! opaque vendor compiler will emit — by training an LSTM+FC model on
//! synthesized program/assembly pairs. Stateful memory accesses are not
//! predicted but *counted* from IR loads/stores (they map ~1:1 onto NIC
//! memory commands). Framework API calls are excluded from prediction and
//! handled by reverse porting: their cost comes from the vendor library
//! itself (`nic-sim`'s API cost model), mirroring the paper's use of "the
//! machine code as compiled from the SmartNIC compiler directly".

use nf_ir::{abstraction, Module, Vocabulary};
use serde::{Deserialize, Error, Serialize, Tokens, Value};
use tinyml::cnn::{Cnn1d, CnnConfig};
use tinyml::lstm::{LstmConfig, LstmRegressor};
use tinyml::metrics;
use tinyml::mlp::{Loss, Mlp, MlpConfig};
use tinyml::quant::{Precision, QuantLstm, QuantMlp};
use tinyml::regressor::{Regressor, RegressorInput};

use crate::prepare::{prepare_module, PreparedModule};

/// One training sample: a block's token sequence and its ground-truth
/// NIC instruction counts (from compiling with `nfcc`).
#[derive(Debug, Clone, PartialEq)]
pub struct BlockSample {
    /// Abstract tokens of the block.
    pub tokens: Vec<nf_ir::AbstractToken>,
    /// Compute instructions `nfcc` emitted for the block.
    pub compute: f64,
    /// Memory instructions `nfcc` emitted for the block.
    pub mem: f64,
}

/// Extracts `(token sequence, NIC counts)` samples from modules by
/// compiling each with the vendor compiler.
///
/// Compiles fan out across the engine's worker pool and are memoized per
/// module content, so a corpus element sampled twice compiles once.
/// Sample order matches a serial loop over `modules` exactly.
///
/// # Panics
///
/// Panics if any module's compile fails permanently;
/// [`try_block_samples`] is the fault-tolerant form.
pub fn block_samples(modules: &[Module]) -> Vec<BlockSample> {
    let (samples, failures, _) = try_block_samples(modules);
    assert!(
        failures.is_empty(),
        "predict-samples: {} of {} module(s) failed permanently; first: {}",
        failures.len(),
        modules.len(),
        failures[0].error
    );
    samples
}

/// Fault-tolerant [`block_samples`]: modules whose compile fails
/// permanently are dropped from the sample set and reported in the
/// failure list. Returns `(samples, failures, tasks attempted)`.
pub fn try_block_samples(
    modules: &[Module],
) -> (Vec<BlockSample>, Vec<crate::engine::TaskFailure>, usize) {
    let engine = crate::engine::Engine::new();
    let out = crate::engine::try_par_map("predict-samples", modules, |_, m| {
        let nic = engine.compile_cached(m);
        let mut out = Vec::new();
        for (f, nf) in m.funcs.iter().zip(nic.funcs.iter()) {
            for (b, nb) in f.blocks.iter().zip(nf.blocks.iter()) {
                out.push(BlockSample {
                    tokens: abstraction::abstract_block(b),
                    compute: f64::from(nb.compute_count()),
                    mem: f64::from(nb.mem_count()),
                });
            }
        }
        out
    });
    let total = out.total();
    let samples = out.results.into_iter().flatten().flatten().collect();
    (samples, out.failures, total)
}

/// The model family used for prediction (Figure 8's contenders).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PredictorKind {
    /// Clara's LSTM + FC model.
    ClaraLstm,
    /// Fully-connected network over the bag-of-tokens histogram.
    Dnn,
    /// 1-D CNN over the token sequence.
    Cnn,
    /// AutoML pipeline search (random-forest & friends) over the
    /// bag-of-tokens histogram (the TPOT baseline).
    AutoMl,
}

impl PredictorKind {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            PredictorKind::ClaraLstm => "Clara (LSTM+FC)",
            PredictorKind::Dnn => "DNN",
            PredictorKind::Cnn => "CNN",
            PredictorKind::AutoMl => "AutoML",
        }
    }
}

#[derive(Serialize, Deserialize)]
enum Model {
    Lstm(LstmRegressor),
    Dnn(Mlp),
    Cnn(Cnn1d),
    AutoMl(tinyml::automl::AutoMlRegressor),
}

/// Quantized (Q16.16) companion of a [`Model`]. Only the model families
/// with a fixed-point twin in `tinyml` get one; CNN and AutoML fall back
/// to the f64 reference at any requested precision.
enum QuantModel {
    Lstm(QuantLstm),
    Dnn(QuantMlp),
}

impl QuantModel {
    /// Builds the companion deterministically from trained f64 weights.
    fn build(model: &Model) -> Option<QuantModel> {
        match model {
            Model::Lstm(m) => Some(QuantModel::Lstm(QuantLstm::quantize(m))),
            Model::Dnn(m) => Some(QuantModel::Dnn(QuantMlp::quantize(m))),
            Model::Cnn(_) | Model::AutoMl(_) => None,
        }
    }
}

/// A trained cross-platform instruction predictor.
///
/// The optional `quant` companion carries the Q16.16 twin of the model
/// (absent for model families without a quantized path). It is a pure
/// function of the f64 weights, so it is built at construction — after
/// training and after decoding — and never serialized.
pub struct InstructionPredictor {
    saved: Saved,
    quant: Option<QuantModel>,
}

/// What an [`InstructionPredictor`] saves: everything but its quantized
/// companion.
#[derive(Serialize, Deserialize)]
#[serde(validate = "Saved::validate")]
struct Saved {
    vocab: Vocabulary,
    kind: PredictorKind,
    model: Model,
}

impl Saved {
    /// The decoding check: an LSTM's input width covers the vocabulary.
    fn validate(&self) -> Result<(), Error> {
        if let Model::Lstm(m) = &self.model {
            let width = m.config().vocab;
            if self.vocab.len() > width {
                return Err(Error(format!(
                    "vocabulary of {} tokens exceeds the LSTM input width {width}",
                    self.vocab.len()
                )));
            }
        }
        Ok(())
    }
}

impl Serialize for InstructionPredictor {
    fn to_value(&self) -> Value {
        self.saved.to_value()
    }
}

impl Deserialize for InstructionPredictor {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Saved::from_value(v).map(InstructionPredictor::new)
    }

    fn deserialize<R: Tokens + ?Sized>(r: &mut R) -> Result<Self, Error> {
        Saved::deserialize(r).map(InstructionPredictor::new)
    }
}

/// Knobs for predictor training.
#[derive(Debug, Clone, Copy)]
pub struct PredictTrainConfig {
    /// Training epochs for the neural models.
    pub epochs: usize,
    /// Hidden width of the LSTM.
    pub hidden: usize,
    /// AutoML search budget (pipelines tried).
    pub automl_budget: usize,
    /// RNG seed.
    pub seed: u64,
    /// Disable vocabulary compaction's operand abstraction (ablation):
    /// every token becomes out-of-vocabulary noise instead.
    pub ablate_vocab: bool,
}

impl Default for PredictTrainConfig {
    fn default() -> PredictTrainConfig {
        PredictTrainConfig {
            epochs: 35,
            hidden: 28,
            automl_budget: 8,
            seed: 11,
            ablate_vocab: false,
        }
    }
}

fn bag_of_tokens(vocab: &Vocabulary, tokens: &[nf_ir::AbstractToken]) -> Vec<f64> {
    let mut v = vec![0.0; vocab.len()];
    for t in tokens {
        v[vocab.encode_token(t)] += 1.0;
    }
    v
}

impl InstructionPredictor {
    /// Trains a predictor of the given kind on block samples.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn train(
        kind: PredictorKind,
        samples: &[BlockSample],
        cfg: &PredictTrainConfig,
    ) -> InstructionPredictor {
        assert!(!samples.is_empty(), "no training samples");
        let token_seqs: Vec<&[nf_ir::AbstractToken]> = if cfg.ablate_vocab {
            Vec::new() // Empty vocabulary: everything maps to <unk>.
        } else {
            samples.iter().map(|s| s.tokens.as_slice()).collect()
        };
        let vocab = Vocabulary::build(token_seqs);
        let seqs: Vec<Vec<usize>> = samples.iter().map(|s| vocab.encode(&s.tokens)).collect();
        let targets: Vec<Vec<f64>> = samples.iter().map(|s| vec![s.compute]).collect();
        let scalar_targets: Vec<f64> = samples.iter().map(|s| s.compute).collect();

        let model = match kind {
            PredictorKind::ClaraLstm => {
                let mut m = LstmRegressor::new(LstmConfig {
                    vocab: vocab.len().max(2),
                    hidden: cfg.hidden,
                    fc_hidden: cfg.hidden.max(8),
                    outputs: 1,
                    lr: 0.015,
                    epochs: cfg.epochs,
                    clip: 5.0,
                    seed: cfg.seed,
                });
                m.fit(&seqs, &targets);
                Model::Lstm(m)
            }
            PredictorKind::Dnn => {
                let x: Vec<Vec<f64>> = samples
                    .iter()
                    .map(|s| bag_of_tokens(&vocab, &s.tokens))
                    .collect();
                let mut m = Mlp::new(MlpConfig {
                    inputs: vocab.len(),
                    hidden: vec![48, 24],
                    outputs: 1,
                    loss: Loss::Mse,
                    lr: 0.01,
                    epochs: cfg.epochs * 2,
                    seed: cfg.seed,
                });
                m.fit(&x, &scalar_targets);
                Model::Dnn(m)
            }
            PredictorKind::Cnn => {
                let mut m = Cnn1d::new(CnnConfig {
                    vocab: vocab.len().max(2),
                    embed: 14,
                    filters: 20,
                    width: 3,
                    outputs: 1,
                    lr: 0.015,
                    epochs: cfg.epochs,
                    seed: cfg.seed,
                });
                m.fit(&seqs, &targets);
                Model::Cnn(m)
            }
            PredictorKind::AutoMl => {
                let x: Vec<Vec<f64>> = samples
                    .iter()
                    .map(|s| bag_of_tokens(&vocab, &s.tokens))
                    .collect();
                let data = tinyml::Dataset::new(x, scalar_targets);
                Model::AutoMl(tinyml::automl::AutoMlRegressor::search(
                    &data,
                    cfg.automl_budget,
                    cfg.seed,
                ))
            }
        };
        InstructionPredictor::new(Saved { vocab, kind, model })
    }

    /// Assembles a predictor and builds its quantized companion — the one
    /// constructor training and decoding share.
    fn new(saved: Saved) -> InstructionPredictor {
        let quant = QuantModel::build(&saved.model);
        InstructionPredictor { saved, quant }
    }

    /// The model family this predictor uses.
    pub fn kind(&self) -> PredictorKind {
        self.saved.kind
    }

    /// True when this predictor carries a Q16.16 companion (always, for
    /// the LSTM and DNN families).
    pub fn has_quantized(&self) -> bool {
        self.quant.is_some()
    }

    /// True when the model consumes token sequences (LSTM/CNN) rather
    /// than bag-of-tokens feature vectors (DNN/AutoML).
    fn uses_sequences(&self) -> bool {
        matches!(self.saved.model, Model::Lstm(_) | Model::Cnn(_))
    }

    /// The single typed dispatch point: every prediction, at every
    /// precision, goes through the [`Regressor`] this returns. `Q16`
    /// falls back to the f64 reference when no companion exists.
    fn regressor(&self, precision: Precision) -> &dyn Regressor {
        if matches!(precision, Precision::Q16) {
            match &self.quant {
                Some(QuantModel::Lstm(m)) => return m,
                Some(QuantModel::Dnn(m)) => return m,
                None => {}
            }
        }
        match &self.saved.model {
            Model::Lstm(m) => m,
            Model::Cnn(m) => m,
            Model::Dnn(m) => m,
            Model::AutoMl(m) => m,
        }
    }

    /// Predicts the NIC compute-instruction count of one block.
    pub fn predict_block(&self, tokens: &[nf_ir::AbstractToken]) -> f64 {
        self.predict_block_prec(tokens, Precision::F64)
    }

    /// [`InstructionPredictor::predict_block`] at an explicit precision.
    pub fn predict_block_prec(&self, tokens: &[nf_ir::AbstractToken], precision: Precision) -> f64 {
        let reg = self.regressor(precision);
        let pred = if self.uses_sequences() {
            reg.predict(RegressorInput::Tokens(&self.saved.vocab.encode(tokens)))
        } else {
            reg.predict(RegressorInput::Features(&bag_of_tokens(
                &self.saved.vocab,
                tokens,
            )))
        };
        pred.max(0.0)
    }

    /// Per-block WMAPE against the vendor compiler's ground truth on a
    /// module the predictor has never seen.
    pub fn wmape_module(&self, module: &Module) -> f64 {
        let samples = block_samples(std::slice::from_ref(module));
        let truth: Vec<f64> = samples.iter().map(|s| s.compute).collect();
        let preds: Vec<f64> = samples
            .iter()
            .map(|s| self.predict_block(&s.tokens))
            .collect();
        metrics::wmape(&truth, &preds)
    }

    /// Predicted total compute instructions for a module's handler.
    pub fn predict_module_compute(&self, module: &Module) -> f64 {
        self.predict_module_compute_prec(module, Precision::F64)
    }

    /// [`InstructionPredictor::predict_module_compute`] at an explicit
    /// precision. Blocks are evaluated through the regressor's batch
    /// entry point, so the quantized LSTM takes its structure-of-arrays
    /// path here; at `F64` the default per-item loop keeps results
    /// bit-identical to summing [`InstructionPredictor::predict_block`].
    pub fn predict_module_compute_prec(&self, module: &Module, precision: Precision) -> f64 {
        self.predict_prepared_compute(&prepare_module(module), precision)
    }

    /// [`InstructionPredictor::predict_module_compute_prec`] of a module
    /// already prepared, for callers that use the preparation too.
    pub fn predict_prepared_compute(&self, prepared: &PreparedModule, precision: Precision) -> f64 {
        let reg = self.regressor(precision);
        let preds = if self.uses_sequences() {
            let encoded: Vec<Vec<usize>> = prepared
                .blocks
                .iter()
                .map(|b| self.saved.vocab.encode(&b.tokens))
                .collect();
            let inputs: Vec<RegressorInput<'_>> =
                encoded.iter().map(|s| RegressorInput::Tokens(s)).collect();
            reg.predict_batch(&inputs)
        } else {
            let feats: Vec<Vec<f64>> = prepared
                .blocks
                .iter()
                .map(|b| bag_of_tokens(&self.saved.vocab, &b.tokens))
                .collect();
            let inputs: Vec<RegressorInput<'_>> =
                feats.iter().map(|f| RegressorInput::Features(f)).collect();
            reg.predict_batch(&inputs)
        };
        preds.iter().map(|p| p.max(0.0)).sum()
    }
}

/// Memory-access counting accuracy: IR stateful+packet loads/stores vs
/// the memory instructions `nfcc` actually emitted, per block
/// (1 − WMAPE, as a percentage).
pub fn memory_count_accuracy(module: &Module) -> f64 {
    memory_count_accuracy_fp(module, nic_sim::module_fingerprint(module))
}

/// [`memory_count_accuracy`] of a module whose
/// [`nic_sim::module_fingerprint`] is `module_fp`.
pub(crate) fn memory_count_accuracy_fp(module: &Module, module_fp: u64) -> f64 {
    let nic = crate::engine::Engine::new().compile_cached_fp(module, module_fp);
    let mut truth = Vec::new();
    let mut counted = Vec::new();
    for (f, nf) in module.funcs.iter().zip(nic.funcs.iter()) {
        for (b, nb) in f.blocks.iter().zip(nf.blocks.iter()) {
            truth.push(f64::from(nb.mem_cmd_count()));
            let ir_mem = b
                .insts
                .iter()
                .filter(|i| {
                    matches!(
                        i.class(),
                        nf_ir::InstClass::StatefulMem | nf_ir::InstClass::PacketMem
                    )
                })
                .count();
            counted.push(ir_mem as f64);
        }
    }
    (1.0 - metrics::wmape(&truth, &counted)) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn training_modules(n: usize, seed: u64) -> Vec<Module> {
        nf_synth::synth_corpus(n, true, seed)
    }

    #[test]
    fn memory_counting_is_nearly_exact() {
        for e in click_model::corpus() {
            let acc = memory_count_accuracy(&e.module);
            assert!(acc >= 95.0, "{}: {acc:.1}%", e.name());
        }
    }

    #[test]
    fn lstm_beats_mean_predictor_on_held_out_blocks() {
        let train = training_modules(60, 1);
        let test = training_modules(15, 2);
        let train_s = block_samples(&train);
        let test_s = block_samples(&test);
        let cfg = PredictTrainConfig {
            epochs: 25,
            ..Default::default()
        };
        let model = InstructionPredictor::train(PredictorKind::ClaraLstm, &train_s, &cfg);
        let truth: Vec<f64> = test_s.iter().map(|s| s.compute).collect();
        let preds: Vec<f64> = test_s
            .iter()
            .map(|s| model.predict_block(&s.tokens))
            .collect();
        let err = metrics::wmape(&truth, &preds);
        let mean = train_s.iter().map(|s| s.compute).sum::<f64>() / train_s.len() as f64;
        let base = metrics::wmape(&truth, &vec![mean; truth.len()]);
        assert!(err < 0.6 * base, "lstm {err:.3} vs mean {base:.3}");
        assert!(err < 0.30, "lstm wmape {err:.3}");
    }

    #[test]
    fn ablating_vocabulary_hurts() {
        let train = training_modules(40, 3);
        let test = training_modules(10, 4);
        let train_s = block_samples(&train);
        let test_s = block_samples(&test);
        let mut cfg = PredictTrainConfig {
            epochs: 15,
            ..Default::default()
        };
        let good = InstructionPredictor::train(PredictorKind::ClaraLstm, &train_s, &cfg);
        cfg.ablate_vocab = true;
        let bad = InstructionPredictor::train(PredictorKind::ClaraLstm, &train_s, &cfg);
        let truth: Vec<f64> = test_s.iter().map(|s| s.compute).collect();
        let wm = |m: &InstructionPredictor| {
            metrics::wmape(
                &truth,
                &test_s
                    .iter()
                    .map(|s| m.predict_block(&s.tokens))
                    .collect::<Vec<_>>(),
            )
        };
        assert!(
            wm(&good) < wm(&bad),
            "vocab {} vs ablated {}",
            wm(&good),
            wm(&bad)
        );
    }

    #[test]
    fn all_baselines_train_and_predict() {
        let train = training_modules(25, 5);
        let train_s = block_samples(&train);
        let cfg = PredictTrainConfig {
            epochs: 6,
            automl_budget: 4,
            ..Default::default()
        };
        for kind in [
            PredictorKind::Dnn,
            PredictorKind::Cnn,
            PredictorKind::AutoMl,
        ] {
            let m = InstructionPredictor::train(kind, &train_s, &cfg);
            let p = m.predict_block(&train_s[0].tokens);
            assert!(p.is_finite() && p >= 0.0, "{}: {p}", kind.name());
            let q = m.predict_block_prec(&train_s[0].tokens, Precision::Q16);
            match kind {
                // DNN has a fixed-point twin; it must track the reference.
                PredictorKind::Dnn => {
                    assert!(m.has_quantized());
                    assert!(
                        (q - p).abs() <= 0.5f64.max(0.02 * p),
                        "{}: {q} vs {p}",
                        kind.name()
                    );
                }
                // CNN/AutoML have none; Q16 falls back bit-exactly.
                _ => {
                    assert!(!m.has_quantized());
                    assert_eq!(q.to_bits(), p.to_bits(), "{}", kind.name());
                }
            }
        }
    }

    #[test]
    fn predicts_whole_module_totals() {
        let train = training_modules(40, 6);
        let train_s = block_samples(&train);
        let cfg = PredictTrainConfig {
            epochs: 20,
            ..Default::default()
        };
        let model = InstructionPredictor::train(PredictorKind::ClaraLstm, &train_s, &cfg);
        let e = click_model::elements::aggcounter();
        let predicted = model.predict_module_compute(&e.module);
        let truth = f64::from(nfcc::compile_module(&e.module).handler().total_compute());
        assert!(predicted > 0.0);
        let rel = (predicted - truth).abs() / truth;
        assert!(
            rel < 0.6,
            "module-level error {rel:.2} (pred {predicted:.0} vs {truth:.0})"
        );
    }
}
