//! LSTM + fully-connected regression head (the paper's Figure 6 model).
//!
//! The model consumes a sequence of token ids (abstract-instruction
//! vocabulary indices, effectively one-hot encoded) and regresses scalar
//! targets — the number of SmartNIC instructions the opaque vendor
//! compiler would emit for the block. Training is full BPTT with Adam and
//! gradient clipping; targets are standardized internally.

use clara_obs as obs;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Error, Serialize, Value};

use crate::linalg::{clip_grad, sigmoid, Adam, Matrix};

/// Hyperparameters for [`LstmRegressor`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LstmConfig {
    /// Vocabulary size (token ids must be `< vocab`).
    pub vocab: usize,
    /// LSTM hidden width.
    pub hidden: usize,
    /// Width of the FC layer after the LSTM.
    pub fc_hidden: usize,
    /// Number of regression outputs.
    pub outputs: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Training epochs.
    pub epochs: usize,
    /// Gradient-clipping max norm (per parameter tensor).
    pub clip: f64,
    /// RNG seed for initialization and shuffling.
    pub seed: u64,
}

impl Default for LstmConfig {
    fn default() -> LstmConfig {
        LstmConfig {
            vocab: 256,
            hidden: 32,
            fc_hidden: 24,
            outputs: 1,
            lr: 0.01,
            epochs: 40,
            clip: 5.0,
            seed: 7,
        }
    }
}

/// An LSTM sequence regressor with a two-layer FC head.
///
/// Decoding checks every tensor's shape against the config and rejects
/// zero dimensions, so inference and [`crate::quant::QuantLstm::quantize`]
/// index only inside the weights.
#[derive(Debug, Clone, Serialize)]
pub struct LstmRegressor {
    pub(crate) cfg: LstmConfig,
    /// Input weights, `4*hidden x vocab` (one-hot input = column lookup).
    pub(crate) wx: Matrix,
    /// Recurrent weights, `4*hidden x hidden`.
    pub(crate) wh: Matrix,
    /// Gate biases, `4*hidden` (forget-gate bias initialized to 1).
    pub(crate) b: Vec<f64>,
    /// FC layer 1, `fc_hidden x hidden`.
    pub(crate) w1: Matrix,
    /// FC layer 1 bias.
    pub(crate) b1: Vec<f64>,
    /// FC layer 2, `outputs x fc_hidden`.
    pub(crate) w2: Matrix,
    /// FC layer 2 bias.
    pub(crate) b2: Vec<f64>,
    /// Target standardization (fit during training).
    pub(crate) y_mean: Vec<f64>,
    pub(crate) y_std: Vec<f64>,
}

impl Deserialize for LstmRegressor {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let m = LstmRegressor {
            cfg: serde::from_field(v, "cfg")?,
            wx: serde::from_field(v, "wx")?,
            wh: serde::from_field(v, "wh")?,
            b: serde::from_field(v, "b")?,
            w1: serde::from_field(v, "w1")?,
            b1: serde::from_field(v, "b1")?,
            w2: serde::from_field(v, "w2")?,
            b2: serde::from_field(v, "b2")?,
            y_mean: serde::from_field(v, "y_mean")?,
            y_std: serde::from_field(v, "y_std")?,
        };
        let LstmConfig {
            vocab,
            hidden: h,
            fc_hidden: fc,
            outputs: out,
            ..
        } = m.cfg;
        if vocab == 0 || h == 0 || fc == 0 || out == 0 {
            return Err(Error(format!(
                "LSTM config has a zero dimension (vocab {vocab}, hidden {h}, fc_hidden {fc}, \
                 outputs {out})"
            )));
        }
        let gates = h
            .checked_mul(4)
            .ok_or_else(|| Error(format!("LSTM hidden width {h} overflows")))?;
        let matrices = [
            ("wx", &m.wx, gates, vocab),
            ("wh", &m.wh, gates, h),
            ("w1", &m.w1, fc, h),
            ("w2", &m.w2, out, fc),
        ];
        for (name, w, rows, cols) in matrices {
            if (w.rows, w.cols) != (rows, cols) {
                return Err(Error(format!(
                    "LSTM `{name}` is {}x{}, config needs {rows}x{cols}",
                    w.rows, w.cols
                )));
            }
        }
        let vectors = [
            ("b", m.b.len(), gates),
            ("b1", m.b1.len(), fc),
            ("b2", m.b2.len(), out),
            ("y_mean", m.y_mean.len(), out),
            ("y_std", m.y_std.len(), out),
        ];
        for (name, len, want) in vectors {
            if len != want {
                return Err(Error(format!(
                    "LSTM `{name}` has {len} values, config needs {want}"
                )));
            }
        }
        Ok(m)
    }
}

struct StepCache {
    gates: Vec<f64>, // i, f, g, o after nonlinearity (4h)
    c: Vec<f64>,
    h: Vec<f64>,
    tanh_c: Vec<f64>,
}

/// Gradient accumulator for (a lane of) one minibatch.
struct BatchGrads {
    wx: Matrix,
    wh: Matrix,
    b: Vec<f64>,
    w1: Matrix,
    b1: Vec<f64>,
    w2: Matrix,
    b2: Vec<f64>,
    se: f64,
    count: usize,
}

impl BatchGrads {
    fn zeros(m: &LstmRegressor) -> BatchGrads {
        BatchGrads {
            wx: Matrix::zeros(m.wx.rows, m.wx.cols),
            wh: Matrix::zeros(m.wh.rows, m.wh.cols),
            b: vec![0.0; m.b.len()],
            w1: Matrix::zeros(m.w1.rows, m.w1.cols),
            b1: vec![0.0; m.b1.len()],
            w2: Matrix::zeros(m.w2.rows, m.w2.cols),
            b2: vec![0.0; m.b2.len()],
            se: 0.0,
            count: 0,
        }
    }

    fn merge(&mut self, o: &BatchGrads) {
        let pairs: [(&mut Vec<f64>, &Vec<f64>); 7] = [
            (&mut self.wx.data, &o.wx.data),
            (&mut self.wh.data, &o.wh.data),
            (&mut self.b, &o.b),
            (&mut self.w1.data, &o.w1.data),
            (&mut self.b1, &o.b1),
            (&mut self.w2.data, &o.w2.data),
            (&mut self.b2, &o.b2),
        ];
        for (a, b) in pairs {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        }
        self.se += o.se;
        self.count += o.count;
    }
}

impl LstmRegressor {
    /// Creates an untrained model.
    pub fn new(cfg: LstmConfig) -> LstmRegressor {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let h = cfg.hidden;
        let mut b = vec![0.0; 4 * h];
        // Forget-gate bias = 1 (standard trick for gradient flow).
        for v in b.iter_mut().skip(h).take(h) {
            *v = 1.0;
        }
        LstmRegressor {
            wx: Matrix::xavier(4 * h, cfg.vocab, &mut rng),
            wh: Matrix::xavier(4 * h, h, &mut rng),
            b,
            w1: Matrix::xavier(cfg.fc_hidden, h, &mut rng),
            b1: vec![0.0; cfg.fc_hidden],
            w2: Matrix::xavier(cfg.outputs, cfg.fc_hidden, &mut rng),
            b2: vec![0.0; cfg.outputs],
            y_mean: vec![0.0; cfg.outputs],
            y_std: vec![1.0; cfg.outputs],
            cfg,
        }
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &LstmConfig {
        &self.cfg
    }

    fn forward(&self, seq: &[usize]) -> (Vec<StepCache>, Vec<f64>, Vec<f64>, Vec<f64>) {
        let h = self.cfg.hidden;
        let mut hs = vec![0.0; h];
        let mut cs = vec![0.0; h];
        let mut caches = Vec::with_capacity(seq.len());
        for &tok in seq {
            let tok = tok.min(self.cfg.vocab - 1);
            // pre = Wx[:, tok] + Wh * h + b
            let mut pre = self.wh.matvec(&hs);
            for (r, p) in pre.iter_mut().enumerate() {
                *p += self.wx.get(r, tok) + self.b[r];
            }
            let mut gates = vec![0.0; 4 * h];
            for j in 0..h {
                gates[j] = sigmoid(pre[j]); // input gate
                gates[h + j] = sigmoid(pre[h + j]); // forget gate
                gates[2 * h + j] = pre[2 * h + j].tanh(); // candidate
                gates[3 * h + j] = sigmoid(pre[3 * h + j]); // output gate
            }
            let mut c_new = vec![0.0; h];
            let mut tanh_c = vec![0.0; h];
            let mut h_new = vec![0.0; h];
            for j in 0..h {
                c_new[j] = gates[h + j] * cs[j] + gates[j] * gates[2 * h + j];
                tanh_c[j] = c_new[j].tanh();
                h_new[j] = gates[3 * h + j] * tanh_c[j];
            }
            caches.push(StepCache {
                gates,
                c: cs.clone(),
                h: hs.clone(),
                tanh_c: tanh_c.clone(),
            });
            cs = c_new;
            hs = h_new;
        }
        // FC head.
        let mut z1 = self.w1.matvec(&hs);
        for (z, b) in z1.iter_mut().zip(self.b1.iter()) {
            *z = (*z + b).max(0.0); // ReLU
        }
        let mut out = self.w2.matvec(&z1);
        for (o, b) in out.iter_mut().zip(self.b2.iter()) {
            *o += b;
        }
        (caches, hs, z1, out)
    }

    /// Predicts the (de-standardized) regression outputs for a sequence.
    pub fn predict(&self, seq: &[usize]) -> Vec<f64> {
        if seq.is_empty() {
            return self.y_mean.clone();
        }
        let (_, _, _, out) = self.forward(seq);
        out.iter()
            .zip(self.y_mean.iter().zip(self.y_std.iter()))
            .map(|(o, (m, s))| o * s + m)
            .collect()
    }

    /// Trains on `(sequence, targets)` pairs; returns final epoch MSE (in
    /// standardized target units).
    ///
    /// # Panics
    ///
    /// Panics if inputs are empty or shapes mismatch the config.
    pub fn fit(&mut self, seqs: &[Vec<usize>], targets: &[Vec<f64>]) -> f64 {
        assert_eq!(seqs.len(), targets.len(), "seqs/targets mismatch");
        assert!(!seqs.is_empty(), "empty training set");
        assert!(
            targets.iter().all(|t| t.len() == self.cfg.outputs),
            "target width mismatch"
        );

        // Standardize targets.
        let n = targets.len() as f64;
        for k in 0..self.cfg.outputs {
            let mean = targets.iter().map(|t| t[k]).sum::<f64>() / n;
            let var = targets.iter().map(|t| (t[k] - mean).powi(2)).sum::<f64>() / n;
            self.y_mean[k] = mean;
            self.y_std[k] = var.sqrt().max(1e-9);
        }
        let ys: Vec<Vec<f64>> = targets
            .iter()
            .map(|t| {
                t.iter()
                    .zip(self.y_mean.iter().zip(self.y_std.iter()))
                    .map(|(y, (m, s))| (y - m) / s)
                    .collect()
            })
            .collect();

        let mut opt_wx = Adam::new(self.wx.data.len(), self.cfg.lr);
        let mut opt_wh = Adam::new(self.wh.data.len(), self.cfg.lr);
        let mut opt_b = Adam::new(self.b.len(), self.cfg.lr);
        let mut opt_w1 = Adam::new(self.w1.data.len(), self.cfg.lr);
        let mut opt_b1 = Adam::new(self.b1.len(), self.cfg.lr);
        let mut opt_w2 = Adam::new(self.w2.data.len(), self.cfg.lr);
        let mut opt_b2 = Adam::new(self.b2.len(), self.cfg.lr);

        let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ 0x5eed);
        let mut order: Vec<usize> = (0..seqs.len()).collect();
        let mut last_mse = f64::INFINITY;

        const BATCH: usize = 16;
        // Each minibatch splits into a FIXED number of lanes whose partial
        // gradients merge in lane order. The reduction tree depends only on
        // the data — never on the worker count — so a 1-worker and an
        // N-worker run produce bit-identical weights.
        const LANES: usize = 4;
        let _fit_span = obs::span!("lstm-fit", "seqs={} epochs={}", seqs.len(), self.cfg.epochs);
        let epochs_ctr = obs::counter("ml.lstm.epochs");
        let epoch_mse_hist = obs::histogram("ml.lstm.epoch_mse");
        let epoch_ns = obs::volatile_counter("ml.lstm.epoch_ns");
        for _epoch in 0..self.cfg.epochs {
            use rand::seq::SliceRandom;
            let t0 = obs::enabled().then(std::time::Instant::now);
            order.shuffle(&mut rng);
            let mut epoch_se = 0.0;
            let mut count = 0usize;

            for chunk in order.chunks(BATCH) {
                let lane_size = chunk.len().div_ceil(LANES);
                let lanes: Vec<&[usize]> = chunk.chunks(lane_size).collect();
                let partials =
                    crate::parallel::map_ordered(&lanes, |lane| self.grad_lane(lane, seqs, &ys));
                let mut g = BatchGrads::zeros(self);
                for p in &partials {
                    g.merge(p);
                }
                epoch_se += g.se;
                count += g.count;

                // Clip and apply.
                let scale = 1.0 / chunk.len().max(1) as f64;
                for gr in [
                    &mut g.wx.data,
                    &mut g.wh.data,
                    &mut g.b,
                    &mut g.w1.data,
                    &mut g.b1,
                    &mut g.w2.data,
                    &mut g.b2,
                ] {
                    gr.iter_mut().for_each(|v| *v *= scale);
                    clip_grad(gr, self.cfg.clip);
                }
                opt_wx.step(&mut self.wx.data, &g.wx.data);
                opt_wh.step(&mut self.wh.data, &g.wh.data);
                opt_b.step(&mut self.b, &g.b);
                opt_w1.step(&mut self.w1.data, &g.w1.data);
                opt_b1.step(&mut self.b1, &g.b1);
                opt_w2.step(&mut self.w2.data, &g.w2.data);
                opt_b2.step(&mut self.b2, &g.b2);
            }
            if count > 0 {
                last_mse = epoch_se / count as f64;
            }
            epochs_ctr.incr();
            epoch_mse_hist.observe(last_mse);
            if let Some(t0) = t0 {
                epoch_ns.add(t0.elapsed().as_nanos() as u64);
            }
        }
        last_mse
    }

    /// Forward + backward over one lane of a minibatch, against the
    /// *pre-step* parameters (`&self`). Pure, so lanes run concurrently.
    fn grad_lane(&self, lane: &[usize], seqs: &[Vec<usize>], ys: &[Vec<f64>]) -> BatchGrads {
        let h = self.cfg.hidden;
        let mut g = BatchGrads::zeros(self);
        for &si in lane {
            let seq = &seqs[si];
            if seq.is_empty() {
                continue;
            }
            let y = &ys[si];
            let (caches, h_last, z1, out) = self.forward(seq);

            // Output gradient (MSE).
            let dout: Vec<f64> = out.iter().zip(y.iter()).map(|(o, t)| o - t).collect();
            g.se += dout.iter().map(|d| d * d).sum::<f64>();
            g.count += 1;

            // FC head backward.
            g.w2.add_outer(&dout, &z1, 1.0);
            for (gv, d) in g.b2.iter_mut().zip(dout.iter()) {
                *gv += d;
            }
            let mut dz1 = vec![0.0; z1.len()];
            self.w2.add_tmatvec(&dout, &mut dz1);
            for (d, z) in dz1.iter_mut().zip(z1.iter()) {
                if *z <= 0.0 {
                    *d = 0.0; // ReLU gate
                }
            }
            g.w1.add_outer(&dz1, &h_last, 1.0);
            for (gv, d) in g.b1.iter_mut().zip(dz1.iter()) {
                *gv += d;
            }
            let mut dh = vec![0.0; h];
            self.w1.add_tmatvec(&dz1, &mut dh);

            // BPTT.
            let mut dc = vec![0.0; h];
            for (t, cache) in caches.iter().enumerate().rev() {
                let tok = seq[t].min(self.cfg.vocab - 1);
                let gates = &cache.gates;
                let mut dpre = vec![0.0; 4 * h];
                for j in 0..h {
                    let i_g = gates[j];
                    let f_g = gates[h + j];
                    let g_g = gates[2 * h + j];
                    let o_g = gates[3 * h + j];
                    let tc = cache.tanh_c[j];
                    // dh -> o gate and c.
                    let do_ = dh[j] * tc;
                    let dc_t = dc[j] + dh[j] * o_g * (1.0 - tc * tc);
                    let di = dc_t * g_g;
                    let df = dc_t * cache.c[j];
                    let dg = dc_t * i_g;
                    dpre[j] = di * i_g * (1.0 - i_g);
                    dpre[h + j] = df * f_g * (1.0 - f_g);
                    dpre[2 * h + j] = dg * (1.0 - g_g * g_g);
                    dpre[3 * h + j] = do_ * o_g * (1.0 - o_g);
                    dc[j] = dc_t * f_g; // Carry to t-1.
                }
                // Parameter gradients.
                for (r, &d) in dpre.iter().enumerate() {
                    *g.wx.get_mut(r, tok) += d;
                    g.b[r] += d;
                }
                g.wh.add_outer(&dpre, &cache.h, 1.0);
                // dh for t-1.
                let mut dh_prev = vec![0.0; h];
                self.wh.add_tmatvec(&dpre, &mut dh_prev);
                dh = dh_prev;
            }
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic compiler: "cost" of a sequence depends on token identities
    /// and one contextual rule (token 2 after token 1 is free).
    fn toy_cost(seq: &[usize]) -> f64 {
        let mut cost = 0.0;
        let mut prev = usize::MAX;
        for &t in seq {
            cost += match t {
                1 => 1.0,
                2 => {
                    if prev == 1 {
                        0.0 // fused
                    } else {
                        2.0
                    }
                }
                3 => 4.0,
                _ => 0.5,
            };
            prev = t;
        }
        cost
    }

    fn toy_data(n: usize, seed: u64) -> (Vec<Vec<usize>>, Vec<Vec<f64>>) {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut seqs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let len = rng.gen_range(3..15);
            let seq: Vec<usize> = (0..len).map(|_| rng.gen_range(0..4)).collect();
            ys.push(vec![toy_cost(&seq)]);
            seqs.push(seq);
        }
        (seqs, ys)
    }

    #[test]
    fn learns_contextual_costs_better_than_mean() {
        let cfg = LstmConfig {
            vocab: 4,
            hidden: 16,
            fc_hidden: 12,
            outputs: 1,
            lr: 0.02,
            epochs: 60,
            clip: 5.0,
            seed: 3,
        };
        let (train_x, train_y) = toy_data(300, 1);
        let (test_x, test_y) = toy_data(60, 2);
        let mut model = LstmRegressor::new(cfg);
        model.fit(&train_x, &train_y);

        let preds: Vec<f64> = test_x.iter().map(|s| model.predict(s)[0]).collect();
        let truth: Vec<f64> = test_y.iter().map(|t| t[0]).collect();
        let model_err = crate::metrics::wmape(&truth, &preds);

        let mean = train_y.iter().map(|t| t[0]).sum::<f64>() / train_y.len() as f64;
        let mean_err = crate::metrics::wmape(&truth, &vec![mean; truth.len()]);
        assert!(
            model_err < 0.5 * mean_err,
            "lstm wmape {model_err:.3} vs mean predictor {mean_err:.3}"
        );
        assert!(model_err < 0.2, "lstm wmape {model_err:.3} too high");
    }

    #[test]
    fn empty_sequence_predicts_mean() {
        let cfg = LstmConfig {
            vocab: 4,
            epochs: 2,
            ..LstmConfig::default()
        };
        let (x, y) = toy_data(20, 5);
        let mut m = LstmRegressor::new(cfg);
        m.fit(&x, &y);
        let p = m.predict(&[]);
        assert_eq!(p.len(), 1);
        assert!(p[0].is_finite());
    }

    #[test]
    fn training_is_deterministic_given_seed() {
        let cfg = LstmConfig {
            vocab: 4,
            hidden: 8,
            fc_hidden: 8,
            epochs: 3,
            ..LstmConfig::default()
        };
        let (x, y) = toy_data(30, 9);
        let mut a = LstmRegressor::new(cfg.clone());
        let mut b = LstmRegressor::new(cfg);
        a.fit(&x, &y);
        b.fit(&x, &y);
        assert_eq!(a.predict(&x[0]), b.predict(&x[0]));
    }
}
