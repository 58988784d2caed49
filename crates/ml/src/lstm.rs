//! LSTM + fully-connected regression head (the paper's Figure 6 model).
//!
//! The model consumes a sequence of token ids (abstract-instruction
//! vocabulary indices, effectively one-hot encoded) and regresses scalar
//! targets — the number of SmartNIC instructions the opaque vendor
//! compiler would emit for the block. Training is full BPTT with Adam and
//! gradient clipping; targets are standardized internally.

use std::sync::Mutex;

use clara_obs as obs;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Error, Serialize};

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
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(validate = "LstmRegressor::validate")]
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

impl LstmRegressor {
    /// The decoding check: non-zero dimensions, and every tensor shaped
    /// as the config says.
    fn validate(&self) -> Result<(), Error> {
        let LstmConfig {
            vocab,
            hidden: h,
            fc_hidden: fc,
            outputs: out,
            ..
        } = self.cfg;
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
            ("wx", &self.wx, gates, vocab),
            ("wh", &self.wh, gates, h),
            ("w1", &self.w1, fc, h),
            ("w2", &self.w2, out, fc),
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
            ("b", self.b.len(), gates),
            ("b1", self.b1.len(), fc),
            ("b2", self.b2.len(), out),
            ("y_mean", self.y_mean.len(), out),
            ("y_std", self.y_std.len(), out),
        ];
        for (name, len, want) in vectors {
            if len != want {
                return Err(Error(format!(
                    "LSTM `{name}` has {len} values, config needs {want}"
                )));
            }
        }
        Ok(())
    }
}

/// Width of one step record, in units of `hidden`: the four gates after
/// their nonlinearities (i, f, g, o), then the step's `c`, `h` and
/// `tanh(c)`.
const RECORD: usize = 7;

/// The `h` slot of record `i` in a buffer of `7h`-float records.
fn hidden_of(records: &[f64], h: usize, i: usize) -> &[f64] {
    &records[i * RECORD * h + 5 * h..][..h]
}

/// Borrows record `prev` read-only and record `cur` mutably from a buffer
/// of `w`-float records (`prev != cur`).
fn record_pair(records: &mut [f64], w: usize, prev: usize, cur: usize) -> (&[f64], &mut [f64]) {
    if prev < cur {
        let (head, tail) = records.split_at_mut(cur * w);
        (&head[prev * w..][..w], &mut tail[..w])
    } else {
        let (head, tail) = records.split_at_mut(prev * w);
        (&tail[..w], &mut head[cur * w..][..w])
    }
}

/// Adds token-major `wx` gradient columns into a row-major accumulator:
/// for each `tok` in `toks` (each listed once),
/// `acc[:, tok] += cols[tok * acc.rows..][..acc.rows]`.
///
/// A lane's `wx` gradient is +0.0 outside the columns its tokens wrote,
/// and adding +0.0 to a sum that started at +0.0 changes no bit (such a
/// sum is never −0.0), so merging only the written columns, lane by lane,
/// equals the dense merge exactly.
fn add_columns(acc: &mut Matrix, cols: &[f64], toks: &[usize]) {
    for &tok in toks {
        for (r, &v) in cols[tok * acc.rows..][..acc.rows].iter().enumerate() {
            *acc.get_mut(r, tok) += v;
        }
    }
}

/// The `wh` gradient (`g_wh += dpre ⊗ h_prev`) and the next step's
/// `dh_prev = whᵀ dpre` in one sweep over `wh`'s rows. Rows where `dpre`
/// is zero are skipped, as `Matrix::add_outer` and `Matrix::add_tmatvec`
/// skip them, and `dh_prev` still sums rows in order, so the result is
/// theirs bit for bit. Taking the buffers as separate slices lets the
/// row loop vectorize.
fn recurrent_backward(
    wh: &Matrix,
    g_wh: &mut Matrix,
    dpre: &[f64],
    h_prev: &[f64],
    dh_prev: &mut [f64],
) {
    let n = dh_prev.len();
    dh_prev.fill(0.0);
    let h_prev = &h_prev[..n];
    let rows = wh.data.chunks_exact(n).zip(g_wh.data.chunks_exact_mut(n));
    for ((w_row, g_row), &d) in rows.zip(dpre) {
        if d == 0.0 {
            continue;
        }
        let (w_row, g_row) = (&w_row[..n], &mut g_row[..n]);
        for c in 0..n {
            g_row[c] += d * h_prev[c];
            dh_prev[c] += d * w_row[c];
        }
    }
}

/// Gradients of every tensor but `wx`, plus the loss tally, for one lane
/// of a minibatch (or the merged minibatch).
struct Grads {
    wh: Matrix,
    b: Vec<f64>,
    w1: Matrix,
    b1: Vec<f64>,
    w2: Matrix,
    b2: Vec<f64>,
    se: f64,
    count: usize,
}

impl Grads {
    fn zeros(m: &LstmRegressor) -> Grads {
        Grads {
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

    fn tensors(&mut self) -> [&mut [f64]; 6] {
        [
            &mut self.wh.data,
            &mut self.b,
            &mut self.w1.data,
            &mut self.b1,
            &mut self.w2.data,
            &mut self.b2,
        ]
    }

    fn clear(&mut self) {
        for t in self.tensors() {
            t.fill(0.0);
        }
        self.se = 0.0;
        self.count = 0;
    }

    fn merge(&mut self, o: &Grads) {
        let theirs = [&o.wh.data, &o.b, &o.w1.data, &o.b1, &o.w2.data, &o.b2];
        for (a, b) in self.tensors().into_iter().zip(theirs) {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        }
        self.se += o.se;
        self.count += o.count;
    }
}

/// One lane's scratch: built once per [`LstmRegressor::fit`] and cleared
/// in place between minibatches, so the minibatch loop allocates nothing.
struct Lane {
    g: Grads,
    /// `wx` gradient, token-major: token `t`'s column is
    /// `wx[t * 4h..][..4h]`.
    wx: Vec<f64>,
    /// Tokens whose `wx` column this lane wrote since its last reset, in
    /// first-write order; `seen[t]` marks them.
    toks: Vec<usize>,
    seen: Vec<bool>,
    /// Step records: the zero initial state, then one per token of the
    /// longest training sequence.
    records: Vec<f64>,
    z1: Vec<f64>,
    out: Vec<f64>,
    dout: Vec<f64>,
    dz1: Vec<f64>,
    dh: Vec<f64>,
    dh_prev: Vec<f64>,
    dc: Vec<f64>,
    dpre: Vec<f64>,
}

impl Lane {
    fn new(m: &LstmRegressor, max_len: usize) -> Lane {
        let LstmConfig {
            vocab,
            hidden: h,
            fc_hidden: fc,
            outputs: out,
            ..
        } = m.cfg;
        Lane {
            g: Grads::zeros(m),
            wx: vec![0.0; vocab * 4 * h],
            toks: Vec::with_capacity(vocab),
            seen: vec![false; vocab],
            records: vec![0.0; (max_len + 1) * RECORD * h],
            z1: vec![0.0; fc],
            out: vec![0.0; out],
            dout: vec![0.0; out],
            dz1: vec![0.0; fc],
            dh: vec![0.0; h],
            dh_prev: vec![0.0; h],
            dc: vec![0.0; h],
            dpre: vec![0.0; 4 * h],
        }
    }

    /// Zeroes the gradients, touching only the `wx` columns written since
    /// the last reset.
    fn reset(&mut self) {
        self.g.clear();
        let rows = self.dpre.len();
        for &tok in &self.toks {
            self.wx[tok * rows..][..rows].fill(0.0);
            self.seen[tok] = false;
        }
        self.toks.clear();
    }

    /// Forward + backward over one lane of a minibatch, against the
    /// *pre-step* parameters `m`, accumulated into this lane's gradients.
    /// Lanes share nothing mutable, so they run concurrently.
    fn accumulate(
        &mut self,
        m: &LstmRegressor,
        samples: &[usize],
        seqs: &[Vec<usize>],
        ys: &[Vec<f64>],
    ) {
        self.reset();
        let h = m.cfg.hidden;
        let w = RECORD * h;
        for &si in samples {
            let seq = &seqs[si];
            if seq.is_empty() {
                continue;
            }
            let last = m.run(seq, &mut self.records);
            let h_last = hidden_of(&self.records, h, last);
            m.head(h_last, &mut self.z1, &mut self.out);

            // Output gradient (MSE).
            for ((d, o), t) in self.dout.iter_mut().zip(&self.out).zip(&ys[si]) {
                *d = o - t;
            }
            self.g.se += self.dout.iter().map(|d| d * d).sum::<f64>();
            self.g.count += 1;

            // FC head backward.
            self.g.w2.add_outer(&self.dout, &self.z1, 1.0);
            for (gv, d) in self.g.b2.iter_mut().zip(&self.dout) {
                *gv += d;
            }
            self.dz1.fill(0.0);
            m.w2.add_tmatvec(&self.dout, &mut self.dz1);
            for (d, z) in self.dz1.iter_mut().zip(&self.z1) {
                if *z <= 0.0 {
                    *d = 0.0; // ReLU gate
                }
            }
            self.g.w1.add_outer(&self.dz1, h_last, 1.0);
            for (gv, d) in self.g.b1.iter_mut().zip(&self.dz1) {
                *gv += d;
            }
            self.dh.fill(0.0);
            m.w1.add_tmatvec(&self.dz1, &mut self.dh);

            // BPTT: step `t` wrote record `t + 1` from the state in record `t`.
            self.dc.fill(0.0);
            for (t, &tok) in seq.iter().enumerate().rev() {
                let tok = tok.min(m.cfg.vocab - 1);
                let prev = &self.records[t * w..][..w];
                let rec = &self.records[(t + 1) * w..][..w];
                let (c_prev, h_prev) = (&prev[4 * h..5 * h], &prev[5 * h..6 * h]);
                let (gates, tanh_c) = (&rec[..4 * h], &rec[6 * h..]);
                let (dh, dc, dpre) = (&self.dh, &mut self.dc, &mut self.dpre);
                for j in 0..h {
                    let i_g = gates[j];
                    let f_g = gates[h + j];
                    let g_g = gates[2 * h + j];
                    let o_g = gates[3 * h + j];
                    let tc = tanh_c[j];
                    // dh -> o gate and c.
                    let do_ = dh[j] * tc;
                    let dc_t = dc[j] + dh[j] * o_g * (1.0 - tc * tc);
                    let di = dc_t * g_g;
                    let df = dc_t * c_prev[j];
                    let dg = dc_t * i_g;
                    dpre[j] = di * i_g * (1.0 - i_g);
                    dpre[h + j] = df * f_g * (1.0 - f_g);
                    dpre[2 * h + j] = dg * (1.0 - g_g * g_g);
                    dpre[3 * h + j] = do_ * o_g * (1.0 - o_g);
                    dc[j] = dc_t * f_g; // Carry to t-1.
                }
                // Parameter gradients: `wx` column `tok` and the bias.
                if !self.seen[tok] {
                    self.seen[tok] = true;
                    self.toks.push(tok);
                }
                let col = &mut self.wx[tok * 4 * h..][..4 * h];
                for ((cv, bv), &d) in col.iter_mut().zip(self.g.b.iter_mut()).zip(dpre.iter()) {
                    *cv += d;
                    *bv += d;
                }
                recurrent_backward(&m.wh, &mut self.g.wh, dpre, h_prev, &mut self.dh_prev);
                std::mem::swap(&mut self.dh, &mut self.dh_prev);
            }
        }
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

    /// One LSTM step on token `tok` from the state in record `prev` (its
    /// `c` and `h` slots), writing this step's record into `rec`.
    fn step(&self, tok: usize, prev: &[f64], rec: &mut [f64]) {
        let h = self.cfg.hidden;
        let tok = tok.min(self.cfg.vocab - 1);
        let (c_prev, h_prev) = (&prev[4 * h..5 * h], &prev[5 * h..6 * h]);
        let (gates, state) = rec.split_at_mut(4 * h);
        // pre = Wh * h + (Wx[:, tok] + b), built in the gate slots.
        self.wh.matvec_into(h_prev, gates);
        for (r, p) in gates.iter_mut().enumerate() {
            *p += self.wx.get(r, tok) + self.b[r];
        }
        for j in 0..h {
            gates[j] = sigmoid(gates[j]); // input gate
            gates[h + j] = sigmoid(gates[h + j]); // forget gate
            gates[2 * h + j] = gates[2 * h + j].tanh(); // candidate
            gates[3 * h + j] = sigmoid(gates[3 * h + j]); // output gate
        }
        let (c, rest) = state.split_at_mut(h);
        let (h_new, tanh_c) = rest.split_at_mut(h);
        for j in 0..h {
            c[j] = gates[h + j] * c_prev[j] + gates[j] * gates[2 * h + j];
            tanh_c[j] = c[j].tanh();
            h_new[j] = gates[3 * h + j] * tanh_c[j];
        }
    }

    /// Runs the LSTM over `seq` through `records`, a ring of `7h`-float
    /// step records whose record 0 holds the initial state (zero `c` and
    /// `h`): step `t` reads record `t % ring` and writes record
    /// `(t + 1) % ring`. Training passes more records than steps, so every
    /// step's record survives for BPTT; inference passes two. Returns the
    /// index of the last record written.
    fn run(&self, seq: &[usize], records: &mut [f64]) -> usize {
        let w = RECORD * self.cfg.hidden;
        let ring = records.len() / w;
        let mut cur = 0;
        for &tok in seq {
            let prev = cur;
            cur = (cur + 1) % ring;
            let (p, rec) = record_pair(records, w, prev, cur);
            self.step(tok, p, rec);
        }
        cur
    }

    /// The FC head on the last hidden state: `z1 = relu(W1 h + b1)` and
    /// `out = W2 z1 + b2`, in standardized target units.
    fn head(&self, h_last: &[f64], z1: &mut [f64], out: &mut [f64]) {
        self.w1.matvec_into(h_last, z1);
        for (z, b) in z1.iter_mut().zip(&self.b1) {
            *z = (*z + b).max(0.0); // ReLU
        }
        self.w2.matvec_into(z1, out);
        for (o, b) in out.iter_mut().zip(&self.b2) {
            *o += b;
        }
    }

    /// Predicts the (de-standardized) regression outputs for a sequence.
    pub fn predict(&self, seq: &[usize]) -> Vec<f64> {
        if seq.is_empty() {
            return self.y_mean.clone();
        }
        let h = self.cfg.hidden;
        let mut records = vec![0.0; 2 * RECORD * h];
        let last = self.run(seq, &mut records);
        let mut z1 = vec![0.0; self.cfg.fc_hidden];
        let mut out = vec![0.0; self.cfg.outputs];
        self.head(hidden_of(&records, h, last), &mut z1, &mut out);
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
        // Every buffer the minibatch loop touches is built here, once:
        // the lanes' scratch and the merged gradient.
        let max_len = seqs.iter().map(Vec::len).max().unwrap_or(0);
        let lanes: Vec<Mutex<Lane>> = (0..LANES)
            .map(|_| Mutex::new(Lane::new(self, max_len)))
            .collect();
        let mut g = Grads::zeros(self);
        let mut g_wx = Matrix::zeros(self.wx.rows, self.wx.cols);
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
                let used = chunk.len().div_ceil(lane_size);
                let jobs: [(&[usize], &Mutex<Lane>); LANES] = std::array::from_fn(|k| {
                    let lo = (k * lane_size).min(chunk.len());
                    (&chunk[lo..(lo + lane_size).min(chunk.len())], &lanes[k])
                });
                let model = &*self;
                crate::parallel::map_ordered(&jobs[..used], |_, &(samples, lane)| {
                    lane.lock()
                        .expect("lane poisoned")
                        .accumulate(model, samples, seqs, &ys);
                });
                // Lane-order merge into the cleared minibatch gradient.
                g.clear();
                g_wx.clear();
                for lane in &lanes[..used] {
                    let lane = lane.lock().expect("lane poisoned");
                    g.merge(&lane.g);
                    add_columns(&mut g_wx, &lane.wx, &lane.toks);
                }
                epoch_se += g.se;
                count += g.count;

                // Clip and apply.
                let scale = 1.0 / chunk.len().max(1) as f64;
                let [g_wh, g_b, g_w1, g_b1, g_w2, g_b2] = g.tensors();
                for gr in [
                    &mut g_wx.data[..],
                    &mut *g_wh,
                    &mut *g_b,
                    &mut *g_w1,
                    &mut *g_b1,
                    &mut *g_w2,
                    &mut *g_b2,
                ] {
                    gr.iter_mut().for_each(|v| *v *= scale);
                    clip_grad(gr, self.cfg.clip);
                }
                opt_wx.step(&mut self.wx.data, &g_wx.data);
                opt_wh.step(&mut self.wh.data, g_wh);
                opt_b.step(&mut self.b, g_b);
                opt_w1.step(&mut self.w1.data, g_w1);
                opt_b1.step(&mut self.b1, g_b1);
                opt_w2.step(&mut self.w2.data, g_w2);
                opt_b2.step(&mut self.b2, g_b2);
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

    /// FNV-1a over the bit patterns of every trained tensor.
    fn weights_fingerprint(m: &LstmRegressor) -> u64 {
        let tensors = [
            &m.wx.data, &m.wh.data, &m.b, &m.w1.data, &m.b1, &m.w2.data, &m.b2, &m.y_mean, &m.y_std,
        ];
        let mut h: u64 = 0xcbf29ce484222325;
        for byte in tensors
            .iter()
            .flat_map(|t| t.iter())
            .flat_map(|v| v.to_bits().to_le_bytes())
        {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    }

    /// The training step is pinned bit for bit, not just run to run: the
    /// constants below were recorded with the earlier kernel (per-step
    /// allocations, dense lane merges, row-by-row `matvec`), and every
    /// rewrite must reproduce them at one worker and at three. The set
    /// ends in a 5-sample minibatch (3 lanes), holds an empty sequence,
    /// and never uses vocabulary ids 5 and 6, so the sparse `wx` merge
    /// sees untouched columns.
    #[test]
    fn fit_reproduces_pinned_weights() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(4);
        let mut x: Vec<Vec<usize>> = Vec::new();
        let mut y: Vec<Vec<f64>> = Vec::new();
        for i in 0..37 {
            let len = if i == 9 { 0 } else { rng.gen_range(1..12) };
            let seq: Vec<usize> = (0..len).map(|_| rng.gen_range(0..5)).collect();
            y.push(vec![seq.iter().map(|&t| (t * t) as f64).sum::<f64>() + 0.5]);
            x.push(seq);
        }
        let cfg = LstmConfig {
            vocab: 7,
            hidden: 7,
            fc_hidden: 5,
            outputs: 1,
            lr: 0.02,
            epochs: 4,
            clip: 5.0,
            seed: 11,
        };
        for threads in [1, 3] {
            crate::parallel::set_threads(threads);
            let mut m = LstmRegressor::new(cfg.clone());
            let mse = m.fit(&x, &y);
            crate::parallel::set_threads(0);
            assert_eq!(
                weights_fingerprint(&m),
                0x5ddd6a334194e9e1,
                "{threads} worker(s)"
            );
            assert_eq!(mse.to_bits(), 0x3feaec70dc4d0921, "{threads} worker(s)");
            assert_eq!(m.predict(&x[0])[0].to_bits(), 0x4041d3d7a16cb7f0);
        }
    }

    /// Dense reference for [`add_columns`]: every lane adds every entry,
    /// in lane order, into a sum that starts at +0.0.
    fn dense_merge(rows: usize, vocab: usize, lanes: &[Vec<f64>]) -> Vec<u64> {
        let mut acc = Matrix::zeros(rows, vocab);
        for lane in lanes {
            for tok in 0..vocab {
                for r in 0..rows {
                    *acc.get_mut(r, tok) += lane[tok * rows + r];
                }
            }
        }
        acc.data.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn sparse_wx_merge_equals_dense_merge() {
        use rand::Rng;
        let (rows, vocab) = (6, 9);
        let mut rng = StdRng::seed_from_u64(8);
        // Lane `k` writes the listed columns the way `accumulate` does:
        // starting from +0.0, adding terms that include ±0.0 and pairs
        // that cancel exactly, so written entries can end at ±0.0.
        let mut lane = |toks: &[usize]| {
            let mut cols = vec![0.0; rows * vocab];
            for &tok in toks {
                for v in &mut cols[tok * rows..][..rows] {
                    let t = match rng.gen_range(0..4) {
                        0 => -0.0,
                        1 => 0.0,
                        _ => rng.gen_range(-2.0..2.0),
                    };
                    *v += t;
                    if rng.gen_bool(0.3) {
                        *v += -t;
                    }
                }
            }
            (cols, toks.to_vec())
        };
        let disjoint = [lane(&[0, 3]), lane(&[1]), lane(&[5, 8, 2])];
        let overlapping = [lane(&[0, 3, 4]), lane(&[3, 0]), lane(&[4]), lane(&[8, 0])];
        for lanes in [&disjoint[..], &overlapping[..]] {
            let mut acc = Matrix::zeros(rows, vocab);
            for (cols, toks) in lanes {
                add_columns(&mut acc, cols, toks);
            }
            let sparse: Vec<u64> = acc.data.iter().map(|v| v.to_bits()).collect();
            let dense: Vec<Vec<f64>> = lanes.iter().map(|(c, _)| c.clone()).collect();
            assert_eq!(sparse, dense_merge(rows, vocab, &dense));
        }
    }
}
