//! Fixed-point (Q16.16) quantized inference — the fast path behind the
//! precision axis.
//!
//! The f64 models in this crate spend most of their inference time in
//! `libm` transcendentals: one LSTM timestep at hidden width `h` evaluates
//! `3h` sigmoids and `2h` tanhs. This module provides drop-in quantized
//! twins ([`QuantLstm`], [`QuantMlp`], [`QuantGbdt`]) that store weights
//! as Q16.16 fixed point (`i32` with 16 fractional bits), accumulate in
//! `i64`, and replace `tanh`/`exp` with a 128-segment first-order Taylor
//! table (value + secant slope per segment, odd symmetry, saturation at
//! `|x| >= 4`; max error vs `f64::tanh` is under `2e-4`). Sigmoid is
//! derived as `σ(x) = (tanh(x/2) + 1) / 2` so both nonlinearities share
//! one table.
//!
//! All quantized arithmetic is exact and platform-independent: integer
//! math, plus the single-lane LSTM's recurrent matvec, which runs on
//! `f64` copies of the Q16.16 values only where every product and
//! partial sum is an integer `f64` holds exactly (so it vectorizes
//! without rounding anything). The only rounding happens at weight/input
//! quantization and inside `qmul`'s right shift, and both are fully
//! deterministic. A consequence this crate's callers rely on: batched
//! evaluation is **bit-identical** to one-at-a-time evaluation, because
//! each lane's operation sequence is independent of the batch layout.
//! [`QuantLstm::predict_batch_tokens`] exploits that by picking a kernel
//! per batch width: narrow batches run contiguous single-lane kernels
//! with shared scratch, wide ones a structure-of-arrays state layout
//! (lanes contiguous per hidden unit, sequences sorted by length so the
//! active prefix shrinks monotonically).
//!
//! Quantized models implement the same [`Regressor`] trait as their f64
//! sources, so choosing a precision is choosing which `&dyn Regressor` a
//! call site dispatches through — see [`Precision`].

use std::cmp::Reverse;
use std::fmt;
use std::sync::OnceLock;

use serde::{Deserialize, Error, Serialize, Value};

use crate::gbdt::GbdtRegressor;
use crate::lstm::LstmRegressor;
use crate::mlp::{Loss, Mlp};
use crate::regressor::{Regressor, RegressorInput};

/// Numeric precision for model inference.
///
/// `F64` is the bit-exact reference path; `Q16` runs the Q16.16
/// fixed-point twins in this module. The enum is `#[non_exhaustive]` so
/// narrower formats (Q8.8, block-scaled int8, …) can be added without a
/// breaking change; always keep a wildcard arm when matching.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// Double-precision floating point (the reference semantics).
    #[default]
    F64,
    /// Q16.16 fixed point with table-approximated nonlinearities.
    Q16,
}

impl Precision {
    /// Every precision this build supports, reference first.
    pub const ALL: &'static [Precision] = &[Precision::F64, Precision::Q16];

    /// Canonical lowercase name (`"f64"` / `"q16"`), as used by CLI flags
    /// and the serve protocol.
    pub fn as_str(&self) -> &'static str {
        match self {
            Precision::F64 => "f64",
            Precision::Q16 => "q16",
        }
    }

    /// Parses a canonical name; the error lists the accepted values.
    pub fn parse(s: &str) -> Result<Precision, String> {
        match s {
            "f64" => Ok(Precision::F64),
            "q16" => Ok(Precision::Q16),
            other => Err(format!(
                "unknown precision {other:?} (expected \"f64\" or \"q16\")"
            )),
        }
    }
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl Serialize for Precision {
    fn to_value(&self) -> Value {
        Value::Str(self.as_str().to_string())
    }
}

impl Deserialize for Precision {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            // Envelopes written before the precision axis existed carry no
            // precision field; they are f64 by construction.
            Value::Null => Ok(Precision::F64),
            Value::Str(s) => Precision::parse(s).map_err(Error::msg),
            other => Err(Error::msg(format!(
                "expected a precision string, got {other:?}"
            ))),
        }
    }
}

/// Fractional bits in the Q16.16 format.
pub const FRAC_BITS: u32 = 16;
/// `1.0` in Q16.16.
pub const ONE_Q: i32 = 1 << FRAC_BITS;

/// Quantizes an `f64` to Q16.16, rounding to nearest and saturating at
/// the `i32` range (non-finite inputs saturate; NaN maps to 0).
pub fn to_q(x: f64) -> i32 {
    let scaled = (x * ONE_Q as f64).round();
    if scaled >= i32::MAX as f64 {
        i32::MAX
    } else if scaled <= i32::MIN as f64 {
        i32::MIN
    } else {
        scaled as i32
    }
}

/// Exact Q16.16 → `f64` conversion.
pub fn q_to_f(q: i32) -> f64 {
    q as f64 / ONE_Q as f64
}

/// Q16.16 multiply: widen to `i64`, shift the extra 16 fractional bits
/// back out (truncating toward negative infinity — deterministic).
pub fn qmul(a: i32, b: i32) -> i32 {
    ((a as i64 * b as i64) >> FRAC_BITS) as i32
}

/// Saturating narrow from an `i64` accumulator back to Q16.16.
fn sat(v: i64) -> i32 {
    v.clamp(i32::MIN as i64, i32::MAX as i64) as i32
}

/// Widening dot product of two Q16.16 slices (result is Q32.32).
///
/// Four independent accumulators break the 3-cycle integer-multiply
/// dependency chain; integer addition is associative, so the result is
/// bit-identical to a left-to-right sum.
fn dot_q(a: &[i32], b: &[i32]) -> i64 {
    let mut acc = [0i64; 4];
    let mut ca = a.chunks_exact(4);
    let mut cb = b.chunks_exact(4);
    for (wa, wb) in ca.by_ref().zip(cb.by_ref()) {
        for i in 0..4 {
            acc[i] += wa[i] as i64 * wb[i] as i64;
        }
    }
    let mut tail = 0i64;
    for (&x, &y) in ca.remainder().iter().zip(cb.remainder()) {
        tail += x as i64 * y as i64;
    }
    acc[0] + acc[1] + acc[2] + acc[3] + tail
}

/// Bound on a recurrent row's `Σ_j |w_j|` under which [`matvec_exact`]
/// is exact: with every hidden value at most `2^16` in magnitude, no
/// partial sum of the row can then exceed `2^53`.
const EXACT_ROW_L1: u64 = 1 << 37;

/// Rows per block of the recurrent weights that [`matvec_exact`] reads.
const BLOCK: usize = 16;

/// Row-major Q16.16 weights (`cols` per row) as `f64`, regrouped for
/// [`matvec_exact`]: blocks of [`BLOCK`] rows, each stored column by
/// column (`out[(block * cols + j) * BLOCK + i]` is row
/// `block * BLOCK + i`, column `j`), the last block padded with zero rows.
fn pack_blocks(w: &[i32], cols: usize) -> Vec<f64> {
    let rows = w.len() / cols;
    let mut out = vec![0.0; rows.div_ceil(BLOCK) * BLOCK * cols];
    for (r, row) in w.chunks_exact(cols).enumerate() {
        let (block, i) = (r / BLOCK, r % BLOCK);
        for (j, &v) in row.iter().enumerate() {
            out[(block * cols + j) * BLOCK + i] = f64::from(v);
        }
    }
    out
}

/// `dots[r] = Σ_j w[r][j] · h[j]` (Q32.32) for every row of weights packed
/// by [`pack_blocks`], with the hidden state converted from Q16.16 to
/// `f64`. `dots` covers the padded rows too.
///
/// This is [`dot_q`]'s result exactly, not approximately: every product
/// is an integer of magnitude at most `2^47` (`|w| <= 2^31`,
/// `|h| <= 2^16`, see [`QuantLstm::run_single`]) and every partial sum
/// one of magnitude at most `2^53` (rows are checked against
/// [`EXACT_ROW_L1`] at quantize time), so each operation's exact result
/// is representable and IEEE arithmetic returns it. In `f64` the sums vectorize, `BLOCK` rows per pass over `h`, where
/// `dot_q`'s `i64` products do not: the baseline x86-64 target has no
/// vector `i64` multiply.
fn matvec_exact(w: &[f64], h: &[f64], dots: &mut [i64]) {
    for (out, block) in dots
        .chunks_exact_mut(BLOCK)
        .zip(w.chunks_exact(BLOCK * h.len()))
    {
        let mut acc = [0.0f64; BLOCK];
        for (col, &x) in block.chunks_exact(BLOCK).zip(h) {
            for (a, &v) in acc.iter_mut().zip(col) {
                *a += v * x;
            }
        }
        for (d, a) in out.iter_mut().zip(acc) {
            *d = a as i64;
        }
    }
}

/// Segments in the tanh table; step `8.0 / 256 = 2^-5`.
const TANH_SEGS: usize = 256;
/// Bits of within-segment fraction (`FRAC_BITS - 5`).
const SEG_SHIFT: u32 = FRAC_BITS - 5;
/// Saturation point: `tanh(x) ≈ ±1` beyond `|x| = 8` (error `2e-7`,
/// far below the per-segment curvature budget of `~1e-4`).
const TANH_CLAMP_Q: i64 = 8 * ONE_Q as i64;

/// `(value, secant slope)` per segment, both Q16.16, built once from the
/// f64 reference `tanh`. Secant (not tangent) slopes make the piecewise
/// approximation continuous and halve the worst-case segment error.
fn tanh_table() -> &'static [(i32, i32); TANH_SEGS] {
    static TABLE: OnceLock<[(i32, i32); TANH_SEGS]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [(0i32, 0i32); TANH_SEGS];
        let step = (SEG_SHIFT as f64).exp2() / ONE_Q as f64; // 1/32
        for (i, e) in t.iter_mut().enumerate() {
            let x0 = i as f64 * step;
            let v0 = x0.tanh();
            let v1 = (x0 + step).tanh();
            *e = (to_q(v0), to_q((v1 - v0) / step));
        }
        t
    })
}

/// [`qtanh`] against an already-resolved table — the inference loops
/// hoist the `OnceLock` access out of their hot paths.
#[inline]
fn qtanh_t(table: &[(i32, i32); TANH_SEGS], x: i32) -> i32 {
    let a = (x as i64).abs();
    let mag = if a >= TANH_CLAMP_Q {
        ONE_Q
    } else {
        let idx = (a >> SEG_SHIFT) as usize;
        let frac = (a & ((1 << SEG_SHIFT) - 1)) as i32;
        let (v, s) = table[idx];
        v + qmul(s, frac)
    };
    if x < 0 {
        -mag
    } else {
        mag
    }
}

/// [`qsigmoid`] against an already-resolved table.
#[inline]
fn qsigmoid_t(table: &[(i32, i32); TANH_SEGS], x: i32) -> i32 {
    (qtanh_t(table, x >> 1) + ONE_Q) >> 1
}

/// Fixed-point `tanh` via the segment table (odd symmetry, saturating).
pub fn qtanh(x: i32) -> i32 {
    qtanh_t(tanh_table(), x)
}

/// Fixed-point logistic sigmoid, `σ(x) = (tanh(x/2) + 1) / 2`.
pub fn qsigmoid(x: i32) -> i32 {
    qsigmoid_t(tanh_table(), x)
}

/// Lane count at which batched LSTM inference switches from per-lane
/// contiguous kernels to the structure-of-arrays layout. Below this the
/// per-weight lane loop's setup cost exceeds its streaming win.
const SOA_MIN_LANES: usize = 16;

/// Reusable per-call state for the single-lane LSTM kernel.
#[derive(Default)]
struct Scratch {
    hs: Vec<i32>,
    /// `hs` as `f64`, the input of [`matvec_exact`].
    hf: Vec<f64>,
    cs: Vec<i32>,
    /// Recurrent dot products (Q32.32), `4h` rounded up to whole blocks.
    dots: Vec<i64>,
    /// Saturated gate pre-activations, `4h`.
    pre: Vec<i32>,
}

/// Q16.16 twin of [`LstmRegressor`]: same topology, integer weights,
/// table nonlinearities, and a structure-of-arrays batch path.
///
/// Only the first regression output is evaluated (every Clara predictor
/// trains with `outputs == 1`); the de-standardization stats stay in f64
/// because they scale the final scalar, not the recurrence.
#[derive(Debug, Clone)]
pub struct QuantLstm {
    vocab: usize,
    hidden: usize,
    fc_hidden: usize,
    /// Gate input weights stored **column-major** (`vocab x 4h`): a
    /// one-hot input selects one column, so the per-timestep gate loop
    /// reads a contiguous `4h` slice instead of striding by `vocab`.
    wxt: Vec<i32>,
    /// Recurrent weights `4h x h`, row-major.
    wh: Vec<i32>,
    /// `wh` packed by [`pack_blocks`] for [`matvec_exact`]; `None` when a
    /// row's absolute sum exceeds [`EXACT_ROW_L1`] (no trained model comes
    /// near it), and the single-lane kernel then sums with [`dot_q`].
    whf: Option<Vec<f64>>,
    /// Gate biases, `4h`.
    b: Vec<i32>,
    /// FC layer 1 `fc_hidden x h`, row-major.
    w1: Vec<i32>,
    b1: Vec<i32>,
    /// FC layer 2 first row (`fc_hidden` weights for output 0).
    w2: Vec<i32>,
    b2: i32,
    y_mean: f64,
    y_std: f64,
}

impl QuantLstm {
    /// Quantizes a trained f64 LSTM (weights round to nearest Q16.16).
    pub fn quantize(m: &LstmRegressor) -> QuantLstm {
        let cfg = m.config().clone();
        let qv = |v: &[f64]| v.iter().map(|&x| to_q(x)).collect::<Vec<i32>>();
        let rows = 4 * cfg.hidden;
        let mut wxt = vec![0i32; rows * cfg.vocab];
        for r in 0..rows {
            for t in 0..cfg.vocab {
                wxt[t * rows + r] = to_q(m.wx.data[r * cfg.vocab + t]);
            }
        }
        let wh = qv(&m.wh.data);
        let exact = wh.chunks_exact(cfg.hidden).all(|row| {
            row.iter().map(|w| u64::from(w.unsigned_abs())).sum::<u64>() <= EXACT_ROW_L1
        });
        QuantLstm {
            vocab: cfg.vocab,
            hidden: cfg.hidden,
            fc_hidden: cfg.fc_hidden,
            wxt,
            whf: exact.then(|| pack_blocks(&wh, cfg.hidden)),
            wh,
            b: qv(&m.b),
            w1: qv(&m.w1.data),
            b1: qv(&m.b1),
            w2: qv(&m.w2.data[..cfg.fc_hidden]),
            b2: to_q(m.b2[0]),
            y_mean: m.y_mean[0],
            y_std: m.y_std[0],
        }
    }

    /// Predicts the (de-standardized) first output for one sequence.
    pub fn predict_tokens(&self, seq: &[usize]) -> f64 {
        self.run_single(seq, &mut Scratch::default())
    }

    /// One sequence through the recurrence with contiguous state and a
    /// caller-owned scratch (so batch loops allocate once).
    ///
    /// Every entry point funnels into either this kernel or the
    /// structure-of-arrays one below; because all arithmetic is exact
    /// (integer math, and [`matvec_exact`]'s exact `f64` sums), the two
    /// differ only in summation order and therefore produce bit-identical
    /// results.
    ///
    /// Every hidden value is at most `ONE_Q` in magnitude, as
    /// [`matvec_exact`] requires: it is `qmul(o, qtanh(c))` with the
    /// sigmoid `o` in `[0, ONE_Q]` and the table tanh in `[-ONE_Q, ONE_Q]`.
    fn run_single(&self, seq: &[usize], s: &mut Scratch) -> f64 {
        if seq.is_empty() {
            // Empty sequences short-circuit to the target mean, same as
            // the f64 model.
            return self.y_mean;
        }
        let h = self.hidden;
        let table = tanh_table();
        let Scratch {
            hs,
            hf,
            cs,
            dots,
            pre,
        } = s;
        hs.clear();
        hs.resize(h, 0);
        hf.clear();
        hf.resize(h, 0.0);
        cs.clear();
        cs.resize(h, 0);
        dots.clear();
        dots.resize((4 * h).div_ceil(BLOCK) * BLOCK, 0);
        pre.clear();
        pre.resize(4 * h, 0);
        for &tok in seq {
            let tok = tok.min(self.vocab - 1);
            match &self.whf {
                Some(whf) => matvec_exact(whf, hf, dots),
                None => {
                    for (d, row) in dots.iter_mut().zip(self.wh.chunks_exact(h)) {
                        *d = dot_q(row, hs);
                    }
                }
            }
            let col = &self.wxt[tok * 4 * h..(tok + 1) * 4 * h];
            for (((p, &d), &c), &b) in pre.iter_mut().zip(&*dots).zip(col).zip(&self.b) {
                *p = sat((d >> FRAC_BITS) + c as i64 + b as i64);
            }
            let (pi, rest) = pre.split_at(h);
            let (pf, rest) = rest.split_at(h);
            let (pg, po) = rest.split_at(h);
            let gates = pi.iter().zip(pf).zip(pg).zip(po);
            let state = cs.iter_mut().zip(hs.iter_mut()).zip(hf.iter_mut());
            for ((((&i, &f), &g), &o), ((c, hv), hfv)) in gates.zip(state) {
                let gi = qsigmoid_t(table, i);
                let gf = qsigmoid_t(table, f);
                let gc = qtanh_t(table, g);
                let go = qsigmoid_t(table, o);
                *c = sat(qmul(gf, *c) as i64 + qmul(gi, gc) as i64);
                *hv = qmul(go, qtanh_t(table, *c));
                *hfv = f64::from(*hv);
            }
        }
        self.head(|j| hs[j])
    }

    /// Batch inference: input order is preserved and every element equals
    /// `predict_tokens` on that sequence exactly.
    ///
    /// Narrow batches (under `SOA_MIN_LANES` lanes — the common case
    /// for per-module block sets) run each lane through the contiguous
    /// single-lane kernel with shared scratch; wide batches switch to a
    /// structure-of-arrays layout where lanes are contiguous per hidden
    /// unit and the inner matvec loop streams lanes with one weight
    /// broadcast, with sequences sorted by length so lanes retire from a
    /// shrinking active prefix.
    pub fn predict_batch_tokens(&self, seqs: &[&[usize]]) -> Vec<f64> {
        let n = seqs.len();
        if n == 0 {
            return Vec::new();
        }
        if n < SOA_MIN_LANES {
            let mut scratch = Scratch::default();
            return seqs
                .iter()
                .map(|s| self.run_single(s, &mut scratch))
                .collect();
        }
        let h = self.hidden;
        let table = tanh_table();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| Reverse(seqs[i].len()));
        let max_len = seqs[order[0]].len();
        let mut hs = vec![0i32; h * n];
        let mut cs = vec![0i32; h * n];
        let mut pre = vec![0i64; 4 * h * n];
        for t in 0..max_len {
            let active = order.partition_point(|&i| seqs[i].len() > t);
            // pre[r][k] = Σ_j wh[r][j] · h[j][k], kept in Q32.32 (i64) so
            // the single >>16 at use time matches every batch width.
            // Integer addition is associative, so the loop orders below
            // (and the single-lane kernel) produce bit-identical sums;
            // they differ only in memory order.
            if active < SOA_MIN_LANES {
                // The active prefix has shrunk: per-weight lane loops
                // would spend more time on loop setup than arithmetic, so
                // walk each remaining lane with a strided dot product.
                for k in 0..active {
                    for r in 0..4 * h {
                        let row = &self.wh[r * h..(r + 1) * h];
                        let mut acc = 0i64;
                        for (j, &w) in row.iter().enumerate() {
                            acc += w as i64 * hs[j * n + k] as i64;
                        }
                        pre[r * n + k] = acc;
                    }
                }
            } else {
                // Wide prefix: stream contiguous lane groups per weight.
                for r in 0..4 * h {
                    let row = &self.wh[r * h..(r + 1) * h];
                    let dst = &mut pre[r * n..r * n + active];
                    dst.fill(0);
                    for (j, &w) in row.iter().enumerate() {
                        let w = w as i64;
                        let lane = &hs[j * n..j * n + active];
                        for (d, &hv) in dst.iter_mut().zip(lane) {
                            *d += w * hv as i64;
                        }
                    }
                }
            }
            for k in 0..active {
                let tok = seqs[order[k]][t].min(self.vocab - 1);
                let col = &self.wxt[tok * 4 * h..(tok + 1) * 4 * h];
                for j in 0..h {
                    let pre_at = |r: usize| {
                        sat((pre[r * n + k] >> FRAC_BITS) + col[r] as i64 + self.b[r] as i64)
                    };
                    let gi = qsigmoid_t(table, pre_at(j));
                    let gf = qsigmoid_t(table, pre_at(h + j));
                    let gc = qtanh_t(table, pre_at(2 * h + j));
                    let go = qsigmoid_t(table, pre_at(3 * h + j));
                    let c = sat(qmul(gf, cs[j * n + k]) as i64 + qmul(gi, gc) as i64);
                    cs[j * n + k] = c;
                    hs[j * n + k] = qmul(go, qtanh_t(table, c));
                }
            }
        }
        let mut out = vec![0.0; n];
        for (k, &i) in order.iter().enumerate() {
            out[i] = if seqs[i].is_empty() {
                // Empty sequences short-circuit to the target mean, same
                // as the f64 model.
                self.y_mean
            } else {
                self.head(|j| hs[j * n + k])
            };
        }
        out
    }

    /// FC head (ReLU layer + linear output 0) over a final hidden state.
    fn head(&self, hval: impl Fn(usize) -> i32) -> f64 {
        let h = self.hidden;
        let mut acc_out = 0i64;
        for i in 0..self.fc_hidden {
            let mut acc = 0i64;
            for j in 0..h {
                acc += self.w1[i * h + j] as i64 * hval(j) as i64;
            }
            let z = sat((acc >> FRAC_BITS) + self.b1[i] as i64).max(0);
            acc_out += self.w2[i] as i64 * z as i64;
        }
        let o = sat((acc_out >> FRAC_BITS) + self.b2 as i64);
        q_to_f(o) * self.y_std + self.y_mean
    }
}

impl Regressor for QuantLstm {
    fn predict(&self, x: RegressorInput<'_>) -> f64 {
        self.predict_tokens(x.tokens())
    }

    fn predict_batch(&self, xs: &[RegressorInput<'_>]) -> Vec<f64> {
        let seqs: Vec<&[usize]> = xs.iter().map(|x| x.tokens()).collect();
        self.predict_batch_tokens(&seqs)
    }
}

/// A row-major Q16.16 weight matrix.
#[derive(Debug, Clone)]
pub struct QMatrix {
    /// Output dimensionality of the layer.
    pub rows: usize,
    /// Input dimensionality of the layer.
    pub cols: usize,
    /// Row-major `rows x cols` weights.
    pub data: Vec<i32>,
}

/// Q16.16 twin of a scalar-regression [`Mlp`] (ReLU hidden layers,
/// linear output, de-standardization in f64).
#[derive(Debug, Clone)]
pub struct QuantMlp {
    weights: Vec<QMatrix>,
    biases: Vec<Vec<i32>>,
    y_mean: f64,
    y_std: f64,
}

impl QuantMlp {
    /// Quantizes a trained regression MLP.
    ///
    /// # Panics
    ///
    /// Panics if the network was trained with [`Loss::Softmax`] —
    /// classifiers have no quantized path.
    pub fn quantize(m: &Mlp) -> QuantMlp {
        assert!(
            matches!(m.cfg.loss, Loss::Mse),
            "only regression MLPs can be quantized"
        );
        QuantMlp {
            weights: m
                .weights
                .iter()
                .map(|w| QMatrix {
                    rows: w.rows,
                    cols: w.cols,
                    data: w.data.iter().map(|&x| to_q(x)).collect(),
                })
                .collect(),
            biases: m
                .biases
                .iter()
                .map(|b| b.iter().map(|&x| to_q(x)).collect())
                .collect(),
            y_mean: m.y_mean,
            y_std: m.y_std,
        }
    }

    /// Predicts the (de-standardized) first output for one feature row.
    pub fn predict_features(&self, x: &[f64]) -> f64 {
        let mut a: Vec<i32> = x.iter().map(|&v| to_q(v)).collect();
        let last = self.weights.len() - 1;
        for (l, (w, b)) in self.weights.iter().zip(self.biases.iter()).enumerate() {
            let mut z = vec![0i32; w.rows];
            for (r, zr) in z.iter_mut().enumerate() {
                let mut acc = 0i64;
                for (c, &av) in a.iter().enumerate() {
                    acc += w.data[r * w.cols + c] as i64 * av as i64;
                }
                let mut v = sat((acc >> FRAC_BITS) + b[r] as i64);
                if l < last {
                    v = v.max(0); // ReLU on hidden layers only.
                }
                *zr = v;
            }
            a = z;
        }
        q_to_f(a[0]) * self.y_std + self.y_mean
    }
}

impl Regressor for QuantMlp {
    fn predict(&self, x: RegressorInput<'_>) -> f64 {
        self.predict_features(x.features())
    }
}

/// One tree node in [`crate::tree::RegressionTree`]'s preorder layout:
/// the left child is the next node, `right == 0` marks a leaf whose `q`
/// holds the shrinkage-scaled leaf value; otherwise `q` is the split
/// threshold.
#[derive(Debug, Clone)]
pub struct QNode {
    feat: usize,
    q: i32,
    right: usize,
}

/// Q16.16 twin of [`GbdtRegressor`]: the f64 trees' preorder arrays
/// zipped into one node array per tree, quantized thresholds, leaf
/// values pre-scaled by the shrinkage at quantize time so prediction is
/// one `i64` sum over leaves.
#[derive(Debug, Clone)]
pub struct QuantGbdt {
    base_q: i64,
    trees: Vec<Vec<QNode>>,
}

impl QuantGbdt {
    /// Quantizes a fitted GBDT ensemble.
    pub fn quantize(m: &GbdtRegressor) -> QuantGbdt {
        QuantGbdt {
            base_q: to_q(m.base) as i64,
            trees: m
                .trees
                .iter()
                .map(|t| {
                    (0..t.value.len())
                        .map(|i| {
                            let leaf = t.right[i] == 0;
                            QNode {
                                feat: t.feat[i],
                                q: to_q(if leaf {
                                    m.shrinkage * t.value[i]
                                } else {
                                    t.value[i]
                                }),
                                right: t.right[i],
                            }
                        })
                        .collect()
                })
                .collect(),
        }
    }

    /// Predicts for one feature row.
    pub fn predict_features(&self, x: &[f64]) -> f64 {
        let xq: Vec<i32> = x.iter().map(|&v| to_q(v)).collect();
        let mut acc = self.base_q;
        for t in &self.trees {
            let mut i = 0usize;
            loop {
                let n = &t[i];
                if n.right == 0 {
                    acc += n.q as i64;
                    break;
                }
                i = if xq[n.feat] <= n.q { i + 1 } else { n.right };
            }
        }
        acc as f64 / ONE_Q as f64
    }
}

impl Regressor for QuantGbdt {
    fn predict(&self, x: RegressorInput<'_>) -> f64 {
        self.predict_features(x.features())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gbdt::GbdtConfig;
    use crate::lstm::LstmConfig;
    use crate::mlp::MlpConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use serde_json::{from_str, to_string};

    #[test]
    fn q16_round_trip_error_is_half_lsb() {
        for &x in &[0.0, 1.0, -1.0, 0.333, -7.25, 1234.5678, -0.00001] {
            assert!((q_to_f(to_q(x)) - x).abs() <= 0.5 / ONE_Q as f64 + 1e-12);
        }
        assert_eq!(to_q(f64::NAN), 0);
        assert_eq!(to_q(f64::INFINITY), i32::MAX);
        assert_eq!(to_q(f64::NEG_INFINITY), i32::MIN);
        assert_eq!(qmul(to_q(1.5), to_q(2.0)), to_q(3.0));
    }

    #[test]
    fn table_tanh_and_sigmoid_stay_within_error_budget() {
        let mut max_t = 0.0f64;
        let mut max_s = 0.0f64;
        let mut x = -8.0;
        while x <= 8.0 {
            let t = q_to_f(qtanh(to_q(x)));
            let s = q_to_f(qsigmoid(to_q(x)));
            max_t = max_t.max((t - x.tanh()).abs());
            max_s = max_s.max((s - 1.0 / (1.0 + (-x).exp())).abs());
            x += 0.00137;
        }
        assert!(max_t < 2e-4, "tanh error {max_t}");
        assert!(max_s < 2e-4, "sigmoid error {max_s}");
        // Odd symmetry and saturation.
        assert_eq!(qtanh(to_q(0.7)), -qtanh(to_q(-0.7)));
        assert_eq!(qtanh(to_q(40.0)), ONE_Q);
        assert_eq!(qtanh(i32::MIN), -ONE_Q);
    }

    #[test]
    fn table_tanh_magnitude_never_exceeds_one() {
        // Every input from 0 through saturation; odd symmetry covers the
        // negatives. `matvec_exact` relies on |h| <= ONE_Q, and h is a
        // sigmoid times a tanh, each bounded by this.
        for x in 0..=TANH_CLAMP_Q as i32 {
            let t = qtanh(x);
            assert!((0..=ONE_Q).contains(&t), "qtanh({x}) = {t}");
            assert!((0..=ONE_Q).contains(&qsigmoid(x)), "qsigmoid({x})");
            assert!((0..=ONE_Q).contains(&qsigmoid(-x)), "qsigmoid(-{x})");
        }
        assert_eq!(qtanh(i32::MAX), ONE_Q);
        assert_eq!(qsigmoid(i32::MIN), 0);
    }

    #[test]
    fn exact_matvec_equals_integer_dot_products() {
        let mut rng = StdRng::seed_from_u64(9);
        // Extremes included: |w| up to 2^31 and |h| up to ONE_Q.
        let weight = |rng: &mut StdRng| match rng.gen_range(0..4) {
            0 => i32::MIN,
            1 => i32::MAX,
            _ => rng.gen_range(-(1 << 20)..(1 << 20)),
        };
        let hidden = |rng: &mut StdRng| match rng.gen_range(0..4) {
            0 => -ONE_Q,
            1 => ONE_Q,
            _ => rng.gen_range(-ONE_Q..=ONE_Q),
        };
        // Row counts below, at and past one block; 64 columns put a row
        // of |w| = 2^31 right at EXACT_ROW_L1.
        for (rows, cols) in [(12usize, 3usize), (16, 28), (20, 5), (112, 28), (16, 64)] {
            for _ in 0..20 {
                let w: Vec<i32> = (0..rows * cols).map(|_| weight(&mut rng)).collect();
                let h: Vec<i32> = (0..cols).map(|_| hidden(&mut rng)).collect();
                let hf: Vec<f64> = h.iter().map(|&v| f64::from(v)).collect();
                let mut dots = vec![-1; rows.div_ceil(BLOCK) * BLOCK];
                matvec_exact(&pack_blocks(&w, cols), &hf, &mut dots);
                for (r, row) in w.chunks_exact(cols).enumerate() {
                    assert_eq!(dots[r], dot_q(row, &h), "{rows}x{cols} row {r}");
                }
                assert!(dots[rows..].iter().all(|&d| d == 0), "padding rows");
            }
        }
        // Every partial sum of this row reaches 2^53 at the end.
        let (w, h) = (vec![i32::MIN; 64], vec![-ONE_Q; 64]);
        let mut dots = vec![0; BLOCK];
        let hf: Vec<f64> = h.iter().map(|&v| f64::from(v)).collect();
        matvec_exact(&pack_blocks(&w, 64), &hf, &mut dots);
        assert_eq!(dots[0], 1 << 53);
        assert_eq!(dots[0], dot_q(&w, &h));
    }

    #[test]
    fn exact_and_integer_recurrences_agree_and_large_rows_fall_back() {
        let q = QuantLstm::quantize(&toy_lstm());
        assert!(q.whf.is_some());
        let integer = QuantLstm {
            whf: None,
            ..q.clone()
        };
        for i in 0..40usize {
            let seq: Vec<usize> = (0..(1 + i % 23)).map(|j| (j * 7 + i) % 12).collect();
            assert_eq!(
                q.predict_tokens(&seq).to_bits(),
                integer.predict_tokens(&seq).to_bits(),
                "seq {i}"
            );
        }
        // Only rows of more than 64 weights can pass the bound: 65
        // saturated ones keep the i64 sums, which the wide batch kernel
        // still matches.
        let mut big = LstmRegressor::new(LstmConfig {
            vocab: 4,
            hidden: 65,
            fc_hidden: 4,
            ..LstmConfig::default()
        });
        big.wh.data.iter_mut().for_each(|w| *w = 1.0e5);
        let q = QuantLstm::quantize(&big);
        assert!(q.whf.is_none());
        let seqs: Vec<Vec<usize>> = (0..16).map(|i| vec![i % 4; 1 + i % 3]).collect();
        let refs: Vec<&[usize]> = seqs.iter().map(|s| s.as_slice()).collect();
        let batched = q.predict_batch_tokens(&refs);
        for (s, b) in refs.iter().zip(&batched) {
            assert_eq!(q.predict_tokens(s).to_bits(), b.to_bits());
        }
    }

    #[test]
    fn precision_parses_renders_and_survives_serde() {
        for &p in Precision::ALL {
            assert_eq!(Precision::parse(p.as_str()), Ok(p));
            let json = to_string(&p).unwrap();
            assert_eq!(from_str::<Precision>(&json).unwrap(), p);
        }
        assert!(Precision::parse("q8").is_err());
        // Missing-field semantics: Null decodes as the legacy default.
        assert_eq!(Precision::from_value(&Value::Null).unwrap(), Precision::F64);
    }

    fn toy_lstm() -> LstmRegressor {
        let cfg = LstmConfig {
            vocab: 12,
            hidden: 10,
            fc_hidden: 8,
            outputs: 1,
            lr: 0.02,
            epochs: 40,
            clip: 5.0,
            seed: 5,
        };
        let seqs: Vec<Vec<usize>> = (0..30)
            .map(|i| (0..(3 + i % 9)).map(|j| (i + j) % 12).collect())
            .collect();
        let targets: Vec<Vec<f64>> = seqs
            .iter()
            .map(|s| vec![s.len() as f64 * 3.0 + s.iter().sum::<usize>() as f64 * 0.25])
            .collect();
        let mut m = LstmRegressor::new(cfg);
        m.fit(&seqs, &targets);
        m
    }

    #[test]
    fn quantized_lstm_tracks_f64_reference() {
        let m = toy_lstm();
        let q = QuantLstm::quantize(&m);
        for i in 0..24usize {
            let seq: Vec<usize> = (0..(1 + i % 11)).map(|j| (j * 5 + i) % 12).collect();
            let f = m.predict(&seq)[0];
            let qv = q.predict_tokens(&seq);
            assert!(
                (qv - f).abs() <= 0.5f64.max(0.02 * f.abs()),
                "seq {i}: f64 {f} vs q16 {qv}"
            );
        }
        // Empty input short-circuits identically.
        assert_eq!(q.predict_tokens(&[]), m.predict(&[])[0]);
    }

    #[test]
    fn soa_batch_is_bit_identical_to_single_lane() {
        let q = QuantLstm::quantize(&toy_lstm());
        let seqs: Vec<Vec<usize>> = (0..17)
            .map(|i| (0..(i % 7)).map(|j| (i * 3 + j) % 12).collect())
            .collect();
        let refs: Vec<&[usize]> = seqs.iter().map(|s| s.as_slice()).collect();
        let batched = q.predict_batch_tokens(&refs);
        for (i, s) in refs.iter().enumerate() {
            let single = q.predict_tokens(s);
            assert!(
                batched[i].to_bits() == single.to_bits(),
                "lane {i} diverged: batch {} vs single {single}",
                batched[i]
            );
        }
        // Trait batch entry point sees the same values.
        let inputs: Vec<RegressorInput<'_>> =
            refs.iter().map(|s| RegressorInput::Tokens(s)).collect();
        assert_eq!(Regressor::predict_batch(&q, &inputs), batched);
    }

    #[test]
    fn quantized_mlp_and_gbdt_track_f64() {
        let x: Vec<Vec<f64>> = (0..60)
            .map(|i| vec![i as f64 * 0.5, ((i * 7) % 13) as f64, (i % 3) as f64])
            .collect();
        let y: Vec<f64> = x.iter().map(|r| 1.5 * r[0] + 2.0 * r[1] - r[2]).collect();

        let mut mlp = Mlp::new(MlpConfig {
            inputs: 3,
            hidden: vec![12],
            outputs: 1,
            loss: Loss::Mse,
            lr: 0.01,
            epochs: 60,
            seed: 3,
        });
        mlp.fit(&x, &y);
        let qm = QuantMlp::quantize(&mlp);

        let gbdt = GbdtRegressor::fit(&x, &y, &GbdtConfig::default());
        let qg = QuantGbdt::quantize(&gbdt);

        for row in &x {
            let fm = mlp.predict_scalar(row);
            let fg = gbdt.predict(row);
            assert!(
                (qm.predict_features(row) - fm).abs() <= 0.5f64.max(0.02 * fm.abs()),
                "mlp drifted at {row:?}"
            );
            assert!(
                (qg.predict_features(row) - fg).abs() <= 0.5f64.max(0.02 * fg.abs()),
                "gbdt drifted at {row:?}"
            );
        }
    }
}
