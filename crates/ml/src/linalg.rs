//! Minimal dense linear algebra used by the neural models.

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Error, Serialize};

/// A dense row-major `f64` matrix.
///
/// Decoding checks `data.len() == rows * cols`, so every accessor below
/// stays inside `data` for a decoded matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(validate = "Matrix::validate")]
pub struct Matrix {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Row-major storage (`data[r * cols + c]`).
    pub data: Vec<f64>,
}

impl Matrix {
    /// The decoding check: `data` holds exactly `rows * cols` values.
    fn validate(&self) -> Result<(), Error> {
        if self.rows.checked_mul(self.cols) == Some(self.data.len()) {
            return Ok(());
        }
        Err(Error(format!(
            "{}x{} matrix holds {} values",
            self.rows,
            self.cols,
            self.data.len()
        )))
    }

    /// A zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// A matrix with entries drawn uniformly from `[-scale, scale]`.
    pub fn uniform(rows: usize, cols: usize, scale: f64, rng: &mut StdRng) -> Matrix {
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-scale..=scale))
            .collect();
        Matrix { rows, cols, data }
    }

    /// Xavier/Glorot-style initialization for a `rows x cols` weight.
    pub fn xavier(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
        let scale = (6.0 / (rows + cols) as f64).sqrt();
        Matrix::uniform(rows, cols, scale, rng)
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Mutable element accessor.
    #[inline]
    pub fn get_mut(&mut self, r: usize, c: usize) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }

    /// A view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// A mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `y = self * x` for a column vector `x` (length = `cols`).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// [`Matrix::matvec`] into a caller-owned `y` (length = `rows`).
    ///
    /// Rows are summed four at a time, so one pass over `x` feeds four
    /// independent sums. Each row is still summed left to right starting
    /// from −0.0, as `Iterator::sum` does, so every entry equals the
    /// per-row `sum()` bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols` or `y.len() != self.rows`.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        let cols = self.cols;
        assert_eq!(x.len(), cols, "matvec dimension mismatch");
        assert_eq!(y.len(), self.rows, "matvec output mismatch");
        if cols == 0 {
            y.fill(-0.0);
            return;
        }
        let mut blocks = self.data.chunks_exact(4 * cols);
        let mut outs = y.chunks_exact_mut(4);
        for (rows, out) in (&mut blocks).zip(&mut outs) {
            let (r0, rest) = rows.split_at(cols);
            let (r1, rest) = rest.split_at(cols);
            let (r2, r3) = rest.split_at(cols);
            let mut acc = [-0.0f64; 4];
            for c in 0..cols {
                acc[0] += r0[c] * x[c];
                acc[1] += r1[c] * x[c];
                acc[2] += r2[c] * x[c];
                acc[3] += r3[c] * x[c];
            }
            out.copy_from_slice(&acc);
        }
        for (row, out) in blocks
            .remainder()
            .chunks_exact(cols)
            .zip(outs.into_remainder())
        {
            *out = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
    }

    /// `y += self^T * g` — accumulate the transpose-matvec into `y`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions mismatch.
    pub fn add_tmatvec(&self, g: &[f64], y: &mut [f64]) {
        assert_eq!(g.len(), self.rows, "tmatvec rows mismatch");
        assert_eq!(y.len(), self.cols, "tmatvec cols mismatch");
        for (r, &gr) in g.iter().enumerate() {
            if gr == 0.0 {
                continue;
            }
            let row = self.row(r);
            for (yc, &rc) in y.iter_mut().zip(row.iter()) {
                *yc += gr * rc;
            }
        }
    }

    /// Rank-1 update: `self += scale * g * x^T`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions mismatch.
    pub fn add_outer(&mut self, g: &[f64], x: &[f64], scale: f64) {
        assert_eq!(g.len(), self.rows, "outer rows mismatch");
        assert_eq!(x.len(), self.cols, "outer cols mismatch");
        for (r, &graw) in g.iter().enumerate() {
            let gr = graw * scale;
            if gr == 0.0 {
                continue;
            }
            let row = self.row_mut(r);
            for (rc, &xc) in row.iter_mut().zip(x.iter()) {
                *rc += gr * xc;
            }
        }
    }

    /// Sets every entry to zero (reusing storage).
    pub fn clear(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }
}

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// Euclidean (L2) norm.
pub fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// `a += scale * b`.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn axpy(a: &mut [f64], b: &[f64], scale: f64) {
    assert_eq!(a.len(), b.len(), "axpy length mismatch");
    for (x, y) in a.iter_mut().zip(b.iter()) {
        *x += scale * y;
    }
}

/// Numerically stable logistic sigmoid.
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// An Adam optimizer state for one parameter tensor.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Adam {
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
    /// Learning rate.
    pub lr: f64,
}

impl Adam {
    /// Creates optimizer state for a parameter of `n` scalars.
    pub fn new(n: usize, lr: f64) -> Adam {
        Adam {
            m: vec![0.0; n],
            v: vec![0.0; n],
            t: 0,
            lr,
        }
    }

    /// Applies one Adam step: `param -= lr * mhat / (sqrt(vhat) + eps)`.
    ///
    /// # Panics
    ///
    /// Panics if `param`/`grad` lengths differ from the state size.
    pub fn step(&mut self, param: &mut [f64], grad: &[f64]) {
        assert_eq!(param.len(), self.m.len(), "adam param size mismatch");
        assert_eq!(grad.len(), self.m.len(), "adam grad size mismatch");
        const B1: f64 = 0.9;
        const B2: f64 = 0.999;
        const EPS: f64 = 1e-8;
        self.t += 1;
        let bc1 = 1.0 - B1.powi(self.t as i32);
        let bc2 = 1.0 - B2.powi(self.t as i32);
        let lr = self.lr;
        // One zipped pass with no indexing, so the loop vectorizes; the
        // per-element expression is unchanged.
        for (((p, &g), m), v) in param
            .iter_mut()
            .zip(grad)
            .zip(self.m.iter_mut())
            .zip(self.v.iter_mut())
        {
            *m = B1 * *m + (1.0 - B1) * g;
            *v = B2 * *v + (1.0 - B2) * g * g;
            let mhat = *m / bc1;
            let vhat = *v / bc2;
            *p -= lr * mhat / (vhat.sqrt() + EPS);
        }
    }
}

/// Clips a gradient vector to a maximum L2 norm (returns the pre-clip norm).
pub fn clip_grad(grad: &mut [f64], max_norm: f64) -> f64 {
    let n = norm(grad);
    if n > max_norm && n > 0.0 {
        let s = max_norm / n;
        grad.iter_mut().for_each(|g| *g *= s);
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn matvec_and_tmatvec_agree_with_manual() {
        let m = Matrix {
            rows: 2,
            cols: 3,
            data: vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        };
        assert_eq!(m.matvec(&[1.0, 0.0, -1.0]), vec![-2.0, -2.0]);
        let mut y = vec![0.0; 3];
        m.add_tmatvec(&[1.0, 1.0], &mut y);
        assert_eq!(y, vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn blocked_matvec_equals_per_row_sum_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(5);
        // Signed zeros decide the sign of an all-zero sum, which is where
        // a wrong starting value (+0.0 instead of −0.0) would show.
        let pick = |rng: &mut StdRng| match rng.gen_range(0..5) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(-3.0..3.0),
        };
        for rows in (1..=9).chain([112]) {
            for cols in [1, 3, 28] {
                let m = Matrix {
                    rows,
                    cols,
                    data: (0..rows * cols).map(|_| pick(&mut rng)).collect(),
                };
                let mut xs = vec![vec![0.0; cols], vec![-0.0; cols]];
                xs.push((0..cols).map(|_| pick(&mut rng)).collect());
                for x in &xs {
                    let want: Vec<u64> = (0..rows)
                        .map(|r| {
                            let s: f64 = m.row(r).iter().zip(x).map(|(a, b)| a * b).sum();
                            s.to_bits()
                        })
                        .collect();
                    let got: Vec<u64> = m.matvec(x).iter().map(|v| v.to_bits()).collect();
                    assert_eq!(got, want, "{rows}x{cols} matvec of {x:?}");
                }
            }
        }
        // No columns: every entry is the empty sum.
        let empty = Matrix::zeros(3, 0);
        let want = [0.0f64; 0].iter().sum::<f64>().to_bits();
        assert!(empty.matvec(&[]).iter().all(|v| v.to_bits() == want));
    }

    #[test]
    fn outer_update() {
        let mut m = Matrix::zeros(2, 2);
        m.add_outer(&[1.0, 2.0], &[3.0, 4.0], 0.5);
        assert_eq!(m.data, vec![1.5, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn adam_descends_a_quadratic() {
        // Minimize f(x) = (x-3)^2 starting from 0.
        let mut x = vec![0.0];
        let mut opt = Adam::new(1, 0.1);
        for _ in 0..500 {
            let g = vec![2.0 * (x[0] - 3.0)];
            opt.step(&mut x, &g);
        }
        assert!((x[0] - 3.0).abs() < 0.01, "x={}", x[0]);
    }

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        assert!((sigmoid(1000.0) - 1.0).abs() < 1e-12);
        assert!(sigmoid(-1000.0).abs() < 1e-12);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn clip_scales_down_large_gradients() {
        let mut g = vec![3.0, 4.0]; // norm 5
        let pre = clip_grad(&mut g, 1.0);
        assert_eq!(pre, 5.0);
        assert!((norm(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn xavier_is_seeded_deterministic() {
        let mut r1 = StdRng::seed_from_u64(1);
        let mut r2 = StdRng::seed_from_u64(1);
        assert_eq!(Matrix::xavier(3, 3, &mut r1), Matrix::xavier(3, 3, &mut r2));
    }
}
