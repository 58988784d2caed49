//! Gradient-boosted decision trees (regression and classification).
//!
//! Clara uses GBDT for multicore scale-out prediction (Section 4.2) and as
//! a baseline classifier for algorithm identification (Figure 9). The
//! ranking variant lives in [`crate::rank`].

use serde::{Deserialize, Serialize};

use crate::linalg::sigmoid;
use crate::tree::{RegressionTree, TreeConfig};

/// Hyperparameters for gradient boosting.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct GbdtConfig {
    /// Number of boosting rounds (trees).
    pub rounds: usize,
    /// Shrinkage (learning rate) applied to each tree.
    pub shrinkage: f64,
    /// Per-tree growth limits.
    pub tree: TreeConfig,
}

impl Default for GbdtConfig {
    fn default() -> GbdtConfig {
        GbdtConfig {
            rounds: 80,
            shrinkage: 0.1,
            tree: TreeConfig {
                max_depth: 4,
                min_split: 4,
                min_leaf: 2,
            },
        }
    }
}

/// GBDT for squared-error regression.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GbdtRegressor {
    pub(crate) base: f64,
    pub(crate) shrinkage: f64,
    pub(crate) trees: Vec<RegressionTree>,
}

impl GbdtRegressor {
    /// Fits on `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics on empty input or length mismatch.
    pub fn fit(x: &[Vec<f64>], y: &[f64], cfg: &GbdtConfig) -> GbdtRegressor {
        assert_eq!(x.len(), y.len(), "x/y mismatch");
        assert!(!x.is_empty(), "empty training set");
        let base = y.iter().sum::<f64>() / y.len() as f64;
        let mut pred = vec![base; y.len()];
        let mut trees = Vec::with_capacity(cfg.rounds);
        let _fit_span = clara_obs::span!("gbdt-fit", "rows={} rounds={}", x.len(), cfg.rounds);
        let rounds_ctr = clara_obs::counter("ml.gbdt.rounds");
        for _ in 0..cfg.rounds {
            rounds_ctr.incr();
            let resid: Vec<f64> = y.iter().zip(pred.iter()).map(|(t, p)| t - p).collect();
            let tree = RegressionTree::fit(x, &resid, &cfg.tree);
            for (p, xi) in pred.iter_mut().zip(x.iter()) {
                *p += cfg.shrinkage * tree.predict(xi);
            }
            trees.push(tree);
        }
        GbdtRegressor {
            base,
            shrinkage: cfg.shrinkage,
            trees,
        }
    }

    /// Predicts for one row.
    pub fn predict(&self, x: &[f64]) -> f64 {
        self.base + self.shrinkage * self.trees.iter().map(|t| t.predict(x)).sum::<f64>()
    }

    /// The narrowest input the ensemble can evaluate: one past the
    /// largest feature any of its splits tests.
    pub fn n_features(&self) -> usize {
        self.trees
            .iter()
            .map(RegressionTree::n_features)
            .max()
            .unwrap_or(0)
    }

    /// Number of fitted trees.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// True when no trees were fitted.
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }
}

/// GBDT multi-class classifier (one-vs-rest logistic boosting).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GbdtClassifier {
    per_class: Vec<GbdtBinary>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct GbdtBinary {
    base: f64,
    shrinkage: f64,
    trees: Vec<RegressionTree>,
}

impl GbdtBinary {
    fn fit(x: &[Vec<f64>], targets: &[f64], cfg: &GbdtConfig) -> GbdtBinary {
        // Logistic loss: F starts at log-odds; each round fits the
        // negative gradient (residual of probability).
        let pos = targets.iter().sum::<f64>();
        let n = targets.len() as f64;
        let p0 = (pos / n).clamp(1e-6, 1.0 - 1e-6);
        let base = (p0 / (1.0 - p0)).ln();
        let mut f = vec![base; targets.len()];
        let mut trees = Vec::with_capacity(cfg.rounds);
        for _ in 0..cfg.rounds {
            let grad: Vec<f64> = targets
                .iter()
                .zip(f.iter())
                .map(|(t, fi)| t - sigmoid(*fi))
                .collect();
            let tree = RegressionTree::fit(x, &grad, &cfg.tree);
            for (fi, xi) in f.iter_mut().zip(x.iter()) {
                *fi += cfg.shrinkage * tree.predict(xi);
            }
            trees.push(tree);
        }
        GbdtBinary {
            base,
            shrinkage: cfg.shrinkage,
            trees,
        }
    }

    fn score(&self, x: &[f64]) -> f64 {
        self.base + self.shrinkage * self.trees.iter().map(|t| t.predict(x)).sum::<f64>()
    }
}

impl GbdtClassifier {
    /// Fits on labels `0..n_classes`.
    ///
    /// # Panics
    ///
    /// Panics on empty input or out-of-range labels.
    pub fn fit(
        x: &[Vec<f64>],
        labels: &[usize],
        n_classes: usize,
        cfg: &GbdtConfig,
    ) -> GbdtClassifier {
        assert!(!x.is_empty(), "empty training set");
        assert!(labels.iter().all(|&l| l < n_classes), "label out of range");
        let per_class = (0..n_classes)
            .map(|c| {
                let t: Vec<f64> = labels
                    .iter()
                    .map(|&l| if l == c { 1.0 } else { 0.0 })
                    .collect();
                GbdtBinary::fit(x, &t, cfg)
            })
            .collect();
        GbdtClassifier { per_class }
    }

    /// Per-class logit scores.
    pub fn scores(&self, x: &[f64]) -> Vec<f64> {
        self.per_class.iter().map(|b| b.score(x)).collect()
    }

    /// Predicted class.
    pub fn classify(&self, x: &[f64]) -> usize {
        crate::mlp::argmax(&self.scores(x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn regressor_beats_single_tree_on_smooth_target() {
        let mut rng = StdRng::seed_from_u64(2);
        let x: Vec<Vec<f64>> = (0..300)
            .map(|_| vec![rng.gen_range(0.0..6.3), rng.gen_range(0.0..6.3)])
            .collect();
        let y: Vec<f64> = x.iter().map(|r| r[0].sin() + 0.5 * r[1].cos()).collect();

        let gbdt = GbdtRegressor::fit(&x, &y, &GbdtConfig::default());
        let single = crate::tree::RegressionTree::fit(
            &x,
            &y,
            &TreeConfig {
                max_depth: 4,
                min_split: 4,
                min_leaf: 2,
            },
        );
        let g_err =
            crate::metrics::rmse(&y, &x.iter().map(|r| gbdt.predict(r)).collect::<Vec<_>>());
        let s_err =
            crate::metrics::rmse(&y, &x.iter().map(|r| single.predict(r)).collect::<Vec<_>>());
        assert!(g_err < s_err, "gbdt {g_err:.4} vs tree {s_err:.4}");
        assert!(g_err < 0.15, "gbdt rmse {g_err:.4}");
    }

    #[test]
    fn classifier_separates_clusters() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut x = Vec::new();
        let mut labels = Vec::new();
        for c in 0..3usize {
            let cx = c as f64 * 4.0;
            for _ in 0..40 {
                x.push(vec![
                    cx + rng.gen_range(-1.0..1.0),
                    -cx + rng.gen_range(-1.0..1.0),
                ]);
                labels.push(c);
            }
        }
        let m = GbdtClassifier::fit(&x, &labels, 3, &GbdtConfig::default());
        let preds: Vec<usize> = x.iter().map(|r| m.classify(r)).collect();
        let acc = crate::metrics::accuracy(&labels, &preds);
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn constant_target_predicts_constant() {
        let x = vec![vec![1.0], vec![2.0], vec![3.0]];
        let y = vec![4.0, 4.0, 4.0];
        let m = GbdtRegressor::fit(&x, &y, &GbdtConfig::default());
        assert!((m.predict(&[9.0]) - 4.0).abs() < 1e-9);
    }
}
