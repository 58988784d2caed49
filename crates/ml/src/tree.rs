//! CART decision trees (regression and classification).
//!
//! Exact split search over all features and thresholds. These trees are
//! the building blocks for the random forest ([`crate::automl`]), the GBDT
//! ([`crate::gbdt`]), and the LambdaMART ranker ([`crate::rank`]).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use serde::{Deserialize, Error, Serialize};

/// Tree growth limits.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TreeConfig {
    /// Maximum depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples required to attempt a split.
    pub min_split: usize,
    /// Minimum samples in each child.
    pub min_leaf: usize,
}

impl Default for TreeConfig {
    fn default() -> TreeConfig {
        TreeConfig {
            max_depth: 6,
            min_split: 4,
            min_leaf: 2,
        }
    }
}

/// Finds the best (feature, threshold) split of `rows` minimizing the sum
/// of child variances (weighted). Returns `None` when no valid split exists.
fn best_split(
    x: &[Vec<f64>],
    y: &[f64],
    rows: &[usize],
    features: &[usize],
    min_leaf: usize,
) -> Option<(usize, f64, f64)> {
    let n = rows.len();
    if n < 2 * min_leaf {
        return None;
    }
    let total_sum: f64 = rows.iter().map(|&r| y[r]).sum();
    let total_sq: f64 = rows.iter().map(|&r| y[r] * y[r]).sum();
    let parent_sse = total_sq - total_sum * total_sum / n as f64;

    let mut best: Option<(usize, f64, f64)> = None; // (feat, thresh, gain)
    let mut sorted = rows.to_vec();
    for &f in features {
        sorted.sort_by(|&a, &b| x[a][f].partial_cmp(&x[b][f]).expect("finite features"));
        let mut left_sum = 0.0;
        let mut left_sq = 0.0;
        for i in 0..n - 1 {
            let r = sorted[i];
            left_sum += y[r];
            left_sq += y[r] * y[r];
            let nl = i + 1;
            let nr = n - nl;
            if nl < min_leaf || nr < min_leaf {
                continue;
            }
            let xv = x[sorted[i]][f];
            let xn = x[sorted[i + 1]][f];
            if xv == xn {
                continue; // Can't split between equal values.
            }
            let right_sum = total_sum - left_sum;
            let right_sq = total_sq - left_sq;
            let sse = (left_sq - left_sum * left_sum / nl as f64)
                + (right_sq - right_sum * right_sum / nr as f64);
            let gain = parent_sse - sse;
            if gain > 1e-12 && best.is_none_or(|(_, _, g)| gain > g) {
                best = Some((f, (xv + xn) / 2.0, gain));
            }
        }
    }
    best
}

#[allow(clippy::too_many_arguments)]
fn grow(
    out: &mut RegressionTree,
    x: &[Vec<f64>],
    y: &[f64],
    rows: &[usize],
    cfg: &TreeConfig,
    depth: usize,
    feature_pool: &[usize],
    n_feats: usize,
    rng: &mut Option<&mut StdRng>,
) {
    let mean = rows.iter().map(|&r| y[r]).sum::<f64>() / rows.len().max(1) as f64;
    if depth >= cfg.max_depth || rows.len() < cfg.min_split {
        return out.push(0, mean, 0);
    }
    // Feature subsampling (for forests); deterministic full set otherwise.
    let chosen: Vec<usize> = match rng {
        Some(rng) if n_feats < feature_pool.len() => {
            let mut pool = feature_pool.to_vec();
            pool.shuffle(rng);
            pool.truncate(n_feats);
            pool
        }
        _ => feature_pool.to_vec(),
    };
    let Some((feat, thresh, _)) = best_split(x, y, rows, &chosen, cfg.min_leaf) else {
        return out.push(0, mean, 0);
    };
    let (l, r): (Vec<usize>, Vec<usize>) = rows.iter().partition(|&&row| x[row][feat] <= thresh);
    if l.is_empty() || r.is_empty() {
        return out.push(0, mean, 0);
    }
    // Preorder: the split, its left subtree, then its right subtree.
    // Forest feature subsampling draws from the RNG in this order.
    let at = out.value.len();
    out.push(feat, thresh, 0);
    grow(out, x, y, &l, cfg, depth + 1, feature_pool, n_feats, rng);
    out.right[at] = out.value.len();
    grow(out, x, y, &r, cfg, depth + 1, feature_pool, n_feats, rng);
}

/// A CART regression tree (variance-reduction splits, mean leaves),
/// stored as three preorder arrays:
///
/// - node `i`'s left child is node `i + 1`;
/// - `right[i]` is its right child, and `right[i] == 0` marks a leaf (no
///   node's right child is the root);
/// - `value[i]` is a split's threshold (`x[feat[i]] <= value[i]` goes
///   left) or a leaf's prediction; a leaf's `feat` is unused.
///
/// Serialized as the three arrays. Decoding checks that they are equal in
/// length and that every right child lies in `(i + 1, len)`, so every
/// walk moves forward and ends on a leaf inside the arrays.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(validate = "RegressionTree::validate")]
pub struct RegressionTree {
    pub(crate) feat: Vec<usize>,
    pub(crate) value: Vec<f64>,
    pub(crate) right: Vec<usize>,
}

impl RegressionTree {
    /// The decoding check: equal non-empty arrays, every right child
    /// ahead of its split and inside the arrays.
    fn validate(&self) -> Result<(), Error> {
        let n = self.value.len();
        if n == 0 || self.feat.len() != n || self.right.len() != n {
            return Err(Error(format!(
                "tree arrays must be non-empty and equal in length (feat {}, value {n}, right {})",
                self.feat.len(),
                self.right.len()
            )));
        }
        for (i, &r) in self.right.iter().enumerate() {
            if r != 0 && (r <= i + 1 || r >= n) {
                return Err(Error(format!(
                    "tree node {i}: right child {r} outside ({}, {n})",
                    i + 1
                )));
            }
        }
        Ok(())
    }

    /// Fits a tree on the full dataset.
    ///
    /// # Panics
    ///
    /// Panics if `x` is empty or `x.len() != y.len()`.
    pub fn fit(x: &[Vec<f64>], y: &[f64], cfg: &TreeConfig) -> RegressionTree {
        Self::fit_rows(x, y, &(0..x.len()).collect::<Vec<_>>(), cfg, None, 0)
    }

    /// Fits a tree on a row subset with optional feature subsampling
    /// (`n_feats` features considered per split when `rng` is provided).
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty.
    pub fn fit_rows(
        x: &[Vec<f64>],
        y: &[f64],
        rows: &[usize],
        cfg: &TreeConfig,
        mut rng: Option<&mut StdRng>,
        n_feats: usize,
    ) -> RegressionTree {
        assert!(!rows.is_empty(), "empty training rows");
        assert_eq!(x.len(), y.len(), "x/y mismatch");
        let d = x[rows[0]].len();
        let pool: Vec<usize> = (0..d).collect();
        let nf = if n_feats == 0 { d } else { n_feats.min(d) };
        let mut t = RegressionTree {
            feat: Vec::new(),
            value: Vec::new(),
            right: Vec::new(),
        };
        grow(&mut t, x, y, rows, cfg, 0, &pool, nf, &mut rng);
        t
    }

    fn push(&mut self, feat: usize, value: f64, right: usize) {
        self.feat.push(feat);
        self.value.push(value);
        self.right.push(right);
    }

    /// Predicts for one row.
    ///
    /// # Panics
    ///
    /// Panics if a split on the walk tests a feature `x` does not have.
    pub fn predict(&self, x: &[f64]) -> f64 {
        let mut i = 0;
        while self.right[i] != 0 {
            i = if x[self.feat[i]] <= self.value[i] {
                i + 1
            } else {
                self.right[i]
            };
        }
        self.value[i]
    }

    /// Actual depth of the grown tree (a lone leaf has depth 0).
    pub fn depth(&self) -> usize {
        // Children follow their parent, so a backward pass has both
        // children's depths before it reaches the parent.
        let mut d = vec![0usize; self.value.len()];
        for i in (0..d.len()).rev() {
            if self.right[i] != 0 {
                d[i] = 1 + d[i + 1].max(d[self.right[i]]);
            }
        }
        d[0]
    }

    /// The narrowest input this tree can evaluate: one past its largest
    /// split feature (0 for a lone leaf).
    pub fn n_features(&self) -> usize {
        (0..self.value.len())
            .filter(|&i| self.right[i] != 0)
            .map(|i| self.feat[i] + 1)
            .max()
            .unwrap_or(0)
    }
}

/// A CART classifier built as one regression tree per class on one-hot
/// targets (equivalent to gini-style probability estimation at the leaves).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClassificationTree {
    trees: Vec<RegressionTree>,
}

impl ClassificationTree {
    /// Fits on class labels `0..n_classes`.
    ///
    /// # Panics
    ///
    /// Panics if inputs are empty or labels exceed `n_classes`.
    pub fn fit(
        x: &[Vec<f64>],
        labels: &[usize],
        n_classes: usize,
        cfg: &TreeConfig,
    ) -> ClassificationTree {
        assert!(!x.is_empty(), "empty training set");
        assert!(labels.iter().all(|&l| l < n_classes), "label out of range");
        let trees = (0..n_classes)
            .map(|c| {
                let y: Vec<f64> = labels
                    .iter()
                    .map(|&l| if l == c { 1.0 } else { 0.0 })
                    .collect();
                RegressionTree::fit(x, &y, cfg)
            })
            .collect();
        ClassificationTree { trees }
    }

    /// Per-class scores (leaf probabilities).
    pub fn scores(&self, x: &[f64]) -> Vec<f64> {
        self.trees.iter().map(|t| t.predict(x)).collect()
    }

    /// Predicted class (argmax of scores).
    pub fn classify(&self, x: &[f64]) -> usize {
        crate::mlp::argmax(&self.scores(x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_a_step_function_exactly() {
        let x: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..40).map(|i| if i < 20 { 1.0 } else { 5.0 }).collect();
        let t = RegressionTree::fit(&x, &y, &TreeConfig::default());
        assert_eq!(t.predict(&[3.0]), 1.0);
        assert_eq!(t.predict(&[33.0]), 5.0);
    }

    #[test]
    fn respects_max_depth() {
        let x: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let t = RegressionTree::fit(
            &x,
            &y,
            &TreeConfig {
                max_depth: 2,
                min_split: 2,
                min_leaf: 1,
            },
        );
        assert!(t.depth() <= 2);
    }

    #[test]
    fn pure_leaf_short_circuits() {
        let x = vec![vec![1.0], vec![2.0], vec![3.0]];
        let y = vec![7.0, 7.0, 7.0];
        let t = RegressionTree::fit(&x, &y, &TreeConfig::default());
        assert_eq!(t.depth(), 0);
        assert_eq!(t.predict(&[100.0]), 7.0);
    }

    #[test]
    fn flat_tree_round_trips_through_serde() {
        let x: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64, (i % 7) as f64]).collect();
        let y: Vec<f64> = x.iter().map(|r| 0.5 * r[0] + r[1]).collect();
        let t = RegressionTree::fit(&x, &y, &TreeConfig::default());
        let json = serde_json::to_string(&t).unwrap();
        assert!(json.starts_with("{\"feat\":["), "three flat arrays: {json}");
        let back: RegressionTree = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
        for row in &x {
            assert_eq!(back.predict(row).to_bits(), t.predict(row).to_bits());
        }
    }

    #[test]
    fn hand_built_tree_walks_and_measures_depth() {
        // x0 <= 1 ? (x1 <= 2 ? 10 : 20) : 30, in preorder.
        let t = RegressionTree {
            feat: vec![0, 1, 0, 0, 0],
            value: vec![1.0, 2.0, 10.0, 20.0, 30.0],
            right: vec![4, 3, 0, 0, 0],
        };
        assert_eq!(t.depth(), 2);
        assert_eq!(t.n_features(), 2);
        assert_eq!(t.predict(&[0.0, 0.0]), 10.0);
        assert_eq!(t.predict(&[0.0, 5.0]), 20.0);
        assert_eq!(t.predict(&[3.0, 0.0]), 30.0);
    }

    #[test]
    fn decoding_rejects_arrays_a_walk_could_leave() {
        let decode = |feat: &str, right: &str, value: &str| {
            serde_json::from_str::<RegressionTree>(&format!(
                "{{\"feat\":{feat},\"value\":{value},\"right\":{right}}}"
            ))
        };
        let three = "[1.0,2.0,3.0]";
        assert!(decode("[0,0,0]", "[2,0,0]", three).is_ok());
        for (feat, right, value) in [
            ("[]", "[]", "[]"),                              // no root
            ("[0,0]", "[2,0,0]", three),                     // unequal arrays
            ("[0,0,0]", "[1,0,0]", three),                   // right child is the left child
            ("[0,0,0]", "[3,0,0]", three),                   // one past the end
            ("[0,0,0]", "[2,0,2]", three),                   // points at itself
            ("[0,0,0,0]", "[3,0,0,1]", "[1.0,2.0,3.0,4.0]"), // points backwards
        ] {
            assert!(
                decode(feat, right, value).is_err(),
                "feat {feat} right {right} value {value} must be rejected"
            );
        }
    }

    #[test]
    fn classifies_axis_aligned_regions() {
        let mut x = Vec::new();
        let mut labels = Vec::new();
        for i in 0..10 {
            for j in 0..10 {
                x.push(vec![i as f64, j as f64]);
                labels.push(usize::from(i >= 5) * 2 + usize::from(j >= 5));
            }
        }
        let t = ClassificationTree::fit(&x, &labels, 4, &TreeConfig::default());
        assert_eq!(t.classify(&[2.0, 2.0]), 0);
        assert_eq!(t.classify(&[2.0, 8.0]), 1);
        assert_eq!(t.classify(&[8.0, 2.0]), 2);
        assert_eq!(t.classify(&[8.0, 8.0]), 3);
    }

    #[test]
    fn constant_feature_yields_leaf() {
        let x = vec![vec![1.0], vec![1.0], vec![1.0], vec![1.0]];
        let y = vec![0.0, 1.0, 0.0, 1.0];
        let t = RegressionTree::fit(&x, &y, &TreeConfig::default());
        assert_eq!(t.depth(), 0);
        assert_eq!(t.predict(&[1.0]), 0.5);
    }
}
