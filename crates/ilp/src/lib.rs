//! Exact solver for capacitated assignment ILPs.
//!
//! Clara's NF state placement (Section 4.3 of the paper) is an integer
//! linear program: place each stateful data structure `i` (size `s_i`,
//! access frequency `f_i`) into one memory level `j` (latency `L_j`,
//! capacity `C_j`), minimizing `Σ L_j · p_ij · f_i` subject to each
//! structure being placed exactly once and capacities being respected.
//!
//! With costs `c_ij = L_j · f_i` this is a *generalized assignment
//! problem*. Instances are tiny (an NF has a handful of data structures
//! and a NIC has four memory levels), so this crate solves them exactly by
//! depth-first branch and bound with an admissible lower bound; "ILP
//! solving finishes within a few seconds in all cases" (paper Section 5.5)
//! — here, microseconds.
//!
//! The canonical entry points are [`AssignmentProblem::solve_within`]
//! (exact, with a node budget so a pathological instance surfaces as a
//! typed solver-timeout instead of a hang) and
//! [`AssignmentProblem::solve_greedy`] (the cheapest-fitting-bin
//! heuristic the exact solver seeds itself with, exposed so callers can
//! difftest plans against the fallback).
//!
//! # Examples
//!
//! ```
//! use ilp_solver::AssignmentProblem;
//!
//! // Two items, one cheap bin that only fits one of them.
//! let p = AssignmentProblem {
//!     costs: vec![vec![1.0, 10.0], vec![2.0, 10.0]],
//!     sizes: vec![6, 6],
//!     caps: vec![8, 100],
//! };
//! let sol = p.solve_within(1 << 20).unwrap().expect("feasible");
//! assert_eq!(sol.cost, 11.0); // item 0 in cheap bin, item 1 overflowed
//! ```

use std::fmt;

/// A capacitated assignment problem instance.
#[derive(Debug, Clone, PartialEq)]
pub struct AssignmentProblem {
    /// `costs[i][j]`: cost of placing item `i` at location `j`.
    /// Use `f64::INFINITY` to forbid a placement.
    pub costs: Vec<Vec<f64>>,
    /// Item sizes.
    pub sizes: Vec<u64>,
    /// Location capacities.
    pub caps: Vec<u64>,
}

/// A feasible assignment and its total cost.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// `assignment[i]` = location chosen for item `i`.
    pub assignment: Vec<usize>,
    /// Total cost of the assignment.
    pub cost: f64,
}

/// Errors for malformed instances or an exhausted search budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IlpError {
    /// `costs` rows have inconsistent lengths or mismatch `caps`.
    ShapeMismatch,
    /// `sizes.len() != costs.len()`.
    SizeMismatch,
    /// The branch-and-bound search exceeded its node budget before
    /// proving optimality (the placement layer reports this as a solver
    /// timeout).
    BudgetExhausted {
        /// The node budget that was exceeded.
        budget: u64,
    },
}

impl fmt::Display for IlpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IlpError::ShapeMismatch => write!(f, "cost matrix shape mismatch"),
            IlpError::SizeMismatch => write!(f, "sizes length mismatch"),
            IlpError::BudgetExhausted { budget } => {
                write!(f, "search budget of {budget} nodes exhausted")
            }
        }
    }
}

impl std::error::Error for IlpError {}

impl AssignmentProblem {
    /// Validates the instance shape.
    pub fn validate(&self) -> Result<(), IlpError> {
        if self.sizes.len() != self.costs.len() {
            return Err(IlpError::SizeMismatch);
        }
        if self.costs.iter().any(|row| row.len() != self.caps.len()) {
            return Err(IlpError::ShapeMismatch);
        }
        Ok(())
    }

    /// Number of items.
    pub fn items(&self) -> usize {
        self.sizes.len()
    }

    /// Number of locations.
    pub fn locations(&self) -> usize {
        self.caps.len()
    }

    /// Solves the instance exactly; `Ok(None)` when infeasible.
    ///
    /// The depth-first search visits at most `node_budget` nodes; if the
    /// budget runs out before the search completes, the instance is
    /// reported as [`IlpError::BudgetExhausted`] rather than returning a
    /// possibly suboptimal incumbent. Malformed instances return the
    /// corresponding [`IlpError`] instead of panicking.
    pub fn solve_within(&self, node_budget: u64) -> Result<Option<Solution>, IlpError> {
        self.validate()?;
        let n = self.items();
        if n == 0 {
            return Ok(Some(Solution {
                assignment: Vec::new(),
                cost: 0.0,
            }));
        }

        // Branch on items in decreasing size order (fail fast on capacity).
        let order = branch_order(self);

        // Admissible per-item lower bounds: cheapest location that could
        // fit the item alone.
        let min_cost: Vec<f64> = (0..n)
            .map(|i| {
                (0..self.locations())
                    .filter(|&j| self.sizes[i] <= self.caps[j])
                    .map(|j| self.costs[i][j])
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        if min_cost.iter().any(|c| c.is_infinite()) {
            return Ok(None); // Some item fits nowhere.
        }
        // Suffix bounds over the branching order.
        let mut suffix = vec![0.0; n + 1];
        for k in (0..n).rev() {
            suffix[k] = suffix[k + 1] + min_cost[order[k]];
        }

        let mut best: Option<Solution> = greedy(self, &order);
        let mut search = Search {
            p: self,
            order: &order,
            suffix: &suffix,
            remaining: self.caps.clone(),
            assign: vec![usize::MAX; n],
            best,
            budget: node_budget,
            nodes: 0,
        };
        let completed = search.branch(0, 0.0);
        best = search.best;
        if completed {
            Ok(best)
        } else {
            Err(IlpError::BudgetExhausted {
                budget: node_budget,
            })
        }
    }

    /// The greedy fallback: items in decreasing size order, each into the
    /// cheapest location it still fits in. `Ok(None)` when the heuristic
    /// strands an item (the exact solver may still find a feasible
    /// assignment). Never worse than [`AssignmentProblem::solve_within`]
    /// on feasibility-agreeing instances, and never better on cost.
    pub fn solve_greedy(&self) -> Result<Option<Solution>, IlpError> {
        self.validate()?;
        Ok(greedy(self, &branch_order(self)))
    }

    /// Brute-force optimum (for testing; exponential in items).
    pub fn brute_force(&self) -> Option<Solution> {
        self.validate().expect("malformed assignment problem");
        let n = self.items();
        let t = self.locations();
        if n == 0 {
            return Some(Solution {
                assignment: Vec::new(),
                cost: 0.0,
            });
        }
        let mut best: Option<Solution> = None;
        let mut assign = vec![0usize; n];
        loop {
            // Evaluate.
            let mut used = vec![0u64; t];
            let mut cost = 0.0;
            let mut ok = true;
            for i in 0..n {
                used[assign[i]] += self.sizes[i];
                cost += self.costs[i][assign[i]];
            }
            for (u, c) in used.iter().zip(self.caps.iter()) {
                if u > c {
                    ok = false;
                }
            }
            if ok && cost.is_finite() && best.as_ref().is_none_or(|b| cost < b.cost) {
                best = Some(Solution {
                    assignment: assign.clone(),
                    cost,
                });
            }
            // Next combination (odometer).
            let mut k = 0;
            loop {
                if k == n {
                    return best;
                }
                assign[k] += 1;
                if assign[k] < t {
                    break;
                }
                assign[k] = 0;
                k += 1;
            }
        }
    }
}

/// Items in decreasing size order: both the branching order and the
/// greedy packing order, so the two strategies explore the same sequence.
fn branch_order(p: &AssignmentProblem) -> Vec<usize> {
    let mut order: Vec<usize> = (0..p.items()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(p.sizes[i]));
    order
}

fn greedy(p: &AssignmentProblem, order: &[usize]) -> Option<Solution> {
    let mut remaining = p.caps.clone();
    let mut assign = vec![usize::MAX; p.items()];
    let mut cost = 0.0;
    for &i in order {
        let mut best_j: Option<usize> = None;
        for (j, rem) in remaining.iter().enumerate() {
            if p.sizes[i] <= *rem
                && p.costs[i][j].is_finite()
                && best_j.is_none_or(|bj| p.costs[i][j] < p.costs[i][bj])
            {
                best_j = Some(j);
            }
        }
        let j = best_j?;
        assign[i] = j;
        remaining[j] -= p.sizes[i];
        cost += p.costs[i][j];
    }
    Some(Solution {
        assignment: assign,
        cost,
    })
}

struct Search<'a> {
    p: &'a AssignmentProblem,
    order: &'a [usize],
    suffix: &'a [f64],
    remaining: Vec<u64>,
    assign: Vec<usize>,
    best: Option<Solution>,
    budget: u64,
    nodes: u64,
}

impl Search<'_> {
    /// Returns `false` when the node budget ran out (search incomplete).
    fn branch(&mut self, depth: usize, cost: f64) -> bool {
        self.nodes += 1;
        if self.nodes > self.budget {
            return false;
        }
        if let Some(b) = &self.best {
            if cost + self.suffix[depth] >= b.cost - 1e-12 {
                return true; // Bound.
            }
        }
        if depth == self.order.len() {
            if self.best.as_ref().is_none_or(|b| cost < b.cost) {
                self.best = Some(Solution {
                    assignment: self.assign.clone(),
                    cost,
                });
            }
            return true;
        }
        let i = self.order[depth];
        // Try locations cheapest-first for this item.
        let mut locs: Vec<usize> = (0..self.p.locations())
            .filter(|&j| self.p.sizes[i] <= self.remaining[j] && self.p.costs[i][j].is_finite())
            .collect();
        locs.sort_by(|&a, &b| {
            self.p.costs[i][a]
                .partial_cmp(&self.p.costs[i][b])
                .expect("finite costs")
        });
        for j in locs {
            self.assign[i] = j;
            self.remaining[j] -= self.p.sizes[i];
            let ok = self.branch(depth + 1, cost + self.p.costs[i][j]);
            self.remaining[j] += self.p.sizes[i];
            self.assign[i] = usize::MAX;
            if !ok {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_instance_is_trivially_solved() {
        let p = AssignmentProblem {
            costs: vec![],
            sizes: vec![],
            caps: vec![10],
        };
        let s = p.solve_within(1).unwrap().unwrap();
        assert_eq!(s.cost, 0.0);
    }

    #[test]
    fn respects_capacities() {
        // Both items prefer bin 0 but only one fits.
        let p = AssignmentProblem {
            costs: vec![vec![1.0, 5.0], vec![1.0, 3.0]],
            sizes: vec![4, 4],
            caps: vec![4, 100],
        };
        let s = p.solve_within(1 << 20).unwrap().unwrap();
        // Optimal: item 0 in bin 0 (1.0), item 1 in bin 1 (3.0) = 4.0.
        assert_eq!(s.cost, 4.0);
        assert_eq!(s.assignment, vec![0, 1]);
    }

    #[test]
    fn infeasible_returns_none() {
        let p = AssignmentProblem {
            costs: vec![vec![1.0]],
            sizes: vec![10],
            caps: vec![5],
        };
        assert!(p.solve_within(1 << 20).unwrap().is_none());
    }

    #[test]
    fn forbidden_placements_are_skipped() {
        let p = AssignmentProblem {
            costs: vec![vec![f64::INFINITY, 2.0]],
            sizes: vec![1],
            caps: vec![10, 10],
        };
        let s = p.solve_within(1 << 20).unwrap().unwrap();
        assert_eq!(s.assignment, vec![1]);
    }

    #[test]
    fn matches_brute_force_on_fixed_instance() {
        let p = AssignmentProblem {
            costs: vec![
                vec![3.0, 7.0, 11.0],
                vec![2.0, 5.0, 9.0],
                vec![8.0, 4.0, 1.0],
                vec![6.0, 6.0, 2.0],
            ],
            sizes: vec![3, 5, 2, 4],
            caps: vec![6, 6, 6],
        };
        let a = p.solve_within(1 << 20).unwrap().unwrap();
        let b = p.brute_force().unwrap();
        assert!((a.cost - b.cost).abs() < 1e-9, "{} vs {}", a.cost, b.cost);
    }

    #[test]
    fn greedy_is_feasible_but_never_cheaper_than_exact() {
        let p = AssignmentProblem {
            costs: vec![
                vec![3.0, 7.0, 11.0],
                vec![2.0, 5.0, 9.0],
                vec![8.0, 4.0, 1.0],
                vec![6.0, 6.0, 2.0],
            ],
            sizes: vec![3, 5, 2, 4],
            caps: vec![6, 6, 6],
        };
        let g = p.solve_greedy().unwrap().unwrap();
        let e = p.solve_within(1 << 20).unwrap().unwrap();
        assert!(e.cost <= g.cost + 1e-12, "{} vs {}", e.cost, g.cost);
        // Greedy respects capacities too.
        let mut used = vec![0u64; p.locations()];
        for (i, &j) in g.assignment.iter().enumerate() {
            used[j] += p.sizes[i];
        }
        for (u, c) in used.iter().zip(p.caps.iter()) {
            assert!(u <= c);
        }
    }

    #[test]
    fn tiny_node_budget_reports_exhaustion() {
        let p = AssignmentProblem {
            costs: vec![
                vec![3.0, 7.0, 11.0],
                vec![2.0, 5.0, 9.0],
                vec![8.0, 4.0, 1.0],
                vec![6.0, 6.0, 2.0],
            ],
            sizes: vec![3, 5, 2, 4],
            caps: vec![6, 6, 6],
        };
        match p.solve_within(1) {
            Err(IlpError::BudgetExhausted { budget: 1 }) => {}
            other => panic!("expected budget exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn malformed_instance_is_a_typed_error() {
        let p = AssignmentProblem {
            costs: vec![vec![1.0, 2.0]],
            sizes: vec![1, 2],
            caps: vec![5, 5],
        };
        assert_eq!(p.solve_within(1 << 20), Err(IlpError::SizeMismatch));
    }
}
