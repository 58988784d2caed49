//! `--compare PARENT CHANGE`: judges a change against its parent from at
//! least ten runs of each, one row per (workload, metric).
//!
//! Rules: a change *improved* a metric when it wins at least nine tenths
//! of the run pairs (ties count for neither) and the medians differ by
//! more than the parent's own interquartile distance. Otherwise, for a
//! metric with a bound in `BENCHMARK.json`, it *regressed* when its median
//! is worse than the parent's by more than the bound, and shows *no
//! regression* when it is not. Where the parent's own spread is wider
//! than the bound the metric is *unresolved*, unless every change run
//! reads better than every parent run. A metric without a bound (the
//! per-layer ones) is improved, worsened (the mirror rule) or unresolved.

use std::collections::BTreeMap;
use std::path::Path;

use serde::Value;

use crate::stats;

/// Which way a metric improves, and by how much it may worsen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rule {
    /// True when lower values are better.
    pub lower: bool,
    /// Allowed worsening as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The outcome of one comparison row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins ≥ 9/10 of pairs by more than the parent's spread.
    Improved,
    /// Worse than the parent by no more than the bound.
    NoRegression,
    /// Worse than the parent by more than the bound.
    Regressed,
    /// The mirror of `Improved`, for a metric without a bound.
    Worsened,
    /// Too few runs, or a spread too wide to tell.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::NoRegression => "no regression",
            Verdict::Regressed => "regressed",
            Verdict::Worsened => "worsened",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Runs needed on each side before any verdict but `Unresolved`.
pub const MIN_RUNS: usize = 10;

/// Share of pairs the change must win to claim a gain.
pub const WIN_SHARE: f64 = 0.9;

/// Share of index-aligned pairs `(parent[i], change[i])` the change wins.
pub fn win_share(parent: &[f64], change: &[f64], lower: bool) -> f64 {
    let pairs = parent.len().min(change.len());
    if pairs == 0 {
        return 0.0;
    }
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| if lower { c < p } else { c > p })
        .count();
    wins as f64 / pairs as f64
}

/// Judges one (workload, metric) from both sides' runs.
pub fn verdict(parent: &[f64], change: &[f64], rule: Rule) -> Verdict {
    if parent.len() < MIN_RUNS || change.len() < MIN_RUNS {
        return Verdict::Unresolved;
    }
    let (mp, mc) = (stats::median(parent), stats::median(change));
    let (q1, q3) = stats::quartiles(parent);
    let iqr = q3 - q1;
    let better = |a: f64, b: f64| if rule.lower { a < b } else { a > b };
    if better(mc, mp) && (mc - mp).abs() > iqr && win_share(parent, change, rule.lower) >= WIN_SHARE
    {
        return Verdict::Improved;
    }
    let Some(bound) = rule.bound else {
        let parent_wins = win_share(change, parent, rule.lower);
        return if better(mp, mc) && (mc - mp).abs() > iqr && parent_wins >= WIN_SHARE {
            Verdict::Worsened
        } else {
            Verdict::Unresolved
        };
    };
    let scale = mp.abs().max(f64::MIN_POSITIVE);
    let all_better = if rule.lower {
        stats::sorted(change).last() < stats::sorted(parent).first()
    } else {
        stats::sorted(change).first() > stats::sorted(parent).last()
    };
    if iqr / scale > bound && !all_better {
        return Verdict::Unresolved;
    }
    let worse_by = if rule.lower { mc - mp } else { mp - mc } / scale;
    if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::NoRegression
    }
}

/// Metric rules from `BENCHMARK.json`.
fn rules(benchmark: &Value) -> BTreeMap<String, Rule> {
    let mut out = BTreeMap::new();
    for (section, bounded) in [("end_to_end", true), ("per_layer", false)] {
        let Some(Value::Seq(items)) = benchmark.get(section) else {
            continue;
        };
        for item in items {
            let (Some(Value::Str(name)), Some(Value::Str(better))) =
                (item.get("name"), item.get("better"))
            else {
                continue;
            };
            let bound = match item.get("bound") {
                Some(Value::Float(f)) if bounded => Some(*f),
                Some(Value::Int(i)) if bounded => Some(*i as f64),
                _ => None,
            };
            out.insert(
                name.clone(),
                Rule {
                    lower: better == "lower",
                    bound,
                },
            );
        }
    }
    out
}

/// Values per (workload, metric), in file order, from a file of
/// `BENCH_perf.json` records: one per line, or a JSON object whose
/// `runs` array holds them.
fn load(path: &Path) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let records: Vec<Value> = match serde_json::parse_value(&text) {
        Ok(v) if v.get("runs").is_some() => match v.get("runs") {
            Some(Value::Seq(runs)) => runs.clone(),
            _ => return Err(format!("{}: `runs` is not an array", path.display())),
        },
        _ => text
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| serde_json::parse_value(l).map_err(|e| format!("{}: {e}", path.display())))
            .collect::<Result<_, _>>()?,
    };
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for r in &records {
        let Some(Value::Str(workload)) = r.get("workload") else {
            continue;
        };
        let Some(Value::Map(metrics)) = r.get("result").and_then(|x| x.get("metrics")) else {
            continue;
        };
        for (name, m) in metrics {
            let v = match m.get("value") {
                Some(Value::Float(f)) => *f,
                Some(Value::Int(i)) => *i as f64,
                Some(Value::UInt(u)) => *u as f64,
                _ => continue,
            };
            out.entry((workload.clone(), name.clone()))
                .or_default()
                .push(v);
        }
    }
    Ok(out)
}

/// Prints the comparison table; fails when any metric regressed.
pub fn run(parent: &Path, change: &Path) -> Result<(), String> {
    let bench =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let rules =
        rules(&serde_json::parse_value(&bench).map_err(|e| format!("BENCHMARK.json: {e}"))?);
    let (p, c) = (load(parent)?, load(change)?);
    println!(
        "{:<8} {:<28} {:>4} {:>12} {:>25} {:>12} {:>25} {:>5}  verdict",
        "workload", "metric", "runs", "parent", "[q1, q3]", "change", "[q1, q3]", "won"
    );
    let mut regressed = 0;
    for ((workload, name), pv) in &p {
        let (Some(cv), Some(rule)) = (c.get(&(workload.clone(), name.clone())), rules.get(name))
        else {
            continue;
        };
        let v = verdict(pv, cv, *rule);
        regressed += usize::from(v == Verdict::Regressed);
        let (pq1, pq3) = stats::quartiles(pv);
        let (cq1, cq3) = stats::quartiles(cv);
        println!(
            "{:<8} {:<28} {:>4} {:>12.4} [{:>11.4}, {:>11.4}] {:>12.4} [{:>11.4}, {:>11.4}] {:>4.0}%  {}",
            workload,
            name,
            pv.len().min(cv.len()),
            stats::median(pv),
            pq1,
            pq3,
            stats::median(cv),
            cq1,
            cq3,
            win_share(pv, cv, rule.lower) * 100.0,
            v.as_str()
        );
    }
    if regressed > 0 {
        return Err(format!("{regressed} metric(s) regressed"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Rule = Rule {
        lower: true,
        bound: Some(0.10),
    };

    fn around(m: f64, jitter: f64) -> Vec<f64> {
        (0..10)
            .map(|i| m + jitter * (i as f64 - 4.5) / 4.5)
            .collect()
    }

    #[test]
    fn verdicts_follow_the_pair_and_bound_rules() {
        let parent = around(100.0, 2.0);
        assert_eq!(
            verdict(&parent, &around(80.0, 2.0), LOWER),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&parent, &around(105.0, 2.0), LOWER),
            Verdict::NoRegression
        );
        assert_eq!(
            verdict(&parent, &around(115.0, 2.0), LOWER),
            Verdict::Regressed
        );
        // A parent spread wider than the bound cannot be judged...
        let noisy = around(100.0, 30.0);
        assert_eq!(
            verdict(&noisy, &around(105.0, 2.0), LOWER),
            Verdict::Unresolved
        );
        // ...unless every change run beats every parent run.
        assert_eq!(
            verdict(&noisy, &around(60.0, 2.0), LOWER),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&parent[..9], &around(80.0, 2.0), LOWER),
            Verdict::Unresolved
        );
        let higher = Rule {
            lower: false,
            bound: Some(0.10),
        };
        assert_eq!(
            verdict(&parent, &around(80.0, 2.0), higher),
            Verdict::Regressed
        );
        let unbounded = Rule {
            lower: true,
            bound: None,
        };
        assert_eq!(
            verdict(&parent, &around(130.0, 2.0), unbounded),
            Verdict::Worsened
        );
        assert_eq!(
            verdict(&parent, &around(101.0, 2.0), unbounded),
            Verdict::Unresolved
        );
    }

    #[test]
    fn ties_count_for_neither_side() {
        assert_eq!(
            win_share(&[1.0, 2.0, 3.0, 4.0], &[1.0, 1.0, 3.0, 5.0], true),
            0.25
        );
        assert_eq!(win_share(&[], &[1.0], true), 0.0);
    }
}
