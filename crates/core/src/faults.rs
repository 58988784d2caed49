//! Deterministic, seeded fault injection for the engine.
//!
//! A [`FaultPlan`] makes chosen engine tasks panic, error, or stall — the
//! test substrate for the engine's panic isolation, retry, and deadline
//! machinery. Injection decisions are a pure hash of
//! `(seed, stage, task index, attempt)`, so the *same* tasks fault on
//! every run regardless of worker count or scheduling: a faulted run
//! whose failures stay within the retry budget produces bit-identical
//! results to a fault-free run, which `tests/engine_determinism.rs` pins.
//!
//! Plans come from the `CLARA_FAULTS=<seed>:<rate>[:<depth>]` environment
//! variable, which [`crate::engine`] reads at the start of every stage.

use std::sync::Once;

/// What an injected fault does to the selected task attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The attempt panics (exercises `catch_unwind` isolation).
    Panic,
    /// The attempt fails with a typed error before running.
    Error,
    /// The attempt sleeps [`FaultPlan::stall_ms`] first, then runs
    /// normally (exercises stage deadlines; harmless without one).
    Stall,
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::Panic => write!(f, "panic"),
            FaultKind::Error => write!(f, "error"),
            FaultKind::Stall => write!(f, "stall"),
        }
    }
}

/// A seeded, deterministic fault-injection plan.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct FaultPlan {
    /// Seed mixed into every injection decision.
    pub seed: u64,
    /// Fraction of `(stage, index)` tasks selected to fault, in `[0, 1]`.
    pub rate: f64,
    /// How many consecutive attempts of a selected task fault before it
    /// is allowed to succeed. A depth within the engine's retry budget
    /// degrades nothing; a depth beyond it makes the task fail
    /// permanently.
    pub depth: u32,
    /// Sleep for [`FaultKind::Stall`] injections, in milliseconds.
    pub stall_ms: u64,
}

impl FaultPlan {
    /// A plan faulting roughly `rate` of all tasks once each.
    pub fn new(seed: u64, rate: f64) -> FaultPlan {
        FaultPlan {
            seed,
            rate,
            depth: 1,
            stall_ms: 2,
        }
    }

    /// Parses the `CLARA_FAULTS` format: `<seed>:<rate>[:<depth>]`
    /// (e.g. `7:0.3` or `7:1.0:9`). Returns `None` on malformed input.
    pub fn parse(s: &str) -> Option<FaultPlan> {
        let mut parts = s.trim().split(':');
        let seed = parts.next()?.trim().parse::<u64>().ok()?;
        let rate = parts.next()?.trim().parse::<f64>().ok()?;
        if !rate.is_finite() {
            return None;
        }
        let depth = match parts.next() {
            Some(d) => d.trim().parse::<u32>().ok()?,
            None => 1,
        };
        if parts.next().is_some() {
            return None;
        }
        Some(FaultPlan {
            depth,
            ..FaultPlan::new(seed, rate)
        })
    }

    /// Decides whether attempt `attempt` of task `(stage, index)` faults,
    /// and how. Pure: the same arguments always return the same answer.
    pub fn decide(&self, stage: &str, index: usize, attempt: u32) -> Option<FaultKind> {
        let mut buf = Vec::with_capacity(stage.len() + 16);
        buf.extend_from_slice(&self.seed.to_le_bytes());
        buf.extend_from_slice(stage.as_bytes());
        buf.extend_from_slice(&(index as u64).to_le_bytes());
        let h = nic_sim::fingerprint_bytes(&buf);
        let threshold = (self.rate.clamp(0.0, 1.0) * 1_000_000.0) as u64;
        if h % 1_000_000 >= threshold || attempt >= self.depth {
            return None;
        }
        Some(match (h >> 32) % 3 {
            0 => FaultKind::Panic,
            1 => FaultKind::Error,
            _ => FaultKind::Stall,
        })
    }
}

/// Panic payload used by [`FaultKind::Panic`] injections, so the panic
/// hook can tell injected panics apart from genuine ones.
#[derive(Debug)]
pub struct InjectedPanic;

/// Chains a panic hook that silences [`InjectedPanic`] payloads (they
/// are caught and retried by the engine; printing a backtrace-style
/// message for each would drown real diagnostics) while delegating every
/// other panic to the previous hook. Installed at most once per process.
pub(crate) fn install_quiet_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedPanic>().is_none() {
                prev(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_two_and_three_part_forms() {
        let p = FaultPlan::parse("7:0.25").expect("two-part form");
        assert_eq!((p.seed, p.depth), (7, 1));
        assert!((p.rate - 0.25).abs() < 1e-12);
        let p = FaultPlan::parse(" 9 : 1.0 : 4 ").expect("three-part form");
        assert_eq!((p.seed, p.depth), (9, 4));
        assert!(FaultPlan::parse("").is_none());
        assert!(FaultPlan::parse("7").is_none());
        assert!(FaultPlan::parse("7:x").is_none());
        assert!(FaultPlan::parse("7:0.5:1:9").is_none());
        assert!(FaultPlan::parse("7:NaN").is_none());
    }

    #[test]
    fn decide_is_deterministic_and_rate_bounded() {
        let plan = FaultPlan {
            depth: 2,
            ..FaultPlan::new(42, 0.5)
        };
        let mut faulted = 0usize;
        for i in 0..400 {
            let a = plan.decide("stage-x", i, 0);
            let b = plan.decide("stage-x", i, 0);
            assert_eq!(a, b, "decision must be pure");
            if let Some(k) = a {
                faulted += 1;
                // Selected tasks fault for exactly `depth` attempts.
                assert_eq!(plan.decide("stage-x", i, 1), Some(k));
                assert_eq!(plan.decide("stage-x", i, 2), None);
            }
        }
        // ~50% of tasks selected; allow generous slack for a 400-sample
        // draw from a fixed hash.
        assert!((100..300).contains(&faulted), "faulted {faulted}/400");
    }

    #[test]
    fn rate_extremes_select_none_or_all() {
        let none = FaultPlan::new(1, 0.0);
        let all = FaultPlan::new(1, 1.0);
        for i in 0..64 {
            assert_eq!(none.decide("s", i, 0), None);
            assert!(all.decide("s", i, 0).is_some());
        }
    }
}
