//! Time-varying workload schedules for drift-driven re-planning.
//!
//! A [`Schedule`] is a named sequence of [`Phase`]s, each pinning one
//! [`WorkloadSpec`] for a number of consecutive *epochs*. The placement
//! replay (`clara place --replay <schedule>`) walks the schedule epoch by
//! epoch, re-profiling the NF set on each epoch's trace and re-solving
//! the placement ILP when the observed per-NF load drifts past a
//! threshold.
//!
//! Determinism contract: [`Schedule::epoch_trace`] seeds each trace from
//! the *phase* index, not the epoch index, so every epoch inside one
//! phase replays a bit-identical trace. A single-phase schedule is
//! therefore exactly stationary — replaying it can never register drift —
//! while a phase boundary changes the workload discontinuously and is
//! guaranteed to register whatever drift the two specs imply.

use serde::{Deserialize, Serialize};

use crate::spec::WorkloadSpec;
use crate::trace::Trace;

/// One homogeneous stretch of a schedule: the same workload replayed for
/// `epochs` consecutive epochs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Phase {
    /// Workload generated during this phase.
    pub spec: WorkloadSpec,
    /// Number of consecutive epochs the phase lasts.
    pub epochs: usize,
}

/// A named, deterministic sequence of workload phases.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    /// Schedule name (appears in replay reports).
    pub name: String,
    /// Phases in replay order.
    pub phases: Vec<Phase>,
}

/// Builtin schedule names accepted by [`Schedule::builtin`].
pub const BUILTIN_SCHEDULES: [&str; 4] = ["steady", "shift", "burst", "churn"];

impl Schedule {
    /// Drift-free baseline: `epochs` epochs of the large-flows profile.
    /// Replaying it never migrates state (pinned by a proptest).
    pub fn steady(epochs: usize) -> Schedule {
        Schedule {
            name: "steady".into(),
            phases: vec![Phase {
                spec: WorkloadSpec::large_flows(),
                epochs: epochs.max(1),
            }],
        }
    }

    /// The paper's Section 5.4 workload shift: large flows (NIC cache
    /// hits) for the first half, then a small-flows storm (8192 flows,
    /// cache misses) for the rest. The boundary injects a load shift
    /// large enough to trigger at least one re-solve.
    pub fn shift(epochs: usize) -> Schedule {
        let epochs = epochs.max(2);
        let first = epochs / 2;
        Schedule {
            name: "shift".into(),
            phases: vec![
                Phase {
                    spec: WorkloadSpec::large_flows(),
                    epochs: first,
                },
                Phase {
                    spec: WorkloadSpec::small_flows().with_flows(8192),
                    epochs: epochs - first,
                },
            ],
        }
    }

    /// A transient burst: large flows, a one-epoch minimum-size packet
    /// storm, then large flows again — exercises re-planning *back* to
    /// the original plan.
    pub fn burst(epochs: usize) -> Schedule {
        let epochs = epochs.max(3);
        let tail = (epochs - 1) / 2;
        Schedule {
            name: "burst".into(),
            phases: vec![
                Phase {
                    spec: WorkloadSpec::large_flows(),
                    epochs: epochs - 1 - tail,
                },
                Phase {
                    spec: WorkloadSpec::min_size(),
                    epochs: 1,
                },
                Phase {
                    spec: WorkloadSpec::large_flows(),
                    epochs: tail,
                },
            ],
        }
    }

    /// Flow-population churn: four short phases of small-flow storms,
    /// each drawing a fresh flow population (epoch traces are seeded by
    /// phase, so no two phases share a 5-tuple population) with the
    /// population size stepping up and back down. Every boundary floods
    /// the NFs' flow tables with never-seen keys while the previous
    /// phase's entries go idle — the timeout-and-eviction-heavy workload
    /// the stateful corpus's churn counters are pinned against.
    pub fn churn(epochs: usize) -> Schedule {
        let epochs = epochs.max(4);
        let base = epochs / 4;
        let extra = epochs - base * 4;
        let flows = [2048u32, 8192, 4096, 16384];
        Schedule {
            name: "churn".into(),
            phases: flows
                .iter()
                .enumerate()
                .map(|(i, &f)| Phase {
                    spec: WorkloadSpec::small_flows().with_flows(f),
                    epochs: base + usize::from(i < extra),
                })
                .collect(),
        }
    }

    /// Resolves a builtin schedule by name (`steady`, `shift`, `burst`,
    /// `churn`) sized to `epochs` epochs; `None` for unknown names.
    pub fn builtin(name: &str, epochs: usize) -> Option<Schedule> {
        match name {
            "steady" => Some(Schedule::steady(epochs)),
            "shift" => Some(Schedule::shift(epochs)),
            "burst" => Some(Schedule::burst(epochs)),
            "churn" => Some(Schedule::churn(epochs)),
            _ => None,
        }
    }

    /// Total epochs across all phases.
    pub fn epochs(&self) -> usize {
        self.phases.iter().map(|p| p.epochs).sum()
    }

    /// Maps an epoch index to `(phase_index, spec)`; `None` past the end.
    pub fn phase_of(&self, epoch: usize) -> Option<(usize, &WorkloadSpec)> {
        let mut start = 0;
        for (i, p) in self.phases.iter().enumerate() {
            if epoch < start + p.epochs {
                return Some((i, &p.spec));
            }
            start += p.epochs;
        }
        None
    }

    /// Generates the trace observed during `epoch`: `packets` packets of
    /// the phase's spec, seeded by `seed + phase_index` so all epochs of
    /// one phase replay identically (see the module docs).
    pub fn epoch_trace(&self, epoch: usize, packets: usize, seed: u64) -> Option<Trace> {
        let (phase, spec) = self.phase_of(epoch)?;
        Some(Trace::generate(
            spec,
            packets,
            seed.wrapping_add(phase as u64),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_names_resolve_and_cover_requested_epochs() {
        for name in BUILTIN_SCHEDULES {
            let s = Schedule::builtin(name, 6).unwrap();
            assert_eq!(s.name, name);
            assert_eq!(s.epochs(), 6, "{name}");
            assert!(s.phase_of(5).is_some());
            assert!(s.phase_of(6).is_none());
        }
        assert!(Schedule::builtin("nosuch", 4).is_none());
    }

    #[test]
    fn epochs_within_a_phase_replay_identical_traces() {
        let s = Schedule::shift(6);
        let a = s.epoch_trace(0, 100, 42).unwrap();
        let b = s.epoch_trace(1, 100, 42).unwrap();
        assert_eq!(a.pkts, b.pkts);
        // Crossing the phase boundary changes the workload.
        let c = s.epoch_trace(3, 100, 42).unwrap();
        assert_ne!(a.pkts, c.pkts);
    }

    #[test]
    fn steady_is_single_phase() {
        let s = Schedule::steady(4);
        assert_eq!(s.phases.len(), 1);
        let a = s.epoch_trace(0, 50, 7).unwrap();
        let d = s.epoch_trace(3, 50, 7).unwrap();
        assert_eq!(a.pkts, d.pkts);
    }

    #[test]
    fn churn_phases_draw_disjoint_flow_populations() {
        let s = Schedule::churn(8);
        assert_eq!(s.phases.len(), 4);
        assert_eq!(s.epochs(), 8);
        // Each phase's trace is seeded differently, so the flow
        // populations at a boundary are (overwhelmingly) disjoint.
        let a = s.epoch_trace(0, 200, 11).unwrap();
        let b = s.epoch_trace(2, 200, 11).unwrap();
        let keys = |t: &Trace| {
            t.pkts
                .iter()
                .map(|p| p.flow)
                .collect::<std::collections::HashSet<_>>()
        };
        let (ka, kb) = (keys(&a), keys(&b));
        assert!(ka.intersection(&kb).count() * 10 < ka.len().min(kb.len()));
    }

    #[test]
    fn burst_returns_to_the_original_workload() {
        let s = Schedule::burst(5);
        assert_eq!(s.phases.len(), 3);
        assert_eq!(s.phases[1].epochs, 1);
        assert_eq!(s.phases[0].spec.name, s.phases[2].spec.name);
    }
}
