//! Service chains: multiple NF elements processing each packet in turn.
//!
//! "Packet processing often requires the use of multiple NFs" (paper
//! Section 4.5) — a [`Chain`] wires elements in sequence: a packet enters
//! the first element; if it is *sent* (any output port) it continues to
//! the next element; if it is *dropped* the chain ends. Each stage's
//! events go to that stage's own sink, so each stage can be profiled,
//! placed and ported independently — which is exactly how Clara's per-NF
//! insights compose onto a chain.

use nf_ir::Module;

use crate::exec::{EventSink, ExecTrace, TraceError};
use crate::interp::Machine;
use crate::packet::{PacketView, Verdict};

/// A linear service chain of NF elements.
#[derive(Debug, Clone)]
pub struct Chain {
    stages: Vec<Machine>,
    names: Vec<String>,
}

/// The outcome of pushing one packet through a chain.
#[derive(Debug, Clone)]
pub struct ChainResult {
    /// Per-stage execution traces, in order, for the stages that ran.
    pub traces: Vec<ExecTrace>,
    /// Verdict of the last stage that ran.
    pub verdict: Option<Verdict>,
    /// Index of the stage that dropped the packet, if any.
    pub dropped_at: Option<usize>,
}

impl Chain {
    /// Builds a chain from element modules (verifying each).
    ///
    /// # Errors
    ///
    /// Returns the first verification failure.
    pub fn new<'a>(
        modules: impl IntoIterator<Item = &'a Module>,
    ) -> Result<Chain, nf_ir::verify::VerifyError> {
        let mut stages = Vec::new();
        let mut names = Vec::new();
        for m in modules {
            stages.push(Machine::new(m)?);
            names.push(m.name.clone());
        }
        Ok(Chain { stages, names })
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// True when the chain has no stages.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Stage names, in order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Mutable access to one stage's machine (rule installation etc.).
    pub fn stage_mut(&mut self, idx: usize) -> Option<&mut Machine> {
        self.stages.get_mut(idx)
    }

    /// Resets every stage's persistent state.
    pub fn reset(&mut self) {
        for s in &mut self.stages {
            s.reset();
        }
    }

    /// Pushes one packet through the chain, recording each stage's trace.
    ///
    /// Each stage sees the (possibly rewritten) packet produced by the
    /// previous stage: header modifications propagate down the chain.
    pub fn run(&mut self, pkt: &trafgen::Packet) -> Result<ChainResult, TraceError> {
        let mut traces = vec![ExecTrace::default(); self.stages.len()];
        let (verdict, dropped_at) = self.run_into(pkt, &mut traces)?;
        traces.truncate(dropped_at.map_or(self.stages.len(), |i| i + 1));
        Ok(ChainResult {
            traces,
            verdict,
            dropped_at,
        })
    }

    /// Pushes one packet through the chain, handing stage `i`'s events to
    /// `sinks[i]`. Returns the verdict of the last stage that ran and the
    /// index of the stage that dropped the packet, if any; the sinks of
    /// the stages after a drop receive nothing.
    ///
    /// # Panics
    ///
    /// Panics if `sinks` is shorter than the chain.
    pub fn run_into<S: EventSink>(
        &mut self,
        pkt: &trafgen::Packet,
        sinks: &mut [S],
    ) -> Result<(Option<Verdict>, Option<usize>), TraceError> {
        assert!(sinks.len() >= self.stages.len(), "one sink per stage");
        let mut view = PacketView::new(pkt);
        let mut verdict = None;
        for (i, (stage, sink)) in self.stages.iter_mut().zip(sinks).enumerate() {
            // Each stage starts with a fresh verdict on the same view.
            view.verdict = None;
            verdict = stage.run_into(&mut view, sink)?;
            if verdict == Some(Verdict::Dropped) {
                return Ok((verdict, Some(i)));
            }
        }
        Ok((verdict, None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elements;
    use trafgen::{Trace, WorkloadSpec};

    #[test]
    fn chain_propagates_header_rewrites() {
        // anonipaddr rewrites addresses; aggcounter then counts the
        // rewritten destinations — both stages must run.
        let anon = elements::anonipaddr();
        let agg = elements::aggcounter();
        let mut chain = Chain::new([&anon.module, &agg.module]).expect("verifies");
        let trace = Trace::generate(&WorkloadSpec::large_flows(), 20, 1);
        for p in &trace.pkts {
            let r = chain.run(p).expect("runs");
            assert_eq!(r.traces.len(), 2);
            assert!(r.dropped_at.is_none());
        }
        // The counter stage saw all 20 packets.
        let total = chain.stages[1].state.load(nf_ir::GlobalId(1), 0, 0, 4);
        assert_eq!(total, 20);
    }

    #[test]
    fn drop_in_early_stage_skips_the_rest() {
        // A firewall with no rules drops everything; the counter after it
        // must see nothing.
        let fw = elements::firewall();
        let agg = elements::aggcounter();
        let mut chain = Chain::new([&fw.module, &agg.module]).expect("verifies");
        let spec = WorkloadSpec {
            tcp_ratio: 1.0,
            ..WorkloadSpec::large_flows()
        };
        let trace = Trace::generate(&spec, 15, 2);
        for p in &trace.pkts {
            let r = chain.run(p).expect("runs");
            assert_eq!(r.dropped_at, Some(0));
            assert_eq!(r.traces.len(), 1);
        }
        assert_eq!(chain.stages[1].state.load(nf_ir::GlobalId(1), 0, 0, 4), 0);
    }

    #[test]
    fn stage_state_is_installable() {
        let fw = elements::firewall();
        let agg = elements::aggcounter();
        let mut chain = Chain::new([&fw.module, &agg.module]).expect("verifies");
        let spec = WorkloadSpec {
            tcp_ratio: 1.0,
            syn_ratio: 0.0,
            ..WorkloadSpec::large_flows().with_flows(2)
        };
        let trace = Trace::generate(&spec, 12, 3);
        let pfx = u64::from(trace.pkts[0].flow.src_ip >> 12);
        chain
            .stage_mut(0)
            .expect("has stage")
            .state
            .store(nf_ir::GlobalId(1), 0, 0, 4, pfx);
        for p in &trace.pkts {
            chain.run(p).expect("runs");
        }
        // Admitted packets reached the counter.
        let counted = chain.stages[1].state.load(nf_ir::GlobalId(1), 0, 0, 4);
        assert_eq!(counted, 12);
    }

    /// `run_into` with recording sinks matches `run` and a hand-driven
    /// pipeline of stand-alone machines over one packet view, including a
    /// chain whose first stage drops every packet (the second sink stays
    /// empty).
    #[test]
    fn run_into_recording_sinks_equals_run() {
        let spec = WorkloadSpec {
            tcp_ratio: 1.0,
            ..WorkloadSpec::large_flows()
        };
        let trace = Trace::generate(&spec, 12, 5);
        let fw = elements::firewall();
        let anon = elements::anonipaddr();
        let agg = elements::aggcounter();
        for (modules, drops) in [
            ([&anon.module, &agg.module], false),
            ([&fw.module, &agg.module], true),
        ] {
            let mut by_run = Chain::new(modules).expect("verifies");
            let mut by_sinks = Chain::new(modules).expect("verifies");
            let mut by_hand: Vec<Machine> = modules
                .iter()
                .map(|m| Machine::new(m).expect("verifies"))
                .collect();
            for p in &trace.pkts {
                let mut sinks = vec![ExecTrace::default(); 2];
                let (verdict, dropped_at) = by_sinks.run_into(p, &mut sinks).expect("runs");
                assert_eq!(dropped_at, drops.then_some(0));

                let mut view = PacketView::new(p);
                let mut want = Vec::new();
                for m in &mut by_hand {
                    view.verdict = None;
                    let (t, v) = m.run_view(&mut view).expect("runs");
                    want.push(t);
                    if v == Some(Verdict::Dropped) {
                        break;
                    }
                }
                assert_eq!(verdict, view.verdict);
                assert_eq!(sinks[..want.len()], want[..]);
                assert!(sinks[want.len()..]
                    .iter()
                    .all(|t| *t == ExecTrace::default()));
                assert!(want[0].steps > 0 && !want[0].events.is_empty());

                let r = by_run.run(p).expect("runs");
                assert_eq!((r.verdict, r.dropped_at), (verdict, dropped_at));
                assert_eq!(r.traces, want);
            }
        }
    }

    #[test]
    fn reset_clears_every_stage() {
        let agg = elements::aggcounter();
        let udp = elements::udpcount();
        let mut chain = Chain::new([&agg.module, &udp.module]).expect("verifies");
        let trace = Trace::generate(&WorkloadSpec::imix(), 10, 4);
        for p in &trace.pkts {
            chain.run(p).expect("runs");
        }
        chain.reset();
        assert_eq!(chain.stages[0].state.load(nf_ir::GlobalId(1), 0, 0, 4), 0);
        assert_eq!(chain.stages[1].state.load(nf_ir::GlobalId(2), 0, 0, 4), 0);
    }
}
