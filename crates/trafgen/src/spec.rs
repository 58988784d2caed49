//! Workload specifications: the axes the paper's evaluation varies.

use serde::{Deserialize, Serialize};

/// How packets are distributed across flows.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FlowDist {
    /// Every flow is equally likely.
    Uniform,
    /// Zipf-distributed flow popularity with the given skew exponent.
    Zipf {
        /// Skew exponent (larger = heavier head).
        s: f64,
    },
}

/// Packet-size distribution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PktSizeDist {
    /// All packets the same size.
    Fixed(u16),
    /// IMIX-like bimodal mix: `small_frac` of packets at `small`, rest at
    /// `large`.
    Bimodal {
        /// Small packet size in bytes.
        small: u16,
        /// Large packet size in bytes.
        large: u16,
        /// Fraction of small packets in `[0, 1]`.
        small_frac: f64,
    },
    /// Uniformly random sizes in `[min, max]`.
    Uniform {
        /// Minimum size in bytes.
        min: u16,
        /// Maximum size in bytes.
        max: u16,
    },
}

/// A complete workload specification.
///
/// Mirrors the paper's workload descriptions: "a workload specification
/// includes packet sizes, the number of flows, and the IP address
/// distribution" (Section 5.1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Human-readable profile name.
    pub name: String,
    /// Number of concurrent flows.
    pub flows: u32,
    /// Flow popularity distribution.
    pub flow_dist: FlowDist,
    /// Packet sizes.
    pub pkt_size: PktSizeDist,
    /// Fraction of TCP packets carrying SYN (flow setups).
    pub syn_ratio: f64,
    /// Fraction of TCP traffic (remainder is UDP).
    pub tcp_ratio: f64,
    /// Offered load in millions of packets per second.
    pub rate_mpps: f64,
}

impl WorkloadSpec {
    /// The paper's "large flows" profile: few concurrent flows, so per-flow
    /// state mostly hits the NIC's SRAM cache.
    pub fn large_flows() -> WorkloadSpec {
        WorkloadSpec {
            name: "large-flows".into(),
            flows: 64,
            flow_dist: FlowDist::Zipf { s: 1.1 },
            pkt_size: PktSizeDist::Fixed(256),
            syn_ratio: 0.001,
            tcp_ratio: 0.9,
            rate_mpps: 30.0,
        }
    }

    /// The paper's "small flows" profile: many concurrent flows, so state
    /// lookups mostly miss the cache and go to DRAM.
    pub fn small_flows() -> WorkloadSpec {
        WorkloadSpec {
            name: "small-flows".into(),
            flows: 262_144,
            flow_dist: FlowDist::Uniform,
            pkt_size: PktSizeDist::Fixed(128),
            syn_ratio: 0.05,
            tcp_ratio: 0.9,
            rate_mpps: 30.0,
        }
    }

    /// The workload a query that names only its flow size profiles:
    /// small flows scaled to 8,192 concurrent flows, else large flows.
    pub fn by_flow_size(small_flows: bool) -> WorkloadSpec {
        if small_flows {
            WorkloadSpec::small_flows().with_flows(8192)
        } else {
            WorkloadSpec::large_flows()
        }
    }

    /// Minimum-size line-rate stress profile (64-byte packets).
    pub fn min_size() -> WorkloadSpec {
        WorkloadSpec {
            name: "min-size".into(),
            flows: 4096,
            flow_dist: FlowDist::Uniform,
            pkt_size: PktSizeDist::Fixed(64),
            syn_ratio: 0.01,
            tcp_ratio: 1.0,
            rate_mpps: 59.5,
        }
    }

    /// A mixed-size IMIX-like profile.
    pub fn imix() -> WorkloadSpec {
        WorkloadSpec {
            name: "imix".into(),
            flows: 8192,
            flow_dist: FlowDist::Zipf { s: 0.9 },
            pkt_size: PktSizeDist::Bimodal {
                small: 64,
                large: 1400,
                small_frac: 0.6,
            },
            syn_ratio: 0.02,
            tcp_ratio: 0.85,
            rate_mpps: 20.0,
        }
    }

    /// Returns a copy with a different flow count (for sweeps).
    pub fn with_flows(mut self, flows: u32) -> WorkloadSpec {
        self.flows = flows;
        self
    }

    /// Returns a copy with a fixed packet size (for sweeps).
    pub fn with_pkt_size(mut self, size: u16) -> WorkloadSpec {
        self.pkt_size = PktSizeDist::Fixed(size);
        self
    }

    /// Returns a copy with a different offered rate.
    pub fn with_rate(mut self, rate_mpps: f64) -> WorkloadSpec {
        self.rate_mpps = rate_mpps;
        self
    }

    /// Mean packet size implied by the size distribution.
    pub fn mean_pkt_size(&self) -> f64 {
        match self.pkt_size {
            PktSizeDist::Fixed(s) => f64::from(s),
            PktSizeDist::Bimodal {
                small,
                large,
                small_frac,
            } => f64::from(small) * small_frac + f64::from(large) * (1.0 - small_frac),
            PktSizeDist::Uniform { min, max } => (f64::from(min) + f64::from(max)) / 2.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_profiles_differ_in_flow_count() {
        assert!(WorkloadSpec::small_flows().flows > WorkloadSpec::large_flows().flows * 100);
    }

    #[test]
    fn with_helpers_update_fields() {
        let w = WorkloadSpec::large_flows()
            .with_flows(7)
            .with_pkt_size(99)
            .with_rate(1.5);
        assert_eq!(w.flows, 7);
        assert_eq!(w.pkt_size, PktSizeDist::Fixed(99));
        assert_eq!(w.rate_mpps, 1.5);
    }

    #[test]
    fn flow_size_picks_small_or_large_flows() {
        assert_eq!(
            WorkloadSpec::by_flow_size(true),
            WorkloadSpec::small_flows().with_flows(8192)
        );
        assert_eq!(
            WorkloadSpec::by_flow_size(false),
            WorkloadSpec::large_flows()
        );
    }

    #[test]
    fn mean_size_matches_distributions() {
        assert_eq!(WorkloadSpec::min_size().mean_pkt_size(), 64.0);
        let w = WorkloadSpec::imix();
        let m = w.mean_pkt_size();
        assert!(m > 64.0 && m < 1400.0);
    }
}
