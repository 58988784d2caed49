//! Trace generation: expanding a [`WorkloadSpec`] into packets.
//!
//! # The stream
//!
//! A trace is one [`StdRng`] stream seeded from its seed, read in a fixed
//! order. A spec with `F = max(flows, 1)` flows owns the first `3F`
//! draws: flow `i`'s key takes draws `3i`, `3i + 1` and `3i + 2`, its
//! protocol (`gen_bool(tcp_ratio)`), server address (`gen::<u32>()`) and
//! server port (`gen_range(0..4)`). The packets read the draws after
//! those, each in turn: one for its flow, one for its size unless sizes
//! are fixed, and, for a TCP packet of a flow already seen, one for the
//! SYN flag.
//!
//! The generator draws no key that no packet uses. SplitMix64 is
//! counter-based, so flow `i`'s key is drawn on demand from the seeded
//! state advanced by `3i` draws ([`StdRng::advance`]), and the packets
//! start from it advanced by `3F`; each of the three calls takes exactly
//! one draw. The packets are those an eager table of all `F` keys gives,
//! bit for bit.
//!
//! # Choosing a flow
//!
//! A packet's flow is the index a binary search of the popularity CDF
//! returns for a uniform `x` in `[0, 1)`, capped at `F − 1`. For uniform
//! popularity over a power-of-two `F`, which every built-in uniform spec
//! has (2,048 to 262,144 flows), that index has a closed form and no CDF
//! is built. There, `1 / F` and every running sum `k / F` of the CDF are
//! exact doubles, so `cdf[i]` is exactly `(i + 1) / F` and the search
//! returns `k − 1` when `x = k / F` and `⌊x·F⌋` otherwise: `⌈x·F⌉ − 1`,
//! or 0 at `x = 0`. Scaling `x` by a power of two is exact too, so the
//! closed form rounds nowhere. Zipf popularity and other flow counts
//! build the CDF and search it.
//!
//! A trace over a power-of-two uniform population therefore costs
//! O(packets), whatever its flow count; otherwise building the CDF costs
//! O(flows) arithmetic, but still no key draws.

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::packet::{FlowKey, Packet, Proto, TCP_ACK, TCP_SYN};
use crate::spec::{FlowDist, PktSizeDist, WorkloadSpec};

/// A generated packet trace.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Trace {
    /// The specification this trace was generated from.
    pub spec: WorkloadSpec,
    /// Packets in arrival order.
    pub pkts: Vec<Packet>,
}

impl Trace {
    /// Generates `n` packets for `spec`, deterministically from `seed`
    /// (see the module docs for the stream and its cost).
    pub fn generate(spec: &WorkloadSpec, n: usize, seed: u64) -> Trace {
        let flows = Flows::new(spec, StdRng::seed_from_u64(seed));
        let popularity = Popularity::new(spec, flows.count);
        let mut rng = flows.origin.clone();
        rng.advance(DRAWS_PER_FLOW * flows.count as u64);
        let mut seen_syn =
            FlowIdSet::with_capacity_and_hasher(n.min(flows.count), Default::default());
        let mut pkts = Vec::with_capacity(n);
        for i in 0..n {
            let flow_id = popularity.sample(&mut rng) as u32;
            let flow = flows.key(flow_id as usize);
            let size = sample_size(&spec.pkt_size, &mut rng);
            let tcp_flags = if flow.proto == Proto::Tcp {
                // First packet of a flow is a SYN; later ones are SYN with
                // probability `syn_ratio` (flow re-setup), else ACK/data.
                if seen_syn.insert(flow_id) || rng.gen_bool(spec.syn_ratio.clamp(0.0, 1.0)) {
                    TCP_SYN
                } else {
                    TCP_ACK
                }
            } else {
                0
            };
            pkts.push(Packet {
                flow,
                flow_id,
                size,
                tcp_flags,
                seq: i as u32,
                ttl: 64,
                payload_seed: seed.wrapping_mul(0x1000_0000_01b3).wrapping_add(i as u64),
            });
        }
        Trace {
            spec: spec.clone(),
            pkts,
        }
    }

    /// Number of distinct flows that actually appear in the trace.
    pub fn unique_flows(&self) -> usize {
        self.pkts
            .iter()
            .map(|p| p.flow_id)
            .collect::<HashSet<_>>()
            .len()
    }

    /// Mean packet size over the trace.
    pub fn mean_size(&self) -> f64 {
        if self.pkts.is_empty() {
            return 0.0;
        }
        self.pkts.iter().map(|p| f64::from(p.size)).sum::<f64>() / self.pkts.len() as f64
    }

    /// Fraction of packets with the SYN flag set.
    pub fn syn_fraction(&self) -> f64 {
        if self.pkts.is_empty() {
            return 0.0;
        }
        self.pkts.iter().filter(|p| p.is_syn()).count() as f64 / self.pkts.len() as f64
    }
}

/// Stream draws per flow key: protocol, server address, server port.
const DRAWS_PER_FLOW: u64 = 3;

/// Server ports, one drawn per flow.
const SERVER_PORTS: [u16; 4] = [80, 443, 53, 8080];

/// A spec's flow population, each key drawn when a packet needs it.
struct Flows {
    /// The stream just after seeding: flow `i`'s key starts `3i` draws
    /// past it.
    origin: StdRng,
    /// Number of flows, `max(flows, 1)`.
    count: usize,
    /// TCP share, clamped as `gen_bool` needs it.
    tcp_ratio: f64,
}

impl Flows {
    fn new(spec: &WorkloadSpec, origin: StdRng) -> Flows {
        let flows = Flows {
            origin,
            count: spec.flows.max(1) as usize,
            tcp_ratio: spec.tcp_ratio.clamp(0.0, 1.0),
        };
        // An eager table drew every key, so a NaN `tcp_ratio` panicked
        // even for an empty trace; drawing flow 0 keeps that panic.
        flows.key(0);
        flows
    }

    fn key(&self, i: usize) -> FlowKey {
        let mut rng = self.origin.clone();
        rng.advance(DRAWS_PER_FLOW * i as u64);
        let proto = if rng.gen_bool(self.tcp_ratio) {
            Proto::Tcp
        } else {
            Proto::Udp
        };
        // Internal 10.0.0.0/8 clients talking to external servers, with the
        // flow index mixed into the address bits so IPs are distinct.
        FlowKey {
            src_ip: 0x0a00_0000 | (i as u32 & 0x00ff_ffff),
            dst_ip: rng.gen::<u32>() | 0x4000_0000,
            // Reduce in usize *before* narrowing: `i as u16 % 60000`
            // wraps the flow index at 65536 and biases ports toward the
            // low end once the population outgrows u16.
            src_port: 1024 + (i % 60000) as u16,
            dst_port: SERVER_PORTS[rng.gen_range(0usize..4)],
            proto,
        }
    }
}

/// How a packet's flow index is drawn.
enum Popularity {
    /// Uniform over a power-of-two count: the CDF is `(i + 1) / n`
    /// exactly, so [`dyadic_index`] stands in for searching it.
    Dyadic(usize),
    /// Any other popularity: its CDF, searched.
    Cdf(Vec<f64>),
}

impl Popularity {
    fn new(spec: &WorkloadSpec, n: usize) -> Popularity {
        if matches!(spec.flow_dist, FlowDist::Uniform) && n.is_power_of_two() {
            Popularity::Dyadic(n)
        } else {
            Popularity::Cdf(popularity_cdf(spec, n))
        }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let x: f64 = rng.gen();
        match self {
            Popularity::Dyadic(n) => dyadic_index(x, *n),
            Popularity::Cdf(cdf) => search_index(cdf, x),
        }
    }
}

fn popularity_cdf(spec: &WorkloadSpec, n: usize) -> Vec<f64> {
    let weights: Vec<f64> = match spec.flow_dist {
        FlowDist::Uniform => vec![1.0; n],
        FlowDist::Zipf { s } => (1..=n).map(|r| 1.0 / (r as f64).powf(s)).collect(),
    };
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

/// The index a binary search of `cdf` returns for `x`, capped at the last.
fn search_index(cdf: &[f64], x: f64) -> usize {
    match cdf.binary_search_by(|p| p.partial_cmp(&x).expect("finite cdf")) {
        Ok(i) | Err(i) => i.min(cdf.len() - 1),
    }
}

/// [`search_index`] of `x` on the CDF of uniform popularity over `n`, a
/// power of two: `⌈x·n⌉ − 1`, 0 at `x = 0`, capped at `n − 1` (exact; see
/// the module docs).
fn dyadic_index(x: f64, n: usize) -> usize {
    ((x * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Flow ids seen so far, sized by the packets rather than the flows.
type FlowIdSet = HashSet<u32, BuildHasherDefault<FlowIdHasher>>;

/// Fibonacci hashing of a flow id: one multiply in place of SipHash. The
/// ids need no protection against crafted collisions: the trace's own
/// draws pick them.
#[derive(Default)]
struct FlowIdHasher(u64);

impl Hasher for FlowIdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
    }

    fn write_u32(&mut self, id: u32) {
        self.0 = u64::from(id).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

fn sample_size(dist: &PktSizeDist, rng: &mut StdRng) -> u16 {
    match *dist {
        PktSizeDist::Fixed(s) => s,
        PktSizeDist::Bimodal {
            small,
            large,
            small_frac,
        } => {
            if rng.gen_bool(small_frac.clamp(0.0, 1.0)) {
                small
            } else {
                large
            }
        }
        PktSizeDist::Uniform { min, max } => rng.gen_range(min..=max.max(min)),
    }
    .clamp(64, 1518)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{Schedule, BUILTIN_SCHEDULES};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// The eager generator, kept as the oracle: it draws every flow's key
    /// into a table and builds the CDF before the first packet.
    fn eager_generate(spec: &WorkloadSpec, n: usize, seed: u64) -> Trace {
        let mut rng = StdRng::seed_from_u64(seed);
        let flows = eager_flow_table(spec, &mut rng);
        let cdf = popularity_cdf(spec, flows.len());
        let mut seen_syn: HashSet<u32> = HashSet::new();
        let mut pkts = Vec::with_capacity(n);
        for i in 0..n {
            let x: f64 = rng.gen();
            let flow_id = match cdf.binary_search_by(|p| p.partial_cmp(&x).expect("finite cdf")) {
                Ok(i) | Err(i) => i.min(cdf.len() - 1),
            } as u32;
            let flow = flows[flow_id as usize];
            let size = sample_size(&spec.pkt_size, &mut rng);
            let tcp_flags = if flow.proto == Proto::Tcp {
                if seen_syn.insert(flow_id) || rng.gen_bool(spec.syn_ratio.clamp(0.0, 1.0)) {
                    TCP_SYN
                } else {
                    TCP_ACK
                }
            } else {
                0
            };
            pkts.push(Packet {
                flow,
                flow_id,
                size,
                tcp_flags,
                seq: i as u32,
                ttl: 64,
                payload_seed: seed.wrapping_mul(0x1000_0000_01b3).wrapping_add(i as u64),
            });
        }
        Trace {
            spec: spec.clone(),
            pkts,
        }
    }

    fn eager_flow_table(spec: &WorkloadSpec, rng: &mut StdRng) -> Vec<FlowKey> {
        let n = spec.flows.max(1) as usize;
        let mut flows = Vec::with_capacity(n);
        for i in 0..n {
            let proto = if rng.gen_bool(spec.tcp_ratio.clamp(0.0, 1.0)) {
                Proto::Tcp
            } else {
                Proto::Udp
            };
            flows.push(FlowKey {
                src_ip: 0x0a00_0000 | (i as u32 & 0x00ff_ffff),
                dst_ip: rng.gen::<u32>() | 0x4000_0000,
                src_port: 1024 + (i % 60000) as u16,
                dst_port: *[80u16, 443, 53, 8080]
                    .get(rng.gen_range(0usize..4))
                    .expect("index in range"),
                proto,
            });
        }
        flows
    }

    /// Specs over both popularity paths: power-of-two uniform counts
    /// (closed form) and Zipf or other counts (searched CDF), 1 flow, 0
    /// flows (one, by `max`), populations past the source-port wrap at
    /// 60,000 and past 2¹⁶, both TCP share corners and every size
    /// distribution.
    fn oracle_specs() -> Vec<WorkloadSpec> {
        let uniform = |flows| WorkloadSpec {
            flow_dist: FlowDist::Uniform,
            ..WorkloadSpec::large_flows().with_flows(flows)
        };
        vec![
            WorkloadSpec::large_flows(),
            WorkloadSpec::small_flows().with_flows(8192),
            WorkloadSpec::small_flows(),
            WorkloadSpec::min_size(),
            WorkloadSpec::imix(),
            uniform(1),
            uniform(0),
            uniform(64),
            uniform(1000),
            WorkloadSpec {
                pkt_size: PktSizeDist::Uniform { min: 64, max: 1518 },
                ..uniform(60_001)
            },
            uniform(70_000),
            WorkloadSpec::imix().with_flows(100_000),
            WorkloadSpec {
                tcp_ratio: 0.0,
                ..WorkloadSpec::small_flows()
            },
            WorkloadSpec {
                tcp_ratio: 1.0,
                syn_ratio: 0.5,
                ..WorkloadSpec::small_flows().with_flows(2048)
            },
            WorkloadSpec {
                pkt_size: PktSizeDist::Uniform { min: 200, max: 100 },
                ..uniform(16_384)
            },
        ]
    }

    /// 43 seeds: the first 32, the ones goldens and benchmarks use, and
    /// the top of the range.
    fn oracle_seeds() -> Vec<u64> {
        (0..32)
            .chain([42, 700, 701, 903, 904, 921, 1 << 32, 1 << 63])
            .chain([u64::MAX / 3, u64::MAX - 1, u64::MAX])
            .collect()
    }

    #[test]
    fn on_demand_generation_matches_the_eager_generator() {
        const COUNTS: [usize; 6] = [0, 1, 2, 37, 400, 2000];
        let specs = oracle_specs();
        assert_eq!(specs.len(), 15);
        let seeds = oracle_seeds();
        assert_eq!(seeds.len(), 43);
        for (si, spec) in specs.iter().enumerate() {
            for (ki, &seed) in seeds.iter().enumerate() {
                // Every spec meets every count, cycling over the seeds.
                let n = COUNTS[(si + ki) % COUNTS.len()];
                let want = eager_generate(spec, n, seed);
                let got = Trace::generate(spec, n, seed);
                assert_eq!(got.pkts, want.pkts, "{} seed {seed} n {n}", spec.name);
                assert_eq!(got.spec, want.spec);
            }
        }
        for name in BUILTIN_SCHEDULES {
            let schedule = Schedule::builtin(name, 9).expect("builtin");
            for seed in [0, 17, u64::MAX] {
                for epoch in 0..schedule.epochs() {
                    let (phase, spec) = schedule.phase_of(epoch).expect("in range");
                    let want = eager_generate(spec, 400, seed.wrapping_add(phase as u64));
                    let got = schedule.epoch_trace(epoch, 400, seed).expect("in range");
                    assert_eq!(got.pkts, want.pkts, "{name} epoch {epoch}");
                }
            }
        }
    }

    #[test]
    fn invalid_specs_panic_as_the_eager_generator_does() {
        let panics = |f: &dyn Fn() -> Trace| -> Option<String> {
            let err = catch_unwind(AssertUnwindSafe(f)).err()?;
            Some(
                err.downcast_ref::<String>()
                    .cloned()
                    .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default(),
            )
        };
        let specs = [
            // Every key is drawn eagerly, so this panics at 0 packets.
            WorkloadSpec {
                tcp_ratio: f64::NAN,
                ..WorkloadSpec::small_flows().with_flows(8192)
            },
            WorkloadSpec {
                flow_dist: FlowDist::Zipf { s: f64::NAN },
                ..WorkloadSpec::large_flows()
            },
            WorkloadSpec {
                syn_ratio: f64::NAN,
                ..WorkloadSpec::large_flows()
            },
            WorkloadSpec {
                pkt_size: PktSizeDist::Bimodal {
                    small: 64,
                    large: 1500,
                    small_frac: f64::NAN,
                },
                ..WorkloadSpec::small_flows()
            },
        ];
        for spec in &specs {
            for n in [0, 1, 400] {
                let want = panics(&|| eager_generate(spec, n, 3));
                let got = panics(&|| Trace::generate(spec, n, 3));
                assert_eq!(got, want, "{spec:?} n {n}");
            }
        }
        assert!(panics(&|| Trace::generate(&specs[0], 0, 3)).is_some());
    }

    #[test]
    fn dyadic_index_is_the_cdf_search() {
        for n in [1usize, 2, 8192, 1 << 18] {
            let spec = WorkloadSpec {
                flow_dist: FlowDist::Uniform,
                ..WorkloadSpec::small_flows().with_flows(n as u32)
            };
            let cdf = popularity_cdf(&spec, n);
            let check = |x: f64| {
                if (0.0..=1.0).contains(&x) {
                    assert_eq!(dyadic_index(x, n), search_index(&cdf, x), "n {n} x {x:e}");
                }
            };
            check(0.0);
            for k in 0..=n {
                let x = k as f64 / n as f64;
                if k > 0 {
                    assert_eq!(cdf[k - 1], x, "cdf[{}] is exactly {k}/{n}", k - 1);
                }
                check(x);
                check(x.next_down());
                check(x.next_up());
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = WorkloadSpec::large_flows();
        let a = Trace::generate(&spec, 500, 7);
        let b = Trace::generate(&spec, 500, 7);
        assert_eq!(a.pkts, b.pkts);
        let c = Trace::generate(&spec, 500, 8);
        assert_ne!(a.pkts, c.pkts);
    }

    #[test]
    fn zipf_concentrates_traffic() {
        let uni = WorkloadSpec {
            flow_dist: FlowDist::Uniform,
            ..WorkloadSpec::large_flows().with_flows(1000)
        };
        let zipf = WorkloadSpec {
            flow_dist: FlowDist::Zipf { s: 1.3 },
            ..WorkloadSpec::large_flows().with_flows(1000)
        };
        let tu = Trace::generate(&uni, 5000, 1);
        let tz = Trace::generate(&zipf, 5000, 1);
        let top_share = |t: &Trace| {
            let mut counts = vec![0usize; 1000];
            for p in &t.pkts {
                counts[p.flow_id as usize] += 1;
            }
            counts.sort_unstable_by(|a, b| b.cmp(a));
            counts[..10].iter().sum::<usize>() as f64 / t.pkts.len() as f64
        };
        assert!(
            top_share(&tz) > 2.0 * top_share(&tu),
            "zipf {} vs uniform {}",
            top_share(&tz),
            top_share(&tu)
        );
    }

    #[test]
    fn first_packet_per_tcp_flow_is_syn() {
        let spec = WorkloadSpec {
            syn_ratio: 0.0,
            tcp_ratio: 1.0,
            ..WorkloadSpec::large_flows()
        };
        let t = Trace::generate(&spec, 2000, 3);
        let mut seen = HashSet::new();
        for p in &t.pkts {
            if seen.insert(p.flow_id) {
                assert!(p.is_syn(), "first packet of flow {} not SYN", p.flow_id);
            } else {
                assert!(!p.is_syn());
            }
        }
    }

    #[test]
    fn sizes_respect_distribution() {
        let spec = WorkloadSpec::min_size();
        let t = Trace::generate(&spec, 300, 11);
        assert!(t.pkts.iter().all(|p| p.size == 64));
        assert_eq!(t.mean_size(), 64.0);

        let spec = WorkloadSpec {
            pkt_size: PktSizeDist::Uniform { min: 64, max: 128 },
            ..WorkloadSpec::large_flows()
        };
        let t = Trace::generate(&spec, 300, 11);
        assert!(t.pkts.iter().all(|p| (64..=128).contains(&p.size)));
    }

    #[test]
    fn src_ports_follow_flow_index_past_u16_wrap() {
        // Flow tables larger than 65536 entries used to truncate the
        // index to u16 before the modulo, collapsing ports onto the low
        // end of the range. The port must be a pure function of the flow
        // index reduced modulo 60000 in full width.
        let spec = WorkloadSpec {
            flow_dist: FlowDist::Uniform,
            ..WorkloadSpec::large_flows().with_flows(70_000)
        };
        let t = Trace::generate(&spec, 4000, 9);
        let mut past_wrap = 0;
        for p in &t.pkts {
            let want = 1024 + (p.flow_id as usize % 60_000) as u16;
            assert_eq!(p.flow.src_port, want, "flow {}", p.flow_id);
            if p.flow_id >= 65_536 {
                past_wrap += 1;
            }
        }
        assert!(past_wrap > 0, "trace never sampled a flow past the wrap");
    }

    #[test]
    fn syn_fraction_tracks_ratio() {
        let spec = WorkloadSpec {
            syn_ratio: 0.5,
            tcp_ratio: 1.0,
            ..WorkloadSpec::small_flows().with_flows(10)
        };
        let t = Trace::generate(&spec, 4000, 5);
        let f = t.syn_fraction();
        assert!((0.4..0.6).contains(&f), "syn fraction {f}");
    }
}
