//! Seeded request streams. Every workload's inputs are a pure function of
//! `--seed` and the request index, so one seed replays the same requests
//! on any commit, and the program under test receives only the generated
//! inputs.

use clara_repro::clara::{PlacementRequest, Precision};
use clara_repro::serve::{Request, WorkSpec};

/// Packets per generated trace on every serve workload.
pub const PACKETS: usize = 400;

/// Distinct NFs the hot workloads cycle (each at both precisions).
pub const HOT_NFS: usize = 8;

/// Replay epochs of the plan workload's drift-driven placements.
pub const REPLAY_EPOCHS: usize = 6;

const SALT_HOT: u64 = 0x686f_7400;
const SALT_DRIFT: u64 = 0x6472_6966;
const SALT_PLAN: u64 = 0x706c_616e;
const SALT_ONESHOT: u64 = 0x6f6e_6573;
const SALT_CHAIN: u64 = 0x6368_6169;

/// SplitMix64's finalizer: a bijective 64-bit mix.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded draw for item `i` of stream `salt`.
fn draw(seed: u64, salt: u64, i: u64) -> u64 {
    mix(mix(seed ^ salt) ^ mix(i))
}

fn below(seed: u64, salt: u64, i: u64, n: usize) -> usize {
    (draw(seed, salt, i) % n as u64) as usize
}

fn spec(nf: &str, seed: u64, small_flows: bool, backend: Option<&str>, p: Precision) -> WorkSpec {
    WorkSpec {
        nf: nf.to_string(),
        packets: PACKETS,
        seed,
        small_flows,
        backend: backend.map(str::to_string),
        precision: Some(p),
    }
}

/// The hot workloads' 16 keys: `HOT_NFS` distinct seeded NFs × {f64, q16}
/// on the daemon's default backend, each with a fixed trace seed.
pub fn hot_keys(seed: u64, corpus: &[&str]) -> Vec<WorkSpec> {
    let mut pool: Vec<&str> = corpus.to_vec();
    let mut keys = Vec::with_capacity(2 * HOT_NFS);
    for j in 0..HOT_NFS.min(pool.len()) {
        let nf = pool.swap_remove(below(seed, SALT_HOT, j as u64, pool.len()));
        let trace_seed = draw(seed, SALT_HOT + 1, j as u64) >> 1;
        for p in [Precision::F64, Precision::Q16] {
            keys.push(spec(nf, trace_seed, false, None, p));
        }
    }
    keys
}

/// First trace seed of the drift stream; warm-up seeds count down from
/// just below it, so no measured request repeats a warm-up key.
fn drift_base(seed: u64) -> u64 {
    draw(seed, SALT_DRIFT, u64::MAX)
}

/// Item `i` of a seeded balanced stream over `n` choices: each run of
/// `n` consecutive items is a fresh permutation, so every choice is
/// uniform and every seed draws each one equally often.
fn cycled(seed: u64, salt: u64, i: u64, n: usize) -> usize {
    let round = i / n as u64;
    let mut perm: Vec<usize> = (0..n).collect();
    for j in (1..n).rev() {
        perm.swap(j, below(seed, salt ^ mix(round), j as u64, j + 1));
    }
    perm[(i % n as u64) as usize]
}

/// Request `i` of the drift stream: a balanced NF, backends round-robin,
/// large/small flows and f64/q16 alternating so all 16 (backend, flows,
/// precision) combinations cycle, and a trace seed that never repeats.
pub fn drift_spec(seed: u64, i: u64, corpus: &[&str], backends: &[&str]) -> WorkSpec {
    let nf = corpus[cycled(seed, SALT_DRIFT, i, corpus.len())];
    let b = backends.len() as u64;
    let precision = if (i / (2 * b)).is_multiple_of(2) {
        Precision::F64
    } else {
        Precision::Q16
    };
    spec(
        nf,
        drift_base(seed).wrapping_add(i),
        (i / b) % 2 == 1,
        Some(backends[(i % b) as usize]),
        precision,
    )
}

/// One request per (NF, precision, backend) with seeds outside the
/// stream: fills the compile cache and the per-module predictor memo so
/// every measured drift request is a pure trace-dependent miss.
pub fn drift_warmup(seed: u64, corpus: &[&str], backends: &[&str]) -> Vec<WorkSpec> {
    let mut out = Vec::new();
    for nf in corpus {
        for p in [Precision::F64, Precision::Q16] {
            for b in backends {
                let j = out.len() as u64;
                out.push(spec(
                    nf,
                    drift_base(seed).wrapping_sub(1 + j),
                    false,
                    Some(b),
                    p,
                ));
            }
        }
    }
    out
}

/// Fresh miss-path specs outside both the drift stream and its warm-up
/// (the traced run's stage decomposition uses them).
pub fn drift_fresh(seed: u64, i: u64, corpus: &[&str], backends: &[&str]) -> WorkSpec {
    let mut w = drift_spec(seed, i, corpus, backends);
    w.seed = drift_base(seed).wrapping_sub(1 << 40).wrapping_sub(i);
    w
}

/// The three request classes of the plan workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanKind {
    /// `op:"analyze"` with a fresh seed.
    Analyze,
    /// `op:"place"` of a 2-NF chain with a fresh seed.
    Place,
    /// `op:"place"` with `"replay":"shift","epochs":6`.
    Replay,
}

impl PlanKind {
    /// The class of plan request `k`: a fixed 40/40/20 pattern, so every
    /// seed sends the same mix.
    pub fn of(k: u64) -> PlanKind {
        match k % 5 {
            0 | 2 => PlanKind::Analyze,
            1 | 3 => PlanKind::Place,
            _ => PlanKind::Replay,
        }
    }
}

/// Request `k` of the plan stream: backends round-robin, both precisions,
/// balanced NFs (two distinct ones per chain), and a fresh seed each.
pub fn plan_request(seed: u64, k: u64, corpus: &[&str], backends: &[&str]) -> Request {
    let backend = backends[(k % backends.len() as u64) as usize];
    let precision = if (k / 5).is_multiple_of(2) {
        Precision::F64
    } else {
        Precision::Q16
    };
    let trace_seed = draw(seed, SALT_PLAN, u64::MAX).wrapping_add(k);
    let kind = PlanKind::of(k);
    // Each class walks its own balanced NF stream.
    let nth = (k / 5) * 2 + u64::from(k % 5 >= 2);
    let first = match kind {
        PlanKind::Replay => cycled(seed, SALT_PLAN + 2, k / 5, corpus.len()),
        _ => cycled(seed, SALT_PLAN + kind as u64, nth, corpus.len()),
    };
    match kind {
        PlanKind::Analyze => Request::Analyze(spec(
            corpus[first],
            trace_seed,
            false,
            Some(backend),
            precision,
        )),
        kind => {
            let step = 1 + below(seed, SALT_CHAIN, k, corpus.len() - 1);
            let second = (first + step) % corpus.len();
            let mut b = PlacementRequest::builder([corpus[first], corpus[second]])
                .packets(PACKETS)
                .seed(trace_seed)
                .backend(backend)
                .precision(precision);
            if kind == PlanKind::Replay {
                b = b.replay("shift").epochs(REPLAY_EPOCHS);
            }
            Request::Place(b.build())
        }
    }
}

/// The NF index one-shot `i` of the offline workload analyzes: a
/// balanced seeded cycle over the corpus.
pub fn oneshot_nf(seed: u64, i: u64, n: usize) -> usize {
    cycled(seed, SALT_ONESHOT, i, n)
}

/// The trace seed each one-shot `clara analyze NF` runs with.
pub fn oneshot_seed(seed: u64, nf_index: usize) -> u64 {
    draw(seed, SALT_ONESHOT + 1, nf_index as u64) >> 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use clara_repro::serve::protocol::render_request;
    use std::collections::HashSet;

    const CORPUS: [&str; 6] = ["nat", "lb", "dpi", "cmsketch", "firewall", "iplookup"];
    const BACKENDS: [&str; 4] = ["a", "b", "c", "d"];

    fn lines(seed: u64) -> Vec<String> {
        let mut out: Vec<String> = hot_keys(seed, &CORPUS)
            .into_iter()
            .map(|w| render_request(None, &Request::Predict(w)))
            .collect();
        out.extend((0..200).map(|i| {
            render_request(
                None,
                &Request::Predict(drift_spec(seed, i, &CORPUS, &BACKENDS)),
            )
        }));
        out.extend(
            (0..200).map(|k| render_request(None, &plan_request(seed, k, &CORPUS, &BACKENDS))),
        );
        out
    }

    #[test]
    fn same_seed_gives_identical_request_lines() {
        assert_eq!(lines(7), lines(7));
        assert_ne!(lines(7), lines(8));
    }

    #[test]
    fn hot_keys_are_distinct_nfs_at_both_precisions() {
        let corpus: Vec<String> = (0..32).map(|i| format!("nf{i}")).collect();
        let corpus: Vec<&str> = corpus.iter().map(String::as_str).collect();
        let keys = hot_keys(11, &corpus);
        assert_eq!(keys.len(), 16);
        let nfs: HashSet<&str> = keys.iter().map(|w| w.nf.as_str()).collect();
        assert_eq!(nfs.len(), HOT_NFS);
        let distinct: HashSet<String> = keys
            .iter()
            .map(|w| render_request(None, &Request::Predict(w.clone())))
            .collect();
        assert_eq!(distinct.len(), 16);
    }

    #[test]
    fn drift_never_repeats_a_key() {
        let key = |w: &WorkSpec| {
            (
                w.nf.clone(),
                w.seed,
                w.small_flows,
                w.backend.clone(),
                w.precision,
            )
        };
        let mut seen = HashSet::new();
        for i in 0..20_000 {
            assert!(
                seen.insert(key(&drift_spec(5, i, &CORPUS, &BACKENDS))),
                "repeat at {i}"
            );
        }
        for w in drift_warmup(5, &CORPUS, &BACKENDS) {
            assert!(seen.insert(key(&w)), "warm-up overlaps the stream");
        }
        for i in 0..1000 {
            assert!(seen.insert(key(&drift_fresh(5, i, &CORPUS, &BACKENDS))));
        }
        // All 16 (backend, flows, precision) combinations cycle.
        let combos: HashSet<_> = (0..16)
            .map(|i| {
                let w = drift_spec(5, i, &CORPUS, &BACKENDS);
                (w.backend, w.small_flows, w.precision)
            })
            .collect();
        assert_eq!(combos.len(), 16);
    }

    #[test]
    fn balanced_streams_visit_every_nf_equally() {
        let mut counts = [0usize; 6];
        for i in 0..600 {
            counts[cycled(4, SALT_DRIFT, i, 6)] += 1;
        }
        assert_eq!(counts, [100; 6]);
        assert_ne!(
            (0..6)
                .map(|i| cycled(4, SALT_DRIFT, i, 6))
                .collect::<Vec<_>>(),
            (6..12)
                .map(|i| cycled(4, SALT_DRIFT, i, 6))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn plan_mix_is_forty_forty_twenty_with_distinct_chains() {
        let mut counts = [0usize; 3];
        for k in 0..1000 {
            match plan_request(9, k, &CORPUS, &BACKENDS) {
                Request::Analyze(_) => counts[0] += 1,
                Request::Place(r) if r.replay.is_some() => {
                    assert_eq!(r.epochs, REPLAY_EPOCHS);
                    assert_ne!(r.nfs[0], r.nfs[1]);
                    counts[2] += 1;
                }
                Request::Place(r) => {
                    assert_ne!(r.nfs[0], r.nfs[1]);
                    counts[1] += 1;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(counts, [400, 400, 200]);
    }
}
