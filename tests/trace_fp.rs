//! Synthesized traces are pinned bit for bit.
//!
//! Every profile, prediction, placement and cache key starts from a
//! `Trace::generate` output, so a change to how traces are synthesized
//! must not move a single packet. This test renders the
//! `trace_fingerprint` of each built-in workload spec at several seeds
//! and packet counts, and of every epoch of the four built-in schedules,
//! one line each, and compares the rendering with a committed golden.
//!
//! The golden must only change with an intended change to the generator;
//! regenerate it with `CLARA_BLESS=1 cargo test --release --test trace_fp`
//! on the commit before that change.

use clara_repro::nicsim::trace_fingerprint;
use clara_repro::trafgen::{Schedule, Trace, WorkloadSpec, BUILTIN_SCHEDULES};

fn golden_path() -> String {
    format!("{}/tests/golden/trace_fp.txt", env!("CARGO_MANIFEST_DIR"))
}

/// Every built-in spec the analysis paths synthesize from, under a label
/// that tells the two small-flows populations apart.
fn specs() -> Vec<(&'static str, WorkloadSpec)> {
    vec![
        ("large-flows", WorkloadSpec::large_flows()),
        (
            "small-flows-8192",
            WorkloadSpec::small_flows().with_flows(8192),
        ),
        ("small-flows", WorkloadSpec::small_flows()),
        ("min-size", WorkloadSpec::min_size()),
        ("imix", WorkloadSpec::imix()),
    ]
}

const SEEDS: [u64; 5] = [0, 1, 42, 903, u64::MAX];
const PACKETS: [usize; 4] = [0, 1, 400, 2000];

/// Schedules are sized to 9 epochs, so `churn` has an uneven phase and
/// `shift` and `burst` more than one epoch per phase.
const EPOCHS: usize = 9;

fn render() -> String {
    let mut out = String::new();
    for (label, spec) in specs() {
        for seed in SEEDS {
            for n in PACKETS {
                let fp = trace_fingerprint(&Trace::generate(&spec, n, seed));
                out.push_str(&format!("{label} seed={seed} packets={n} {fp:016x}\n"));
            }
        }
    }
    for name in BUILTIN_SCHEDULES {
        let schedule = Schedule::builtin(name, EPOCHS).expect("builtin schedule");
        for epoch in 0..schedule.epochs() {
            let trace = schedule
                .epoch_trace(epoch, 400, 17)
                .expect("epoch in range");
            let fp = trace_fingerprint(&trace);
            out.push_str(&format!("{name} epoch={epoch} {fp:016x}\n"));
        }
    }
    out
}

#[test]
fn traces_match_golden() {
    let rendered = render();
    let path = golden_path();
    if std::env::var("CLARA_BLESS").is_ok() {
        std::fs::write(&path, &rendered).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!("{path} missing; regenerate with CLARA_BLESS=1 cargo test --release --test trace_fp")
    });
    for (got, want) in rendered.lines().zip(want.lines()) {
        assert_eq!(
            got, want,
            "a synthesized trace changed; if intentional, regenerate with \
             CLARA_BLESS=1 cargo test --release --test trace_fp"
        );
    }
    assert_eq!(rendered.lines().count(), want.lines().count());
}
