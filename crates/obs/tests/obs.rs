//! Unit-level coverage for the telemetry layer itself.
//!
//! Spans, histograms, and `reset` act on process-global state, so every
//! test here serializes on one lock and the metric names are unique per
//! test.

use std::sync::Mutex;

use clara_obs as obs;

static LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[test]
fn counters_accumulate_and_survive_reset_with_live_handles() {
    let _g = locked();
    let c = obs::counter("test.counter.a");
    c.add(3);
    c.incr();
    assert_eq!(c.value(), 4);
    obs::reset();
    // The handle still points at live (zeroed) storage.
    assert_eq!(c.value(), 0);
    c.add(2);
    assert_eq!(obs::counter("test.counter.a").value(), 2);
}

#[test]
fn gauges_hold_last_write() {
    let _g = locked();
    let g = obs::gauge("test.gauge.a");
    g.set(1.5);
    g.set(-2.25);
    assert_eq!(g.value(), -2.25);
}

#[test]
fn histogram_summary_percentiles() {
    let _g = locked();
    obs::enable();
    let h = obs::histogram("test.hist.a");
    obs::reset();
    for v in 1..=100 {
        h.observe(f64::from(v));
    }
    let s = h.summary().expect("non-empty");
    assert_eq!(s.count, 100);
    assert_eq!(s.min, 1.0);
    assert_eq!(s.max, 100.0);
    assert_eq!(s.p50, 51.0); // nearest-rank on 0-indexed 99 elements
    assert_eq!(s.p95, 95.0);
    assert_eq!(s.p99, 99.0);
    assert!((s.mean - 50.5).abs() < 1e-12);
    obs::disable();
}

#[test]
fn volatile_histograms_keep_only_the_newest_window() {
    let _g = locked();
    obs::enable();
    obs::reset();
    let n = obs::metrics::VOLATILE_WINDOW;
    let volatile = obs::volatile_histogram("test.hist.ring.volatile");
    let det = obs::histogram("test.hist.ring.det");
    for v in 0..n + 1000 {
        volatile.observe(v as f64);
        det.observe(v as f64);
    }
    let newest =
        obs::HistSummary::from_samples(&(1000..n + 1000).map(|v| v as f64).collect::<Vec<_>>());
    assert_eq!(volatile.count(), n);
    assert_eq!(
        volatile.summary(),
        newest,
        "the volatile histogram summarizes exactly the newest {n} samples"
    );
    let all = obs::HistSummary::from_samples(&(0..n + 1000).map(|v| v as f64).collect::<Vec<_>>());
    assert_eq!(det.count(), n + 1000);
    assert_eq!(
        det.summary(),
        all,
        "the deterministic histogram keeps every sample"
    );
    // Reset empties the ring, and it refills from its first slot.
    obs::reset();
    volatile.observe(7.0);
    assert_eq!(volatile.count(), 1);
    assert_eq!(volatile.summary().map(|s| s.max), Some(7.0));
    obs::disable();
}

#[test]
fn histogram_is_silent_while_disabled() {
    let _g = locked();
    obs::disable();
    let h = obs::histogram("test.hist.disabled");
    h.observe(1.0);
    assert_eq!(h.count(), 0);
}

#[test]
fn span_tree_nesting_and_ordering() {
    let _g = locked();
    obs::enable();
    obs::reset();
    {
        let root = obs::span!("root", "n={}", 2);
        {
            let _a = obs::span("child-a");
            let _aa = obs::span("grandchild");
        }
        let _b = obs::span_under(root.handle(), "child-b");
    }
    let report = obs::RunReport::capture();
    obs::disable();

    assert_eq!(report.spans.len(), 1);
    let root = &report.spans[0];
    assert_eq!(root.name, "root");
    assert_eq!(root.detail, "n=2");
    let names: Vec<&str> = root.children.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(names, ["child-a", "child-b"], "children in start order");
    assert_eq!(root.children[0].children[0].name, "grandchild");
    let gc = &root.children[0].children[0];
    assert!(gc.start_ns >= root.start_ns);
    assert!(gc.end_ns <= root.children[0].end_ns);
    assert!(root.end_ns >= gc.end_ns);
}

#[test]
fn spans_cross_threads_via_handles() {
    let _g = locked();
    obs::enable();
    obs::reset();
    {
        let root = obs::span("xthread-root");
        let h = root.handle();
        std::thread::scope(|s| {
            s.spawn(move || {
                let _c = obs::span_under(h, "spawned-child");
            });
        });
    }
    let report = obs::RunReport::capture();
    obs::disable();
    let root = report.find_span("xthread-root").expect("root recorded");
    assert_eq!(root.children.len(), 1);
    assert_eq!(root.children[0].name, "spawned-child");
}

#[test]
fn disabled_spans_record_nothing() {
    let _g = locked();
    obs::disable();
    obs::reset();
    {
        let _s = obs::span("invisible");
        let _d = obs::span!("also-invisible", "expensive {}", 1);
    }
    assert!(obs::RunReport::capture().spans.is_empty());
}

#[test]
fn deterministic_json_excludes_volatile_and_timestamps() {
    let _g = locked();
    obs::enable();
    obs::reset();
    obs::counter("test.det.work").add(7);
    obs::volatile_counter("test.det.wall_ns").add(123_456);
    {
        let _s = obs::span("det-span");
    }
    let report = obs::RunReport::capture();
    obs::disable();

    let full = report.to_json();
    let det = report.to_json_deterministic();
    assert!(full.contains("test.det.wall_ns"));
    assert!(full.contains("start_ns"));
    assert!(det.contains("\"test.det.work\":7"));
    assert!(!det.contains("test.det.wall_ns"));
    assert!(!det.contains("start_ns"));
    assert!(det.contains("\"name\":\"det-span\""));
}

#[test]
fn deterministic_json_sorts_sibling_spans() {
    let _g = locked();
    obs::enable();
    obs::reset();
    {
        let _b = obs::span("zeta");
    }
    {
        let _a = obs::span("alpha");
    }
    let det = obs::RunReport::capture().to_json_deterministic();
    obs::disable();
    let zeta = det.find("zeta").expect("zeta present");
    let alpha = det.find("alpha").expect("alpha present");
    assert!(alpha < zeta, "siblings sorted by name: {det}");
}

#[test]
fn report_write_creates_parent_dirs() {
    let _g = locked();
    let dir = std::env::temp_dir().join("clara_obs_test_reports");
    std::fs::remove_dir_all(&dir).ok();
    let path = dir.join("nested").join("r.json");
    obs::RunReport::capture().write(&path).expect("writes");
    let body = std::fs::read_to_string(&path).expect("readable");
    assert!(body.starts_with('{') && body.ends_with("}\n"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resolve_sink_rules() {
    let _g = locked();
    let dir = std::env::temp_dir().join("clara_obs_sink_dir");
    std::fs::create_dir_all(&dir).expect("mkdir");
    assert_eq!(
        obs::resolve_sink(dir.to_str().expect("utf8"), "BENCH_x.json"),
        dir.join("BENCH_x.json")
    );
    assert_eq!(
        obs::resolve_sink("1", "BENCH_x.json"),
        std::path::PathBuf::from("BENCH_x.json")
    );
    assert_eq!(
        obs::resolve_sink("out/custom.json", "BENCH_x.json"),
        std::path::PathBuf::from("out/custom.json")
    );
    std::fs::remove_dir_all(&dir).ok();
}
