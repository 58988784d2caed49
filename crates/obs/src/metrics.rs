//! Process-global metrics registry: counters, gauges, histograms.
//!
//! Handles are cheap `Arc` clones of the registered cell; hot code caches
//! them in `OnceLock` statics so the steady-state cost of a counter
//! update is a single relaxed atomic add — no lock, no allocation.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonic counter. Always live, even when the layer is disabled.
///
/// The handle carries its registered name and volatility so that
/// deterministic increments can feed the active
/// [capture frame](crate::capture_telemetry), if any.
#[derive(Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
    name: Arc<str>,
    volatile: bool,
}

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
        if !self.volatile {
            crate::capture::note_counter(&self.name, n);
        }
    }

    /// Adds 1.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }

    /// The name this counter was registered under.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// A last-write-wins gauge holding an `f64`. Always live.
#[derive(Clone)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.cell.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> f64 {
        f64::from_bits(self.cell.load(Ordering::Relaxed))
    }
}

/// Most samples a volatile histogram keeps: the newest `VOLATILE_WINDOW`
/// observations, each new one overwriting the oldest once the window is
/// full. A daemon observes per request and reads its histograms only at
/// shutdown, so keeping every sample would grow its heap without bound.
/// Deterministic histograms keep every sample: their summaries are part
/// of byte-identical reports.
pub const VOLATILE_WINDOW: usize = 1 << 16;

/// A histogram's stored samples: all of them, or for a volatile
/// histogram a ring of the newest [`VOLATILE_WINDOW`].
struct Samples {
    values: Vec<f64>,
    /// Slot the next sample overwrites once a volatile ring is full.
    next: usize,
    volatile: bool,
}

impl Samples {
    fn new(volatile: bool) -> Samples {
        Samples {
            values: Vec::new(),
            next: 0,
            volatile,
        }
    }

    fn push(&mut self, v: f64) {
        if self.volatile && self.values.len() == VOLATILE_WINDOW {
            self.values[self.next] = v;
            self.next = (self.next + 1) % VOLATILE_WINDOW;
        } else {
            self.values.push(v);
        }
    }

    fn clear(&mut self) {
        self.values.clear();
        self.next = 0;
    }
}

/// A histogram of `f64` samples, summarized as `p50`/`p95`/`p99`/`max`
/// in run reports. Samples are only recorded while the layer is enabled
/// (recording allocates); a volatile histogram summarizes only its newest
/// [`VOLATILE_WINDOW`] samples.
#[derive(Clone)]
pub struct Histogram {
    samples: Arc<Mutex<Samples>>,
}

impl Histogram {
    /// Records a sample (no-op while the layer is disabled).
    pub fn observe(&self, v: f64) {
        if !crate::enabled() {
            return;
        }
        self.samples.lock().expect("histogram poisoned").push(v);
    }

    /// Number of stored samples.
    pub fn count(&self) -> usize {
        self.samples
            .lock()
            .expect("histogram poisoned")
            .values
            .len()
    }

    /// Summary of the stored samples, or `None` when empty.
    pub fn summary(&self) -> Option<HistSummary> {
        HistSummary::from_samples(&self.samples.lock().expect("histogram poisoned").values)
    }
}

/// Order-independent summary of a histogram's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistSummary {
    /// Sample count.
    pub count: u64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Arithmetic mean (summed in sorted order, so schedule-independent).
    pub mean: f64,
    /// Median (nearest-rank on the sorted samples).
    pub p50: f64,
    /// 95th percentile (nearest-rank).
    pub p95: f64,
    /// 99th percentile (nearest-rank) — the serving layer's tail-latency
    /// headline number.
    pub p99: f64,
}

impl HistSummary {
    /// Computes a summary from raw samples; `None` when empty.
    ///
    /// The samples are sorted first, which makes every derived statistic
    /// — including the mean's floating-point summation order — a pure
    /// function of the sample *multiset*, not the arrival order.
    pub fn from_samples(samples: &[f64]) -> Option<HistSummary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let n = sorted.len();
        let rank = |q: f64| sorted[((q * (n - 1) as f64).round() as usize).min(n - 1)];
        Some(HistSummary {
            count: n as u64,
            min: sorted[0],
            max: sorted[n - 1],
            mean: sorted.iter().sum::<f64>() / n as f64,
            p50: rank(0.50),
            p95: rank(0.95),
            p99: rank(0.99),
        })
    }
}

// ---- registry ----------------------------------------------------------

struct Registered<T> {
    cell: T,
    volatile: bool,
}

type Registry<T> = OnceLock<Mutex<BTreeMap<String, Registered<T>>>>;

static COUNTERS: Registry<Arc<AtomicU64>> = OnceLock::new();
static GAUGES: Registry<Arc<AtomicU64>> = OnceLock::new();
static HISTOGRAMS: Registry<Arc<Mutex<Samples>>> = OnceLock::new();

fn register<T: Clone>(
    reg: &Registry<T>,
    name: &str,
    volatile: bool,
    fresh: impl FnOnce() -> T,
) -> T {
    let mut guard = reg
        .get_or_init(Mutex::default)
        .lock()
        .expect("registry poisoned");
    if let Some(r) = guard.get(name) {
        return r.cell.clone();
    }
    let cell = fresh();
    guard.insert(
        name.to_string(),
        Registered {
            cell: cell.clone(),
            volatile,
        },
    );
    cell
}

/// Registers (or looks up) a **deterministic** counter: its value must be
/// a pure function of the work performed, never of timing or scheduling.
pub fn counter(name: &str) -> Counter {
    Counter {
        cell: register(&COUNTERS, name, false, || Arc::new(AtomicU64::new(0))),
        name: Arc::from(name),
        volatile: false,
    }
}

/// Registers (or looks up) a **volatile** counter (timings, per-worker
/// attribution); excluded from deterministic run reports.
pub fn volatile_counter(name: &str) -> Counter {
    Counter {
        cell: register(&COUNTERS, name, true, || Arc::new(AtomicU64::new(0))),
        name: Arc::from(name),
        volatile: true,
    }
}

/// Registers (or looks up) a deterministic gauge.
pub fn gauge(name: &str) -> Gauge {
    Gauge {
        cell: register(&GAUGES, name, false, || Arc::new(AtomicU64::new(0))),
    }
}

/// Registers (or looks up) a volatile gauge.
pub fn volatile_gauge(name: &str) -> Gauge {
    Gauge {
        cell: register(&GAUGES, name, true, || Arc::new(AtomicU64::new(0))),
    }
}

/// Registers (or looks up) a deterministic histogram.
pub fn histogram(name: &str) -> Histogram {
    Histogram {
        samples: register(&HISTOGRAMS, name, false, || {
            Arc::new(Mutex::new(Samples::new(false)))
        }),
    }
}

/// Registers (or looks up) a volatile histogram.
pub fn volatile_histogram(name: &str) -> Histogram {
    Histogram {
        samples: register(&HISTOGRAMS, name, true, || {
            Arc::new(Mutex::new(Samples::new(true)))
        }),
    }
}

/// Zeroes all cells in place; registered handles stay valid.
pub(crate) fn reset_all() {
    if let Some(m) = COUNTERS.get() {
        for r in m.lock().expect("registry poisoned").values() {
            r.cell.store(0, Ordering::Relaxed);
        }
    }
    if let Some(m) = GAUGES.get() {
        for r in m.lock().expect("registry poisoned").values() {
            r.cell.store(0f64.to_bits(), Ordering::Relaxed);
        }
    }
    if let Some(m) = HISTOGRAMS.get() {
        for r in m.lock().expect("registry poisoned").values() {
            r.cell.lock().expect("histogram poisoned").clear();
        }
    }
}

/// Name-sorted `(name, value, volatile)` snapshot of all counters.
pub(crate) fn counters_snapshot() -> Vec<(String, u64, bool)> {
    let Some(m) = COUNTERS.get() else {
        return Vec::new();
    };
    m.lock()
        .expect("registry poisoned")
        .iter()
        .map(|(k, r)| (k.clone(), r.cell.load(Ordering::Relaxed), r.volatile))
        .collect()
}

/// Name-sorted `(name, value, volatile)` snapshot of all gauges.
pub(crate) fn gauges_snapshot() -> Vec<(String, f64, bool)> {
    let Some(m) = GAUGES.get() else {
        return Vec::new();
    };
    m.lock()
        .expect("registry poisoned")
        .iter()
        .map(|(k, r)| {
            (
                k.clone(),
                f64::from_bits(r.cell.load(Ordering::Relaxed)),
                r.volatile,
            )
        })
        .collect()
}

/// Name-sorted `(name, summary, volatile)` snapshot of all non-empty
/// histograms.
pub(crate) fn histograms_snapshot() -> Vec<(String, HistSummary, bool)> {
    let Some(m) = HISTOGRAMS.get() else {
        return Vec::new();
    };
    m.lock()
        .expect("registry poisoned")
        .iter()
        .filter_map(|(k, r)| {
            HistSummary::from_samples(&r.cell.lock().expect("histogram poisoned").values)
                .map(|s| (k.clone(), s, r.volatile))
        })
        .collect()
}
