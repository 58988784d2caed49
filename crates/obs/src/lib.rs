//! `clara-obs`: dependency-free structured telemetry for the Clara
//! workspace.
//!
//! Three primitives, one process-global registry:
//!
//! - **spans** ([`span!`], [`span_under`]): hierarchical timed regions
//!   with start/stop timestamps and parent links. Spans are recorded only
//!   while the layer is [`enable`]d; a disabled span is a single atomic
//!   load and no allocation.
//! - **metrics** ([`counter`], [`gauge`], [`histogram`]): monotonic
//!   counters, last-write gauges, and histogram summaries (`p50`/`p95`/
//!   `max`). Counters and gauges are always live — they are bare atomics,
//!   cheap enough for the simulator's per-profile-run flushes — while
//!   histograms only record samples when enabled (observing allocates).
//!   A volatile histogram keeps only its newest
//!   [`metrics::VOLATILE_WINDOW`] samples, so a long-running process that
//!   observes per request holds a bounded amount of them.
//! - **[`RunReport`]**: a snapshot of the span tree plus every metric,
//!   serialized to JSON. [`RunReport::to_json_deterministic`] drops all
//!   timing-derived data (and metrics registered as *volatile*) so two
//!   runs that do the same work byte-identically produce byte-identical
//!   reports regardless of worker count — the property
//!   `tests/engine_determinism.rs` pins.
//!
//! # Determinism contract
//!
//! Metrics come in two flavours. *Deterministic* metrics ([`counter`],
//! [`gauge`], [`histogram`]) must only ever receive values that are a
//! pure function of the work performed (task counts, simulated cycles,
//! epoch losses). *Volatile* metrics ([`volatile_counter`],
//! [`volatile_gauge`], [`volatile_histogram`]) may receive wall-clock
//! durations, per-worker attribution, or anything else that varies
//! between identical runs; they appear in [`RunReport::to_json`] but are
//! excluded from the deterministic serialization.
//!
//! # Why not `tracing`?
//!
//! The build environment is offline, and the telemetry must not perturb
//! the engine's bit-identical parallel-vs-serial guarantee; a ~500-line
//! purpose-built layer keeps both properties auditable.

pub mod capture;
mod json;
pub mod metrics;
pub mod report;
pub mod span;

use std::sync::atomic::{AtomicBool, Ordering};

pub use capture::{capture_telemetry, replay_telemetry, CapturedSpan, CapturedTelemetry};
pub use metrics::{
    counter, gauge, histogram, volatile_counter, volatile_gauge, volatile_histogram, Counter,
    Gauge, HistSummary, Histogram,
};
pub use report::{resolve_sink, sink_from_env, RunReport, SpanNode};
pub use span::{
    attach, current, span, span_detail, span_under, ContextGuard, SpanGuard, SpanHandle,
};

/// Master switch for the allocation-bearing parts (spans, histograms).
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns span and histogram recording on (counters/gauges are always on).
pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns span and histogram recording back off.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Whether span/histogram recording is currently on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Zeroes every registered metric and drops all recorded spans.
///
/// Metric *handles* stay valid: the registry keeps its entries and zeroes
/// the shared cells in place, so `OnceLock`-cached [`Counter`]s in hot
/// code keep pointing at live storage across resets.
pub fn reset() {
    metrics::reset_all();
    span::reset_spans();
}

/// Opens a span: `span!("name")` or `span!("name", "detail {}", x)`.
///
/// The detail string is only formatted while the layer is enabled, so a
/// disabled call site costs one atomic load.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
    ($name:expr, $($arg:tt)*) => {
        if $crate::enabled() {
            $crate::span_detail($name, &format!($($arg)*))
        } else {
            $crate::SpanGuard::disarmed()
        }
    };
}
