//! Run reports: one JSON document per run, spans + metrics.

use std::io;
use std::path::{Path, PathBuf};

use crate::json;
use crate::metrics::{self, HistSummary};
use crate::span;

/// One node of the captured span tree.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// Span name (stage label).
    pub name: String,
    /// Free-form detail attached at creation (may be empty).
    pub detail: String,
    /// Start, nanoseconds since the process's telemetry epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the epoch (start for still-open spans).
    pub end_ns: u64,
    /// Nested spans, in start order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Wall-clock nanoseconds covered by the span.
    pub fn wall_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Depth-first search by name.
    pub fn find(&self, name: &str) -> Option<&SpanNode> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }
}

/// A point-in-time snapshot of the whole telemetry state.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// `(name, value, volatile)` for every registered counter.
    pub counters: Vec<(String, u64, bool)>,
    /// `(name, value, volatile)` for every registered gauge.
    pub gauges: Vec<(String, f64, bool)>,
    /// `(name, summary, volatile)` for every non-empty histogram.
    pub histograms: Vec<(String, HistSummary, bool)>,
    /// Root spans (each with its subtree), in start order.
    pub spans: Vec<SpanNode>,
}

impl RunReport {
    /// Snapshots the current spans and metrics.
    pub fn capture() -> RunReport {
        let recs = span::snapshot();
        // Build the forest bottom-up: records are in start order, so a
        // child's parent always precedes it.
        let mut nodes: Vec<Option<SpanNode>> = recs
            .iter()
            .map(|r| {
                Some(SpanNode {
                    name: r.name.clone(),
                    detail: r.detail.clone(),
                    start_ns: r.start_ns,
                    end_ns: r.end_ns,
                    children: Vec::new(),
                })
            })
            .collect();
        let mut roots = Vec::new();
        for i in (0..recs.len()).rev() {
            let node = nodes[i].take().expect("node taken once");
            let parent = recs[i].parent as usize;
            match parent.checked_sub(1).and_then(|p| nodes.get_mut(p)) {
                Some(Some(p)) => p.children.insert(0, node),
                // Parent slot already consumed (malformed nesting) or 0:
                // treat as a root.
                _ => roots.insert(0, node),
            }
        }
        RunReport {
            counters: metrics::counters_snapshot(),
            gauges: metrics::gauges_snapshot(),
            histograms: metrics::histograms_snapshot(),
            spans: roots,
        }
    }

    /// Looks up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    /// Depth-first search across all root spans.
    pub fn find_span(&self, name: &str) -> Option<&SpanNode> {
        self.spans.iter().find_map(|s| s.find(name))
    }

    /// Full JSON serialization: every metric (volatile included) and the
    /// span tree with timestamps. Compact, keys in fixed order.
    pub fn to_json(&self) -> String {
        self.render(true)
    }

    /// Deterministic JSON serialization: volatile metrics and all
    /// timestamps are dropped, and span children are sorted by
    /// `(name, detail)`, so byte-identical work produces byte-identical
    /// output regardless of worker count or scheduling.
    pub fn to_json_deterministic(&self) -> String {
        self.render(false)
    }

    fn render(&self, full: bool) -> String {
        let mut out = String::new();
        out.push('{');
        let mut first = true;

        json::push_key(&mut out, &mut first, "counters");
        out.push('{');
        let mut f = true;
        for (name, v, volatile) in &self.counters {
            if *volatile && !full {
                continue;
            }
            json::push_key(&mut out, &mut f, name);
            json::push_u64(&mut out, *v);
        }
        out.push('}');

        json::push_key(&mut out, &mut first, "gauges");
        out.push('{');
        let mut f = true;
        for (name, v, volatile) in &self.gauges {
            if *volatile && !full {
                continue;
            }
            json::push_key(&mut out, &mut f, name);
            json::push_f64(&mut out, *v);
        }
        out.push('}');

        json::push_key(&mut out, &mut first, "histograms");
        out.push('{');
        let mut f = true;
        for (name, s, volatile) in &self.histograms {
            if *volatile && !full {
                continue;
            }
            json::push_key(&mut out, &mut f, name);
            render_summary(&mut out, s);
        }
        out.push('}');

        json::push_key(&mut out, &mut first, "spans");
        if full {
            render_spans(&mut out, &self.spans, true);
        } else {
            let mut sorted = self.spans.clone();
            sort_spans(&mut sorted);
            render_spans(&mut out, &sorted, false);
        }

        out.push('}');
        out
    }

    /// Writes [`RunReport::to_json`] (plus a trailing newline) to `path`,
    /// creating parent directories as needed.
    ///
    /// # Errors
    ///
    /// Returns any filesystem error.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let mut json = self.to_json();
        json.push('\n');
        std::fs::write(path, json)
    }
}

fn render_summary(out: &mut String, s: &HistSummary) {
    out.push('{');
    let mut f = true;
    json::push_key(out, &mut f, "count");
    json::push_u64(out, s.count);
    json::push_key(out, &mut f, "max");
    json::push_f64(out, s.max);
    json::push_key(out, &mut f, "mean");
    json::push_f64(out, s.mean);
    json::push_key(out, &mut f, "min");
    json::push_f64(out, s.min);
    json::push_key(out, &mut f, "p50");
    json::push_f64(out, s.p50);
    json::push_key(out, &mut f, "p95");
    json::push_f64(out, s.p95);
    json::push_key(out, &mut f, "p99");
    json::push_f64(out, s.p99);
    out.push('}');
}

fn render_spans(out: &mut String, spans: &[SpanNode], full: bool) {
    out.push('[');
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('{');
        let mut f = true;
        json::push_key(out, &mut f, "children");
        render_spans(out, &s.children, full);
        json::push_key(out, &mut f, "detail");
        json::push_str(out, &s.detail);
        json::push_key(out, &mut f, "name");
        json::push_str(out, &s.name);
        if full {
            json::push_key(out, &mut f, "start_ns");
            json::push_u64(out, s.start_ns);
            json::push_key(out, &mut f, "wall_ns");
            json::push_u64(out, s.wall_ns());
        }
        out.push('}');
    }
    out.push(']');
}

fn sort_spans(spans: &mut [SpanNode]) {
    for s in spans.iter_mut() {
        sort_spans(&mut s.children);
    }
    spans.sort_by(|a, b| a.name.cmp(&b.name).then_with(|| a.detail.cmp(&b.detail)));
}

// ---- sinks -------------------------------------------------------------

/// Reads the `CLARA_REPORT` sink, if configured (non-empty).
pub fn sink_from_env() -> Option<String> {
    std::env::var("CLARA_REPORT")
        .ok()
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
}

/// Resolves a raw sink string to a concrete file path:
///
/// - `"1"`/`"true"` (bare opt-in) → `default_name` in the current
///   directory;
/// - an existing directory → `<dir>/<default_name>`;
/// - anything else → used as the file path verbatim.
pub fn resolve_sink(raw: &str, default_name: &str) -> PathBuf {
    let raw = raw.trim();
    if raw == "1" || raw.eq_ignore_ascii_case("true") {
        return PathBuf::from(default_name);
    }
    let p = PathBuf::from(raw);
    if p.is_dir() {
        p.join(default_name)
    } else {
        p
    }
}
