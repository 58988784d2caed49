//! Hierarchical timed spans.
//!
//! Every open span is appended to one process-global record list; its
//! guard closes it (fills the end timestamp) on drop. Parent links come
//! from a thread-local "current span" by default, or explicitly from a
//! [`SpanHandle`] via [`span_under`] — the explicit form is what keeps
//! the span *tree* identical between serial and parallel runs: work that
//! moves to a spawned thread parents itself to the same handle it would
//! have nested under inline.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span. Ids are 1-based indices into the record list;
/// parent 0 means "root".
#[derive(Debug, Clone)]
pub(crate) struct SpanRec {
    pub(crate) name: String,
    pub(crate) detail: String,
    pub(crate) parent: u64,
    pub(crate) start_ns: u64,
    pub(crate) end_ns: u64,
}

static SPANS: OnceLock<Mutex<Vec<SpanRec>>> = OnceLock::new();
/// Bumped by [`reset_spans`]; guards from an earlier generation skip
/// their close-out write instead of clobbering a recycled slot.
static GENERATION: AtomicU64 = AtomicU64::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// An addressable reference to an open span, usable across threads.
#[derive(Debug, Clone, Copy)]
pub struct SpanHandle {
    id: u64,
}

impl SpanHandle {
    /// Raw record id (0 for root / disarmed handles).
    pub(crate) fn id(self) -> u64 {
        self.id
    }
}

/// Raw id of the current thread's innermost open span (0 when none).
pub(crate) fn current_id() -> u64 {
    CURRENT.with(Cell::get)
}

/// The current thread's innermost open span (id 0 when none).
pub fn current() -> SpanHandle {
    SpanHandle {
        id: CURRENT.with(Cell::get),
    }
}

/// Closes its span on drop. Obtained from [`span`]/[`span_under`] or the
/// [`crate::span!`] macro; a *disarmed* guard (recording disabled) does
/// nothing.
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard {
    id: u64,
    prev: u64,
    gen: u64,
}

impl SpanGuard {
    /// A guard that records nothing (used when the layer is disabled).
    pub fn disarmed() -> SpanGuard {
        SpanGuard {
            id: 0,
            prev: 0,
            gen: 0,
        }
    }

    /// Handle other threads (or later siblings) can parent under.
    pub fn handle(&self) -> SpanHandle {
        SpanHandle { id: self.id }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        CURRENT.with(|c| c.set(self.prev));
        if self.gen != GENERATION.load(Ordering::SeqCst) {
            return; // The record list was reset while this span was open.
        }
        let end = now_ns();
        let mut spans = SPANS
            .get_or_init(Mutex::default)
            .lock()
            .expect("spans poisoned");
        if let Some(rec) = spans.get_mut(self.id as usize - 1) {
            rec.end_ns = end;
        }
    }
}

fn open(name: &str, detail: &str, parent: u64) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard::disarmed();
    }
    let start = now_ns();
    let gen = GENERATION.load(Ordering::SeqCst);
    let id = {
        let mut spans = SPANS
            .get_or_init(Mutex::default)
            .lock()
            .expect("spans poisoned");
        spans.push(SpanRec {
            name: name.to_string(),
            detail: detail.to_string(),
            parent,
            start_ns: start,
            end_ns: 0,
        });
        spans.len() as u64
    };
    let prev = CURRENT.with(|c| c.replace(id));
    SpanGuard { id, prev, gen }
}

/// Opens a span under the current thread's innermost open span.
pub fn span(name: &str) -> SpanGuard {
    open(name, "", CURRENT.with(Cell::get))
}

/// Opens a span with a detail string (prefer the [`crate::span!`] macro,
/// which skips formatting while disabled).
pub fn span_detail(name: &str, detail: &str) -> SpanGuard {
    open(name, detail, CURRENT.with(Cell::get))
}

/// Opens a span under an explicit parent, regardless of which thread is
/// running. This is how spawned branches keep the span tree identical to
/// a serial run.
pub fn span_under(parent: SpanHandle, name: &str) -> SpanGuard {
    open(name, "", parent.id)
}

/// Restores the thread's previous span context on drop (see [`attach`]).
pub struct ContextGuard {
    prev: u64,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

/// Re-parents this thread's span context under `parent` without opening
/// a new span. Worker pools attach each worker to the dispatching
/// stage's span so that spans opened inside tasks nest exactly where
/// they would in a serial run.
pub fn attach(parent: SpanHandle) -> ContextGuard {
    let prev = CURRENT.with(|c| c.replace(parent.id));
    ContextGuard { prev }
}

/// Drops every recorded span and invalidates outstanding guards.
pub(crate) fn reset_spans() {
    let mut spans = SPANS
        .get_or_init(Mutex::default)
        .lock()
        .expect("spans poisoned");
    GENERATION.fetch_add(1, Ordering::SeqCst);
    spans.clear();
}

/// Extracts the (closed) span subtree rooted at record `root` as a
/// timestamp-free [`crate::CapturedSpan`] tree.
///
/// Membership is computed by parent links: a record belongs to the
/// subtree when its parent does. Children always carry larger ids than
/// their parent (they open later), so one ascending pass suffices;
/// unrelated spans recorded concurrently by other threads parent outside
/// the subtree and are skipped.
pub(crate) fn extract_subtree(root: u64) -> Option<crate::CapturedSpan> {
    use std::collections::{BTreeMap, BTreeSet};
    let spans = SPANS
        .get_or_init(Mutex::default)
        .lock()
        .expect("spans poisoned");
    let n = spans.len() as u64;
    if root == 0 || root > n {
        return None;
    }
    let mut members: BTreeSet<u64> = BTreeSet::new();
    members.insert(root);
    let mut kids: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for id in (root + 1)..=n {
        let rec = &spans[(id - 1) as usize];
        if members.contains(&rec.parent) {
            members.insert(id);
            kids.entry(rec.parent).or_default().push(id);
        }
    }
    fn build(
        id: u64,
        spans: &[SpanRec],
        kids: &std::collections::BTreeMap<u64, Vec<u64>>,
    ) -> crate::CapturedSpan {
        let rec = &spans[(id - 1) as usize];
        crate::CapturedSpan {
            name: rec.name.clone(),
            detail: rec.detail.clone(),
            children: kids
                .get(&id)
                .map(|c| c.iter().map(|&k| build(k, spans, kids)).collect())
                .unwrap_or_default(),
        }
    }
    Some(build(root, &spans, &kids))
}

/// Re-inserts a captured subtree under `parent` as zero-length spans
/// stamped "now". No-op while recording is disabled (live recording
/// would have recorded nothing either).
pub(crate) fn replay_subtree(parent: u64, node: &crate::CapturedSpan) {
    if !crate::enabled() {
        return;
    }
    let now = now_ns();
    let mut spans = SPANS
        .get_or_init(Mutex::default)
        .lock()
        .expect("spans poisoned");
    fn push(spans: &mut Vec<SpanRec>, parent: u64, node: &crate::CapturedSpan, now: u64) {
        spans.push(SpanRec {
            name: node.name.clone(),
            detail: node.detail.clone(),
            parent,
            start_ns: now,
            end_ns: now,
        });
        let id = spans.len() as u64;
        for c in &node.children {
            push(spans, id, c, now);
        }
    }
    push(&mut spans, parent, node, now);
}

/// Snapshot of the raw records (open spans get `end_ns = start_ns`).
pub(crate) fn snapshot() -> Vec<SpanRec> {
    let Some(m) = SPANS.get() else {
        return Vec::new();
    };
    m.lock()
        .expect("spans poisoned")
        .iter()
        .map(|r| {
            let mut r = r.clone();
            if r.end_ns == 0 {
                r.end_ns = r.start_ns;
            }
            r
        })
        .collect()
}
