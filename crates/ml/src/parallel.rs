//! The workspace's one worker pool: an order-preserving parallel map on
//! scoped threads, and the one place the worker count is decided.
//!
//! `tinyml` sits below `clara-core`, so the pool lives here. The LSTM
//! runs its gradient lanes through [`map_ordered`] within a training
//! step, and `clara_core::engine` runs every stage's tasks through it and
//! re-exports [`threads`] and [`set_threads`]. Tasks are claimed by index
//! and merged back in input order, so a pure `f` gives the same output at
//! any worker count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Forces the worker count for this process, beating `CLARA_THREADS`;
/// `0` removes the override. Tests use it to run 1 and 4 workers in one
/// process.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::SeqCst);
}

/// The worker count: the [`set_threads`] override, else `CLARA_THREADS`
/// (a positive integer; anything else is ignored), else the machine's
/// available parallelism. The workspace reads `CLARA_THREADS` nowhere
/// else.
pub fn threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if forced > 0 {
        return forced;
    }
    if let Ok(v) = std::env::var("CLARA_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Maps `f` over `items` on the worker pool, returning results in input
/// order. `f` also gets the slot of the worker running it, `0` for the
/// calling thread. With one worker this is a plain serial map; the
/// caller is responsible for making `f` pure so the two paths agree bit
/// for bit. The calling thread is one of the workers, so `workers − 1`
/// threads are spawned per call.
pub fn map_ordered<T: Sync, R: Send>(items: &[T], f: impl Fn(usize, &T) -> R + Sync) -> Vec<R> {
    let workers = threads().min(items.len());
    if workers <= 1 {
        return items.iter().map(|t| f(0, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
    let work = |w: usize| {
        let mut local: Vec<(usize, R)> = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::SeqCst);
            if i >= items.len() {
                break;
            }
            local.push((i, f(w, &items[i])));
        }
        done.lock().expect("poisoned").append(&mut local);
    };
    std::thread::scope(|s| {
        for w in 1..workers {
            let work = &work;
            s.spawn(move || work(w));
        }
        work(0);
    });
    let mut out = done.into_inner().expect("poisoned");
    out.sort_unstable_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        set_threads(4);
        let items: Vec<usize> = (0..100).collect();
        let out = map_ordered(&items, |_, &x| x * 3);
        set_threads(0);
        assert_eq!(out, (0..100).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn serial_path_matches() {
        set_threads(1);
        let items = vec![1.5f64, 2.5, 3.5];
        let a = map_ordered(&items, |_, x| x.sqrt());
        set_threads(3);
        let b = map_ordered(&items, |_, x| x.sqrt());
        set_threads(0);
        assert_eq!(a, b);
    }
}
