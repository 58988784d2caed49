//! The LSTM training step allocates nothing per minibatch.
//!
//! `LstmRegressor::fit` builds its lane scratch and merged gradient once
//! and clears them in place, so at one worker (no lane threads to spawn)
//! the allocations a fit makes do not depend on how many minibatches it
//! runs. This binary installs a counting global allocator, which is why
//! it holds this one test and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tinyml::lstm::{LstmConfig, LstmRegressor};

thread_local! {
    /// Allocations made by the current thread.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// Forwards to the system allocator and counts allocations per thread.
struct Counting;

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a const-initialized thread-local
// without a destructor, so touching it neither allocates nor re-enters
// the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's guarantees for `layout` pass straight on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations one fit of `epochs` epochs makes on this thread.
fn fit_allocations(epochs: usize) -> usize {
    let mut rng = StdRng::seed_from_u64(2);
    let seqs: Vec<Vec<usize>> = (0..50)
        .map(|_| {
            (0..rng.gen_range(1..20))
                .map(|_| rng.gen_range(0..9))
                .collect()
        })
        .collect();
    let targets: Vec<Vec<f64>> = seqs.iter().map(|s| vec![s.len() as f64]).collect();
    let mut model = LstmRegressor::new(LstmConfig {
        vocab: 9,
        hidden: 6,
        fc_hidden: 5,
        epochs,
        ..LstmConfig::default()
    });
    let before = ALLOCS.with(Cell::get);
    model.fit(&seqs, &targets);
    ALLOCS.with(Cell::get) - before
}

#[test]
fn fit_allocations_do_not_grow_with_minibatches() {
    tinyml::parallel::set_threads(1);
    // The first fit also registers its obs metrics; count after that.
    fit_allocations(1);
    // 50 samples are 4 minibatches per epoch: 4 against 20 minibatches.
    let one = fit_allocations(1);
    let five = fit_allocations(5);
    tinyml::parallel::set_threads(0);
    assert!(one > 0, "the allocator must see fit's set-up");
    assert_eq!(
        one, five,
        "a fit's allocations grew with its minibatch count"
    );
}
