//! A streamed profile allocates nothing per packet.
//!
//! `profile_workload_compiled` hands each interpreted event straight to
//! the costing sink: no per-packet trace, no per-packet cost map, and a
//! packet's rewritten payload bytes stay inside its view. So the
//! allocations a profile makes do not depend on how many packets it runs,
//! once the NF's state has stopped growing: an NF with no stateful
//! globals has no touched-index sets to grow, and one whose state a few
//! flows saturate stops growing them early. This binary installs a
//! counting global allocator, which is why it holds these tests and
//! nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use click_model::{extended_corpus, NfElement};
use nf_ir::{Inst, MemRef, PktField};
use nic_sim::{profile_workload_compiled, NicConfig, PortConfig};
use trafgen::{Trace, WorkloadSpec};

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

/// True when the NF's handler stores into packet payload bytes.
fn writes_payload(e: &NfElement) -> bool {
    e.module
        .funcs
        .iter()
        .flat_map(|f| &f.blocks)
        .flat_map(|b| &b.insts)
        .any(|i| {
            matches!(
                i,
                Inst::Store {
                    mem: MemRef::Pkt {
                        field: PktField::Payload(_)
                    },
                    ..
                }
            )
        })
}

/// Allocations one naive-port profile of `trace` makes on this thread.
fn profile_allocations(e: &NfElement, nic: &nfcc::NicModule, trace: &Trace) -> usize {
    let (port, cfg) = (PortConfig::naive(), NicConfig::default());
    let before = ALLOCS.with(Cell::get);
    let wp = profile_workload_compiled(&e.module, nic, trace, &port, &cfg);
    let made = ALLOCS.with(Cell::get) - before;
    assert_eq!(wp.pkts, trace.pkts.len());
    made
}

#[test]
fn profile_allocations_do_not_grow_with_packets() {
    let spec = WorkloadSpec::small_flows();
    let short = Trace::generate(&spec, 100, 3);
    let long = Trace::generate(&spec, 400, 3);
    let mut checked = Vec::new();
    for e in extended_corpus() {
        if !e.module.globals.is_empty() || writes_payload(&e) {
            continue;
        }
        let nic = nfcc::compile_module(&e.module);
        // The first profile also registers the simulator's obs metrics.
        profile_allocations(&e, &nic, &short);
        let few = profile_allocations(&e, &nic, &short);
        let many = profile_allocations(&e, &nic, &long);
        assert!(few > 0, "the allocator must see the profile's set-up");
        assert_eq!(
            few,
            many,
            "{}: a profile's allocations grew with its packet count",
            e.name()
        );
        checked.push(e.name().to_string());
    }
    assert!(
        checked.len() >= 3,
        "too few stateless NFs checked: {checked:?}"
    );
}

/// The NFs that rewrite payload bytes, over four flows: by the shorter
/// run every flow-table slot and page-table entry they index has been
/// touched, so the only allocations that could differ between the runs
/// are per-packet ones.
#[test]
fn payload_writes_allocate_nothing_per_packet() {
    let spec = WorkloadSpec::large_flows().with_flows(4);
    let short = Trace::generate(&spec, 800, 3);
    let long = Trace::generate(&spec, 3200, 3);
    let mut checked = Vec::new();
    for e in extended_corpus() {
        if !writes_payload(&e) {
            continue;
        }
        let nic = nfcc::compile_module(&e.module);
        profile_allocations(&e, &nic, &short);
        let few = profile_allocations(&e, &nic, &short);
        let many = profile_allocations(&e, &nic, &long);
        assert_eq!(
            few,
            many,
            "{}: a profile's allocations grew with its packet count",
            e.name()
        );
        checked.push(e.name().to_string());
    }
    for nf in ["webgen", "gretunnel", "dnsproxy"] {
        assert!(
            checked.iter().any(|c| c == nf),
            "{nf} writes payload: {checked:?}"
        );
    }
}
