//! Pins the zero-copy claim of the `.ftspan` version-2 layout: a successful
//! [`FtSpannerView::parse`] performs **no heap allocation at all** — the
//! sections are validated in place and borrowed from the caller's buffer —
//! and random record access through the view stays allocation-free too.
//!
//! The whole test binary runs under a counting global allocator (which is
//! why this battery lives in its own integration-test crate), so any
//! allocation sneaking into the parse or access paths fails the assertion
//! rather than silently eroding the mmap-ready property the format exists
//! for. The count is per thread: the harness runs tests concurrently, and
//! another test building its fixture must not be charged to the parse.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ftspan_core::algorithms::core_algorithms;
use ftspan_core::api::Registry;
use ftspan_core::{FtSpanner, FtSpannerView, SpannerRequest};
use ftspan_graph::generate;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Forwards to the system allocator while counting every allocation call
/// made on the current thread.
struct CountingAllocator;

thread_local! {
    // Const-initialized and drop-free, so touching it from inside the
    // allocator never allocates or registers a destructor.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // After the thread's locals are torn down there is nothing to count.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: pure pass-through to `System`; the counter is a thread-local cell
// with no further invariants.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

/// Runs `f` and returns how many heap allocations it performed on this
/// thread.
fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = f();
    let after = ALLOCATIONS.with(Cell::get);
    (value, after - before)
}

fn v2_image(seed: u64) -> Vec<u8> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let g = generate::connected_gnp(120, 0.08, generate::WeightKind::Unit, &mut rng);
    let registry = Registry::from_algorithms(core_algorithms());
    let report = registry
        .get("conversion")
        .expect("conversion algorithm is registered")
        .build((&g).into(), &SpannerRequest::new(2), &mut rng)
        .expect("construction succeeds");
    let artifact = FtSpanner::from_report(&g, &report).expect("artifact builds");
    let mut buf = Vec::new();
    artifact
        .to_binary_writer(&mut buf)
        .expect("serialization succeeds");
    buf
}

#[test]
fn parse_allocates_nothing() {
    let image = v2_image(2011);
    // Warm up once so lazy runtime initialization (test harness buffers and
    // the like) cannot be misattributed to the parse under measurement.
    FtSpannerView::parse(&image).expect("image is well-formed");

    let (view, allocations) = allocations_during(|| FtSpannerView::parse(&image));
    let view = view.expect("image is well-formed");
    assert_eq!(
        allocations, 0,
        "FtSpannerView::parse must validate and borrow without allocating"
    );
    assert!(view.edge_count() > 0);
    assert!(view.spanner_edge_count() > 0);
}

#[test]
fn record_access_allocates_nothing() {
    let image = v2_image(7);
    let view = FtSpannerView::parse(&image).expect("image is well-formed");

    let ((), allocations) = allocations_during(|| {
        let mut checksum = 0.0f64;
        for i in 0..view.edge_count() {
            let (u, v, w) = view.edge(i);
            checksum += w + (u.index() + v.index()) as f64;
        }
        for i in 0..view.spanner_edge_count() {
            checksum += view.spanner_edge(i).index() as f64;
        }
        assert!(checksum > 0.0);
    });
    assert_eq!(
        allocations, 0,
        "decoding records through the view must not allocate"
    );
}
