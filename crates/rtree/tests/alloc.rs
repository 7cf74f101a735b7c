//! Heap-allocation pins for the reusable-scratch kernels, measured by a
//! counting global allocator. Counts are per thread, so the test harness
//! running other tests beside these does not disturb them.
//!
//! * A BPT build of a full paper-fan-out node with a warmed-up
//!   [`SplitScratch`] allocates only its cell arena and the `Arc` it is
//!   published in.
//! * Range and kNN queries with a warmed-up [`QueryScratch`] and reused
//!   output buffers allocate nothing at all.

use pc_geom::{Point, Rect};
use pc_rtree::bpt::{Bpt, SplitPolicy};
use pc_rtree::query::{knn_query_with, range_query_with, QueryScratch};
use pc_rtree::{ObjectId, RTree, RTreeConfig, SpatialObject, SplitScratch};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the counter may already be gone while a thread exits.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to the system allocator unchanged; the
// counter is a `const` thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations (including reallocations) `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

fn points(n: usize, seed: u64) -> Vec<Rect> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            Rect::from_point(Point::new(
                rng.random_range(0.0..1.0),
                rng.random_range(0.0..1.0),
            ))
        })
        .collect()
}

#[test]
fn warm_bpt_build_allocates_only_its_cells_and_arc() {
    let fan = RTreeConfig::paper().max_entries;
    assert_eq!(fan, 102);
    // A cold scratch has to grow its buffers: the counter sees them.
    let (cold, _) = allocations(|| {
        Bpt::build_with(
            &points(fan, 0),
            SplitPolicy::RStar,
            &mut SplitScratch::default(),
        )
    });
    assert!(cold > 3, "a cold build made only {cold} allocations");
    let mut scratch = SplitScratch::default();
    // Warm-up: grow every scratch buffer to the node size.
    for seed in 0..4 {
        Bpt::build_with(&points(fan, seed), SplitPolicy::RStar, &mut scratch);
    }
    for seed in 10..20 {
        let mbrs = points(fan, seed);
        let (n, bpt) =
            allocations(|| Arc::new(Bpt::build_with(&mbrs, SplitPolicy::RStar, &mut scratch)));
        assert_eq!(bpt.cell_count(), 2 * fan - 1);
        assert!(n <= 2, "warm BPT build made {n} allocations");
    }
}

#[test]
fn warm_range_and_knn_queries_allocate_nothing() {
    let mut rng = SmallRng::seed_from_u64(7);
    let objects: Vec<SpatialObject> = (0..5_000)
        .map(|i| SpatialObject {
            id: ObjectId(i),
            mbr: Rect::from_point(Point::new(
                rng.random_range(0.0..1.0),
                rng.random_range(0.0..1.0),
            )),
            size_bytes: 100,
        })
        .collect();
    let tree = RTree::bulk_load(RTreeConfig::small(), &objects);
    let mut scratch = QueryScratch::default();
    let mut hits = Vec::new();
    let mut near = Vec::new();
    let queries: Vec<Point> = (0..200)
        .map(|_| Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)))
        .collect();
    // Warm-up at the largest window and k used below.
    for q in &queries {
        range_query_with(
            &tree,
            &Rect::centered_square(*q, 0.2),
            &mut scratch,
            &mut hits,
        );
        knn_query_with(&tree, q, 20, &mut scratch, &mut near);
    }
    let (n, found) = allocations(|| {
        let mut found = 0;
        for q in &queries {
            range_query_with(
                &tree,
                &Rect::centered_square(*q, 0.1),
                &mut scratch,
                &mut hits,
            );
            found += hits.len();
            knn_query_with(&tree, q, 10, &mut scratch, &mut near);
            found += near.len();
        }
        found
    });
    assert!(found > 0);
    assert_eq!(n, 0, "steady-state range/kNN queries made {n} allocations");
}
