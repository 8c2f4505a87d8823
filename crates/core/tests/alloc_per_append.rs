//! Heap allocations one pipelined append costs the whole process: client,
//! replicas, sequencers, storage and PM, on the benchmark's cluster shape
//! (2 leaves × 1 shard, r = 3, instant links) with device time off, loaded
//! past the 4 MiB PM watermark first so the spill to SSD runs in the
//! measured window.
//!
//! Every allocation made by any thread while the window is open counts,
//! the caller's own included (one `Payload` per record and the completed
//! list it takes back), so the figure is what an append costs the host,
//! not one layer's share.
//!
//! Alone in its test binary because the counting allocator is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use flexlog_core::{ClusterSpec, ColorId, FlexLogCluster};
use flexlog_pm::ClockMode;
use flexlog_storage::StorageConfig;
use flexlog_types::Payload;

/// Allocations (and reallocations) made so far, by any thread.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// 256 B records, as the benchmark appends them.
const RECORD: usize = 256;
/// 20 000 per shard: every replica's PM past its 4 MiB watermark.
const PRELOAD: usize = 40_000;
const MEASURED: usize = 20_000;
const COLORS: u32 = 4;

/// Appends `n` records pipelined (the client's default window of 32)
/// cycling through the colors; returns how many were acked.
fn append_pipelined(log: &mut flexlog_core::FlexLog, n: usize) -> usize {
    let mut acked = 0;
    for i in 0..n {
        let payload = Payload::copy_from_slice(&[i as u8; RECORD]);
        let color = ColorId(1 + i as u32 % COLORS);
        log.append_pipelined(std::slice::from_ref(&payload), color).expect("append");
        acked += log.take_completed_appends().len();
    }
    acked + log.flush_appends().expect("flush").len()
}

#[test]
fn a_pipelined_append_makes_at_most_20_heap_allocations() {
    let cluster = FlexLogCluster::start(ClusterSpec {
        leaves: 2,
        shards_per_leaf: 1,
        replication_factor: 3,
        storage: StorageConfig { clock: ClockMode::Off, ..StorageConfig::default() },
        ..ClusterSpec::default()
    });
    for c in 1..=COLORS {
        cluster.add_color(ColorId(c)).expect("fresh color");
    }
    let mut log = cluster.handle();
    assert_eq!(append_pipelined(&mut log, PRELOAD), PRELOAD);
    let spilled = || cluster.obs().snapshot().counter("storage.spilled_records");
    assert!(spilled() > 0, "the preload must cross the PM watermark");

    let (before, spilled_before) = (ALLOCS.load(Ordering::Relaxed), spilled());
    let acked = append_pipelined(&mut log, MEASURED);
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(acked, MEASURED);
    let spilled = spilled() - spilled_before;
    assert!(spilled as usize >= MEASURED, "not in the spilling regime: {spilled} spilled");

    let per_append = allocs as f64 / acked as f64;
    println!("{per_append:.1} heap allocations per pipelined append ({allocs} for {acked})");
    assert!(per_append <= 20.0, "{per_append:.1} allocations per append");
}
