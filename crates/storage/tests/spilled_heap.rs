//! What one more spilled record costs the process heap. In the spilling
//! regime every commit moves a record's worth of bytes from PM to the SSD,
//! so the SSD tier is the one part of a server that grows with every
//! append. Its medium is a file: what stays in memory per spilled record is
//! the SSD's index entry (the SN's low half and a packed extent, 16 bytes
//! in a dense sorted chunk) and,
//! in steps as its hash table doubles, the record's token — not the record,
//! and no entry in the color's log, which holds the PM-resident records
//! only.
//!
//! The warm-up runs past two one-time steps, so the measured window sees
//! the per-record cost alone: the flight recorder's ring (one event per
//! committed batch, and every batch here is one record) fills its 65 536
//! events, and the DRAM cache's hash table takes its last doubling. Both
//! are bounded, but with a 30 000-record warm-up they doubled inside the
//! window — the ring from 32 768 to 65 536 events was ~96 B of the 171 B
//! this test read before. (With the medium in the heap it read 450 B per
//! 256 B record; with it in a file, 171 B; past both steps, 76 B with the
//! color's log indexing every record and a 16-byte extent under a `u128`
//! key, 31 B with B-tree leaves keyed on the SN, 16 B now.)
//!
//! Alone in its test binary because the counting allocator is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use flexlog_storage::{StorageConfig, StorageServer};
use flexlog_types::{ColorId, Epoch, FunctionId, Payload, SeqNum, Token};

/// Bytes allocated and not yet freed.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const WARM_UP: u32 = 70_000;
const MEASURED: u32 = 20_000;
const BATCH: u32 = 5;

#[test]
fn a_spilled_record_costs_the_heap_under_19_bytes() {
    let server = StorageServer::new(StorageConfig::default());
    let tracer = server.obs().tracer();
    let spilled = || server.obs().snapshot().counter("storage.spilled_records");
    let payload = Payload::from(vec![0xA5u8; 256]);
    let mut at_start = (0, 0);
    for first in (1..=WARM_UP + MEASURED).step_by(BATCH as usize) {
        if first == WARM_UP + 1 {
            assert_eq!(tracer.len(), tracer.capacity(), "the warm-up fills the ring");
            at_start = (LIVE.load(Ordering::Relaxed), spilled());
        }
        let color = ColorId(1 + first / BATCH % 4);
        let items: Vec<(Token, SeqNum)> = (first..first + BATCH)
            .map(|n| (Token::new(FunctionId(1), n), SeqNum::new(Epoch(1), n)))
            .collect();
        for (token, _) in &items {
            assert!(server
                .stage(*token, color, std::slice::from_ref(&payload))
                .unwrap());
        }
        assert!(server
            .commit_many(&items)
            .into_iter()
            .all(|r| r == Ok(Some(color))));
    }
    let grew = LIVE.load(Ordering::Relaxed) - at_start.0;
    let spilled = spilled() - at_start.1;
    assert!(
        spilled >= MEASURED as u64 * 9 / 10,
        "not in the regime: {spilled} spilled"
    );
    let per_record = grew as f64 / MEASURED as f64;
    println!("{per_record:.0} B of live heap per spilled 256 B record ({spilled} spilled)");
    // 16 B measured, + 15 %.
    assert!(
        per_record < 19.0,
        "{per_record:.0} B of live heap per spilled record"
    );
}
