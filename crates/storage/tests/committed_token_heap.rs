//! What one more committed token costs the process heap. Every committed
//! batch leaves its token in its color's idempotence map, so that a
//! retransmitted append re-acks instead of appending twice; until a trim
//! passes the batch the entry stays, so the map grows with every append a
//! replica takes.
//!
//! Measured as a difference, so nothing else a record costs is counted:
//! two servers take the same 65 536 records of 256 B, one with a token per
//! record and one with a token per 8 records, and the heap each holds at
//! the end is compared. Every other structure — the SSD's index, the PM
//! set, the pool's index, the DRAM cache — holds the same records in both,
//! and the flight recorder's ring is filled before either is measured.
//!
//! Two shapes of traffic: one function that counts its tokens up, and
//! functions that append once each — every handle of a cluster is a
//! function of its own, and a short-lived one may append only once.
//!
//! Alone in its test binary because the counting allocator is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use flexlog_obs::Stage;
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

const RECORDS: u32 = 65_536;
/// Batches per commit call, as a replica's wake commits them.
const PER_COMMIT: u32 = 5;

/// The `n`th token (from 1) of traffic whose functions append
/// `per_function` times each, counting from 1.
fn token(n: u32, per_function: u32) -> Token {
    let (fid, counter) = ((n - 1) / per_function, (n - 1) % per_function + 1);
    Token::new(FunctionId(fid + 1), counter)
}

/// The live heap a server holds after committing `RECORDS` records to one
/// color, `per_token` records to a token, beyond what it held before the
/// first (with its flight recorder already full).
fn heap_after(per_token: u32, per_function: u32) -> isize {
    let server = StorageServer::new(StorageConfig::default());
    let tracer = server.obs().tracer();
    while tracer.len() < tracer.capacity() {
        server
            .obs()
            .trace_event(Token(0), Stage::StorageCommit, 0, 0);
    }
    let before = LIVE.load(Ordering::Relaxed);
    let payload = Payload::from(vec![0xA5u8; 256]);
    let color = ColorId(1);
    let tokens = RECORDS / per_token;
    for first in (1..=tokens).step_by(PER_COMMIT as usize) {
        let items: Vec<(Token, SeqNum)> = (first..(first + PER_COMMIT).min(tokens + 1))
            .map(|n| {
                let token = token(n, per_function);
                let batch = vec![payload.clone(); per_token as usize];
                assert!(server.stage(token, color, &batch).unwrap());
                (token, SeqNum::new(Epoch(1), n * per_token))
            })
            .collect();
        assert!(server
            .commit_many(&items)
            .into_iter()
            .all(|r| r == Ok(Some(color))));
    }
    assert_eq!(server.committed_token_count(), tokens as usize);
    assert_eq!(server.record_count(color), RECORDS as usize);
    let held = LIVE.load(Ordering::Relaxed) - before;
    drop(server);
    held
}

#[test]
fn a_committed_token_costs_the_heap_under_17_bytes() {
    // 34.0 B with a `HashMap<Token, SeqNum>`, whatever the functions; the
    // bound is half of that, for both shapes.
    for (shape, per_function) in [("one function", RECORDS), ("one append per function", 1)] {
        let one = heap_after(1, per_function);
        let eight = heap_after(8, per_function);
        let per_token = (one - eight) as f64 / (RECORDS - RECORDS / 8) as f64;
        println!(
            "{shape}: {per_token:.1} B of live heap per committed token \
             ({one} B with a token per record, {eight} B with one per 8)"
        );
        assert!(per_token < 17.0, "{shape}: {per_token:.1} B per committed token");
    }
}
