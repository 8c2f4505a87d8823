//! PMDK-libpmemobj-style transactional object pool.
//!
//! The paper's storage layer models the shared log as a concurrent map kept
//! crash-consistent through PMDK's transactional API (`BEGIN`, `PUT`, `GET`,
//! `COMMIT`/`ROLLBACK`, §2/§8). [`PmPool`] provides that API on top of a
//! [`PmDevice`]:
//!
//! * a transaction stages its puts/deletes privately ([`Tx`]);
//! * [`Tx::commit`] appends all staged operations to a redo log on the
//!   device, persists them, then appends + persists a *commit record* — only
//!   after the commit record is durable does the transaction apply to the
//!   index;
//! * [`PmPool::open`] recovers after a crash by scanning the log and
//!   replaying exactly the transactions whose commit record survived;
//!   half-written transactions are discarded (rollback), guaranteeing
//!   atomicity + durability across power failures;
//! * space is reclaimed **in place and in log order** — a record is written
//!   once and, in the common case, never moved.
//!
//! # Layout
//!
//! ```text
//! [ head LSN : 8 ][ segment 0 ][ segment 1 ] … [ segment SEGMENTS-1 ]
//! segment = [ LSN : 8 ][ check : 8 ][ record ]* [ zero header | end ]
//! record  = [ crc : 4 ][ len : 4 ][ txid : 8 ][ kind : 1 ][ key : 16 ][ payload ]
//! ```
//!
//! The redo log is the chain of segments whose header carries a log
//! sequence number (LSN) at or above the superblock's *head*, in LSN order;
//! every other segment is free. A record never straddles segments but a
//! transaction may run on into the next one. A record's CRC also covers
//! its segment's LSN, so what an earlier tenancy left behind in a reused
//! segment can never pass for a record of this one; a zero header (or the
//! segment's end) closes what a segment holds.
//!
//! # Reclamation
//!
//! Each segment counts the index entries pointing into it. The **oldest**
//! segment is freed the moment that count is zero — staged batches die at
//! commit and committed records at spill, roughly in the order they were
//! written, so this is the common case and costs one 8-byte superblock
//! write. Only when free segments run short are the few still-live puts of
//! the oldest segment re-appended at the tail, a bounded number per
//! foreground commit, before the head moves past it. Freed segments are
//! reused lowest-offset first: the log keeps to the low end of the device
//! as long as it fits there, and the rest of a simulated device is never
//! touched (never resident).
//!
//! **Invariant: segments leave the log strictly in LSN order.** That is
//! what makes it safe to drop a tombstone with its segment and never copy
//! one forward: every put a delete shadows was written before it, so by
//! the time the delete's segment is the oldest, those puts are already
//! gone and nothing is left for recovery to resurrect. A live put copied
//! forward lands behind every record written so far, so replay order still
//! agrees with commit order.
//!
//! # Recovery
//!
//! [`PmPool::open`] reads the head, collects the segments whose header
//! checks out with an LSN at or above it, sorts them by LSN and replays the
//! consecutive run starting at the head, each segment up to its first
//! record that fails its checksum. A writer moves on to a new segment only
//! after everything behind it is durable, so whatever follows a bad record
//! is part of a transaction that never committed. The log ends just past
//! its last commit record: appends resume there, and segments that were
//! linked in beyond it are unlinked again, so a rolled-back transaction
//! costs no space. Its records may still lie past the tail, intact; they
//! can never be taken for new ones because their txid is never issued
//! again, and a writer always leaves a zero header where it stops.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::crc::crc32_update;
use crate::hash::FastMap;
use crate::{crc32, DeviceError, PmDevice};

/// Bytes of a record header: crc(4) + len(4) + txid(8) + kind(1) + key(16).
const REC_HDR: usize = 33;
/// Superblock: a single 8-byte word (the PM power-fail atomicity unit)
/// holding the LSN of the oldest segment still in the log.
const SUPERBLOCK: usize = 8;
/// Segment header: LSN(8) + check word(8).
const SEG_HDR: usize = 16;
/// Segments per pool: enough that the reserve and the two partly filled
/// end segments cost under 5 % of the space. A device too small to give
/// that many `MIN_SEGMENT` bytes each gets fewer — a segment that holds
/// only a record or two spends more on each reclamation transaction's
/// commit record than it gets back. The largest storable value is one
/// segment less the two headers.
const SEGMENTS: usize = 64;
const MIN_SEGMENT: usize = 1024;
/// Free segments a foreground commit may not take: the room reclamation
/// needs to copy the oldest segment's survivors when nothing else is free.
const CLEANER_RESERVE: usize = 1;
/// Commits start copying the oldest segment forward when fewer segments
/// than this are free — early enough that one never has to wait for it.
const RECLAIM_LOW_WATER: usize = CLEANER_RESERVE + 2;
/// Live records copied forward per foreground commit, and the most bytes
/// of the old segment read to get at them (one record is always allowed).
const RECLAIM_STEP: usize = 64;
const RECLAIM_SPAN: usize = 64 << 10;
const KIND_PUT: u8 = 1;
const KIND_DELETE: u8 = 2;
const KIND_COMMIT: u8 = 3;
/// A transaction's buffer goes back to the pool for the next one unless it
/// grew past this (one huge transaction must not pin its buffer forever).
const SPARE_TX_BUF: usize = 1 << 20;

/// Errors from pool operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PoolError {
    /// The transaction does not fit even after reclaiming everything dead
    /// (or holds a value larger than a segment).
    PoolFull,
    /// Underlying device error.
    Device(DeviceError),
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::PoolFull => write!(f, "pm pool is full"),
            PoolError::Device(e) => write!(f, "device error: {e}"),
        }
    }
}

impl std::error::Error for PoolError {}

impl From<DeviceError> for PoolError {
    fn from(e: DeviceError) -> Self {
        PoolError::Device(e)
    }
}

/// What the redo log cost so far; monotonic.
#[derive(Debug, Default)]
pub struct PoolStats {
    /// Record bytes appended to the log, reclamation copies included.
    pub log_bytes: AtomicU64,
    /// Live records re-appended at the tail to free their segment.
    pub reclaim_copied_records: AtomicU64,
    /// Segments returned to the free list.
    pub segments_freed: AtomicU64,
}

/// Where a key's live put record sits: (device offset of the record, payload
/// len). The record's own offset, not the payload's — an empty payload at
/// the very end of a segment starts where the next segment does.
type Loc = (usize, usize);

/// One segment slot of the device.
#[derive(Clone, Copy, Default)]
struct Seg {
    /// LSN of the current tenancy; 0 = free.
    lsn: u64,
    /// Index entries pointing into this segment.
    live: usize,
    /// Record bytes it held when the writer moved on.
    used: usize,
}

struct PoolState {
    index: FastMap<u128, Loc>,
    /// Every segment slot, by position on the device.
    segs: Vec<Seg>,
    /// The slots making up the log, oldest first; the last is being filled.
    log: VecDeque<usize>,
    /// Next append offset (absolute device offset inside the last segment).
    tail: usize,
    next_lsn: u64,
    next_txid: u64,
    /// Live puts of the oldest segment still to copy forward, as (record
    /// offset, record len, key), highest offset first; valid while
    /// `victims_of` is that segment's LSN.
    victims: Vec<(usize, usize, u128)>,
    victims_of: u64,
    /// Reused buffers: reclamation's transaction, and where the records of
    /// the transaction being appended landed.
    scratch: Vec<u8>,
    placed: Vec<usize>,
    /// The buffer of the last transaction, cleared, for the next one: a
    /// replica commits one per wake, and each would otherwise grow its own.
    spare: Vec<u8>,
}

impl PoolState {
    fn tail_slot(&self) -> usize {
        *self.log.back().expect("the log always holds its tail segment")
    }

    fn tail_lsn(&self) -> u64 {
        self.segs[self.tail_slot()].lsn
    }

    fn free(&self) -> usize {
        self.segs.len() - self.log.len()
    }
}

/// See module docs.
pub struct PmPool {
    device: Arc<PmDevice>,
    /// Bytes per segment, header included; a multiple of 8, so segment
    /// headers stay aligned to the atomicity unit.
    seg_size: usize,
    state: Mutex<PoolState>,
    pub stats: PoolStats,
}

/// An open transaction. Dropping without [`Tx::commit`] is a rollback.
pub struct Tx<'a> {
    pool: &'a PmPool,
    /// The staged operations, already laid out as log records back to back
    /// (crc and txid are filled in at commit). Taken from the pool's
    /// `spare` and handed back when the transaction ends.
    buf: Vec<u8>,
    /// A staged value was too long for any record: the commit must fail.
    oversize: bool,
}

impl PmPool {
    fn unopened(device: Arc<PmDevice>, next_lsn: u64) -> Self {
        let space = device.capacity().saturating_sub(SUPERBLOCK);
        let segments = (space / MIN_SEGMENT).min(SEGMENTS);
        assert!(
            segments > RECLAIM_LOW_WATER,
            "device too small for a pool: {} bytes",
            device.capacity()
        );
        let seg_size = (space / segments) & !7;
        PmPool {
            device,
            seg_size,
            state: Mutex::new(PoolState {
                index: FastMap::default(),
                segs: vec![Seg::default(); segments],
                log: VecDeque::with_capacity(segments),
                tail: 0,
                next_lsn,
                next_txid: 1,
                victims: Vec::new(),
                victims_of: 0,
                scratch: Vec::new(),
                placed: Vec::new(),
                spare: Vec::new(),
            }),
            stats: PoolStats::default(),
        }
    }

    fn seg_start(&self, slot: usize) -> usize {
        SUPERBLOCK + slot * self.seg_size
    }

    fn slot_of(&self, offset: usize) -> usize {
        (offset - SUPERBLOCK) / self.seg_size
    }

    /// End of the segment being filled.
    fn tail_end(&self, st: &PoolState) -> usize {
        self.seg_start(st.tail_slot()) + self.seg_size
    }

    /// Creates a fresh pool on `device` (assumes the device is zeroed).
    pub fn create(device: Arc<PmDevice>) -> Self {
        let pool = Self::unopened(device, 1);
        pool.write_durably(0, &1u64.to_le_bytes()).expect("superblock in bounds");
        pool.open_segment(&mut pool.state.lock()).expect("a fresh pool has free segments");
        pool
    }

    /// Opens a pool from whatever the device's *media* holds, replaying the
    /// redo log from the persisted head: only transactions with a durable
    /// commit record apply.
    pub fn open(device: Arc<PmDevice>) -> Self {
        let word = device.read_media(0, SUPERBLOCK).expect("superblock in bounds");
        let head = u64::from_le_bytes(word.try_into().expect("8 bytes")).max(1);
        let pool = Self::unopened(device, head);
        let mut st = pool.state.lock();

        // The log: headers that check out, LSN at or above the head, and
        // consecutive from it (anything past a gap was never linked in).
        let mut chain: Vec<(u64, usize)> = (0..st.segs.len())
            .filter_map(|slot| {
                let hdr = pool.device.read_media(pool.seg_start(slot), SEG_HDR).ok()?;
                let lsn = parse_seg_header(&hdr).filter(|&lsn| lsn >= head)?;
                Some((lsn, slot))
            })
            .collect();
        chain.sort_unstable();
        chain.retain(|&(lsn, _)| {
            let linked = lsn == st.next_lsn;
            st.next_lsn += linked as u64;
            linked
        });

        let mut pending: HashMap<u64, Vec<(u128, Option<Loc>)>> = HashMap::new();
        let mut max_txid = 0u64;
        // The log ends just past its last commit record: (segments kept,
        // device offset). What follows never committed.
        let mut end_of_log = None;
        for (lsn, slot) in chain {
            let start = pool.seg_start(slot);
            let seg = pool.device.read_media(start, pool.seg_size).expect("segment in bounds");
            st.segs[slot].lsn = lsn;
            st.log.push_back(slot);
            let mut at = SEG_HDR;
            while at + REC_HDR <= seg.len() {
                let hdr = RecHdr::parse(&seg[at..]);
                let end = at + REC_HDR + hdr.len;
                // A zero header closes the segment; a length past its end,
                // a bad checksum or an unknown kind is a torn or foreign
                // record: the end of the valid prefix either way.
                if end > seg.len() || hdr.crc != record_crc(lsn, &seg[at + 4..end]) {
                    break;
                }
                match hdr.kind {
                    KIND_PUT => {
                        let loc = (start + at, hdr.len);
                        pending.entry(hdr.txid).or_default().push((hdr.key, Some(loc)));
                    }
                    KIND_DELETE => pending.entry(hdr.txid).or_default().push((hdr.key, None)),
                    KIND_COMMIT => {
                        for (key, loc) in pending.remove(&hdr.txid).unwrap_or_default() {
                            pool.index_set(&mut st, key, loc);
                        }
                        end_of_log = Some((st.log.len(), start + end));
                    }
                    _ => break,
                }
                // Rolled-back records count too: their txid is never reused.
                max_txid = max_txid.max(hdr.txid);
                at = end;
            }
            st.segs[slot].used = at - SEG_HDR;
        }
        // `pending` keeps only uncommitted transactions — rolled back by
        // never applying them, and by taking the space back: appends resume
        // at the end of the log, and segments linked in past it are
        // unlinked again (last first, so a crash here leaves fewer of
        // them). A rolled-back reclamation step must not cost the reserve
        // it was using.
        if st.log.is_empty() {
            pool.open_segment(&mut st).expect("an empty pool has free segments");
        } else {
            let (kept, tail) = end_of_log.unwrap_or((1, pool.seg_start(st.log[0]) + SEG_HDR));
            while st.log.len() > kept {
                let slot = st.log.pop_back().expect("longer than kept");
                pool.write_durably(pool.seg_start(slot), &[0u8; SEG_HDR]).expect("header in bounds");
                st.segs[slot] = Seg::default();
                st.next_lsn -= 1;
            }
            st.tail = tail;
        }
        st.next_txid = max_txid + 1;
        drop(st);
        pool
    }

    /// Begins a transaction.
    pub fn begin(&self) -> Tx<'_> {
        Tx {
            pool: self,
            buf: std::mem::take(&mut self.state.lock().spare),
            oversize: false,
        }
    }

    /// Reads the committed value for `key`. The lock is held across the
    /// device read: a freed segment may be reused at once.
    pub fn get(&self, key: u128) -> Option<Vec<u8>> {
        let mut value = Vec::new();
        self.read_into(key, &mut value)?;
        Some(value)
    }

    /// [`PmPool::get`] appending the value to `out` instead: returns its
    /// length, or `None` (and `out` untouched) if `key` is not present.
    pub fn read_into(&self, key: u128, out: &mut Vec<u8>) -> Option<usize> {
        let st = self.state.lock();
        let &(rec, len) = st.index.get(&key)?;
        self.device.read_into(rec + REC_HDR, len, out).expect("indexed range valid");
        Some(len)
    }

    /// True if `key` is present.
    pub fn contains(&self, key: u128) -> bool {
        self.state.lock().index.contains_key(&key)
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.state.lock().index.len()
    }

    /// True if no keys are live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All live keys (unordered).
    pub fn keys(&self) -> Vec<u128> {
        self.state.lock().index.keys().copied().collect()
    }

    /// Record bytes in the log, dead ones not yet reclaimed included.
    pub fn used_bytes(&self) -> usize {
        let st = self.state.lock();
        let filling = st.tail - self.seg_start(st.tail_slot()) - SEG_HDR;
        let sealed = st.log.iter().rev().skip(1);
        sealed.map(|&slot| st.segs[slot].used).sum::<usize>() + filling
    }

    /// Convenience single-op transactional put.
    pub fn put(&self, key: u128, value: &[u8]) -> Result<(), PoolError> {
        let mut tx = self.begin();
        tx.put(key, value);
        tx.commit()
    }

    /// Convenience single-op transactional delete.
    pub fn delete(&self, key: u128) -> Result<(), PoolError> {
        let mut tx = self.begin();
        tx.delete(key);
        tx.commit()
    }

    /// Reclaims everything reclaimable now: closes the segment being
    /// filled and copies the live set of every older one forward, leaving a
    /// log with no dead record in it. Crash-safe like any reclamation — a
    /// segment leaves the log only after its survivors are durable again.
    pub fn compact(&self) -> Result<(), PoolError> {
        let mut st = self.state.lock();
        if st.free() > CLEANER_RESERVE {
            self.next_segment(&mut st)?;
        }
        let below = st.tail_lsn();
        while self.reclaim(&mut st, below)? {}
        Ok(())
    }

    /// The underlying device (for crash injection in tests).
    pub fn device(&self) -> &Arc<PmDevice> {
        &self.device
    }

    /// Commits the records staged in `buf` as one transaction.
    fn commit_buf(&self, buf: &mut [u8]) -> Result<(), PoolError> {
        if buf.is_empty() {
            return Ok(());
        }
        let mut st = self.state.lock();
        // Out of segments: reclaim, oldest first, until the transaction
        // fits beside the cleaner's reserve — or every segment that was in
        // the log has had its turn and it still does not.
        let below = st.tail_lsn();
        while st.free() < self.segments_needed(&st, buf)? + CLEANER_RESERVE {
            if !self.reclaim(&mut st, below)? {
                return Err(PoolError::PoolFull);
            }
        }
        self.append_tx(&mut st, buf)?;
        // The transaction is durable; what follows only makes room, and a
        // failure there must not fail the commit.
        let _ = self.release_dead(&mut st);
        if st.free() < RECLAIM_LOW_WATER {
            let below = st.tail_lsn();
            let _ = self.reclaim(&mut st, below);
        }
        Ok(())
    }

    /// Segments the records in `buf` plus their commit record need beyond
    /// the one being filled. Exact — it replays the placement `append_tx`
    /// will make — so a transaction either fits or fails before its first
    /// byte is written.
    fn segments_needed(&self, st: &PoolState, buf: &[u8]) -> Result<usize, PoolError> {
        let mut room = self.tail_end(st) - st.tail;
        let mut needed = 0;
        for len in records(buf).map(|(_, hdr)| REC_HDR + hdr.len).chain([REC_HDR]) {
            if len > self.seg_size - SEG_HDR {
                return Err(PoolError::PoolFull);
            }
            if len > room {
                needed += 1;
                room = self.seg_size - SEG_HDR;
            }
            room -= len;
        }
        Ok(needed)
    }

    /// Appends the records in `buf` and their commit record at the tail —
    /// operations durable before the commit record is written (redo-log
    /// write ordering) — then applies them to the index. The caller made
    /// sure the segments this takes are free.
    fn append_tx(&self, st: &mut PoolState, buf: &mut [u8]) -> Result<(), PoolError> {
        let txid = st.next_txid;
        st.next_txid += 1;
        let mut placed = std::mem::take(&mut st.placed);
        placed.clear();
        // `buf[run..at]` is sealed but unwritten and belongs at `run_at`:
        // one device write per stretch of records that share a segment.
        let (mut run, mut run_at, mut at) = (0, st.tail, 0);
        while at < buf.len() {
            let end = at + REC_HDR + RecHdr::parse(&buf[at..]).len;
            if st.tail + (end - at) > self.tail_end(st) {
                self.write_durably(run_at, &buf[run..at])?;
                self.next_segment(st)?;
                (run, run_at) = (at, st.tail);
            }
            seal(&mut buf[at..end], txid, st.tail_lsn());
            placed.push(st.tail);
            st.tail += end - at;
            at = end;
        }
        self.write_durably(run_at, &buf[run..])?;
        if st.tail + REC_HDR > self.tail_end(st) {
            self.next_segment(st)?;
        }
        // The commit record and, where the segment has room, the zero
        // header closing the log behind it: adjacent, so one write.
        let mut commit = [0u8; 2 * REC_HDR];
        commit[16] = KIND_COMMIT;
        seal(&mut commit[..REC_HDR], txid, st.tail_lsn());
        let len = commit.len().min(self.tail_end(st) - st.tail);
        self.write_durably(st.tail, &commit[..len])?;
        st.tail += REC_HDR;

        for ((_, hdr), &at) in records(buf).zip(&placed) {
            let loc = (hdr.kind == KIND_PUT).then_some((at, hdr.len));
            self.index_set(st, hdr.key, loc);
        }
        st.placed = placed;
        self.stats.log_bytes.fetch_add((buf.len() + REC_HDR) as u64, Ordering::Relaxed);
        Ok(())
    }

    fn write_durably(&self, at: usize, bytes: &[u8]) -> Result<(), PoolError> {
        if !bytes.is_empty() {
            self.device.write(at, bytes)?;
            self.device.persist(at, bytes.len())?;
        }
        Ok(())
    }

    /// Points `key` at `loc` (`None` = deleted), keeping the per-segment
    /// live counts in step.
    fn index_set(&self, st: &mut PoolState, key: u128, loc: Option<Loc>) {
        let old = match loc {
            Some(loc) => st.index.insert(key, loc),
            None => st.index.remove(&key),
        };
        if let Some((off, _)) = old {
            st.segs[self.slot_of(off)].live -= 1;
        }
        if let Some((off, _)) = loc {
            st.segs[self.slot_of(off)].live += 1;
        }
    }

    /// Closes the segment being filled and opens the next one.
    fn next_segment(&self, st: &mut PoolState) -> Result<(), PoolError> {
        // A zero header, so that nothing this tenancy left past the tail
        // before a crash (records of a transaction recovery rolled back)
        // can ever be read as following what was written since.
        if self.tail_end(st) - st.tail >= REC_HDR {
            self.write_durably(st.tail, &[0u8; REC_HDR])?;
        }
        let slot = st.tail_slot();
        st.segs[slot].used = st.tail - self.seg_start(slot) - SEG_HDR;
        self.open_segment(st)
    }

    /// Links the lowest free segment in behind the log's last one. Its
    /// header is durable before anything is written into it.
    fn open_segment(&self, st: &mut PoolState) -> Result<(), PoolError> {
        let slot = st.segs.iter().position(|seg| seg.lsn == 0).ok_or(PoolError::PoolFull)?;
        let start = self.seg_start(slot);
        self.write_durably(start, &seg_header(st.next_lsn))?;
        st.segs[slot] = Seg { lsn: st.next_lsn, live: 0, used: 0 };
        st.log.push_back(slot);
        st.tail = start + SEG_HDR;
        st.next_lsn += 1;
        Ok(())
    }

    /// Frees every segment at the old end of the log that nothing points
    /// into (never the one being filled): one superblock write moves the
    /// head past all of them.
    fn release_dead(&self, st: &mut PoolState) -> Result<usize, PoolError> {
        let sealed = st.log.len() - 1;
        let dead = st.log.iter().take(sealed).take_while(|&&slot| st.segs[slot].live == 0).count();
        if dead > 0 {
            let head = st.segs[st.log[dead]].lsn;
            self.write_durably(0, &head.to_le_bytes())?;
            for slot in st.log.drain(..dead) {
                st.segs[slot] = Seg::default();
            }
            self.stats.segments_freed.fetch_add(dead as u64, Ordering::Relaxed);
        }
        Ok(dead)
    }

    /// One reclamation step on the oldest segment, if its LSN is below
    /// `below`: re-appends its next live puts — at most `RECLAIM_STEP` of
    /// them, read with one device read of at most `RECLAIM_SPAN` bytes — at
    /// the tail as one transaction (tombstones and dead puts stay behind;
    /// see the module docs for why that is safe), then frees whatever the
    /// old end of the log no longer needs. False when there was nothing to
    /// do.
    fn reclaim(&self, st: &mut PoolState, below: u64) -> Result<bool, PoolError> {
        let slot = st.log[0];
        let Seg { lsn, live, .. } = st.segs[slot];
        if lsn >= below {
            return Ok(false);
        }
        if live > 0 && st.victims_of != lsn {
            let span = self.seg_start(slot)..self.seg_start(slot) + self.seg_size;
            let in_seg = st.index.iter().filter(|(_, (off, _))| span.contains(off));
            st.victims = in_seg.map(|(&key, &(off, len))| (off, REC_HDR + len, key)).collect();
            // Copy in log order: records that were written together, and
            // will likely die together, stay together.
            st.victims.sort_unstable_by(|a, b| b.cmp(a));
            st.victims_of = lsn;
        }
        // The next victims that are still what the index points at (the
        // rest were overwritten or deleted since the list was made), as
        // (record offset, record len).
        let mut batch: Vec<(usize, usize)> = Vec::new();
        while live > 0 && batch.len() < RECLAIM_STEP {
            let Some(&(off, len, key)) = st.victims.last() else { break };
            let first = batch.first().map_or(off, |&(first, _)| first);
            if off + len - first > RECLAIM_SPAN.max(len) {
                break;
            }
            if st.index.get(&key) == Some(&(off, len - REC_HDR)) {
                batch.push((off, len));
            }
            st.victims.pop();
        }
        let mut buf = std::mem::take(&mut st.scratch);
        buf.clear();
        if let (Some(&(first, _)), Some(&(last, last_len))) = (batch.first(), batch.last()) {
            // Whole records, headers and all: `append_tx` re-seals them.
            let span = self.device.read(first, last + last_len - first)?;
            for &(off, len) in &batch {
                buf.extend_from_slice(&span[off - first..off - first + len]);
            }
        }
        let appended = match self.segments_needed(st, &buf) {
            _ if batch.is_empty() => Ok(()),
            Ok(needed) if needed <= st.free() => self.append_tx(st, &mut buf),
            _ => Err(PoolError::PoolFull),
        };
        st.scratch = buf;
        if let Err(e) = appended {
            st.victims_of = 0; // the batch is still where it was: list it again
            return Err(e);
        }
        self.stats.reclaim_copied_records.fetch_add(batch.len() as u64, Ordering::Relaxed);
        Ok(self.release_dead(st)? > 0 || !batch.is_empty())
    }
}

impl<'a> Tx<'a> {
    /// Stages a put of `value` under `key`.
    pub fn put(&mut self, key: u128, value: &[u8]) {
        self.put_with(key, |buf| buf.extend_from_slice(value));
    }

    /// Stages a put under `key` of the value `write` appends to the
    /// buffer it is handed — a value made of parts goes into the
    /// transaction in place, with no temporary of its own.
    pub fn put_with(&mut self, key: u128, write: impl FnOnce(&mut Vec<u8>)) {
        if self.oversize {
            return;
        }
        let at = self.buf.len();
        push_header(&mut self.buf, KIND_PUT, key);
        write(&mut self.buf);
        match u32::try_from(self.buf.len() - at - REC_HDR) {
            Ok(len) => self.buf[at + 4..at + 8].copy_from_slice(&len.to_le_bytes()),
            Err(_) => {
                self.buf.truncate(at);
                self.oversize = true;
            }
        }
    }

    /// Stages a delete of `key`.
    pub fn delete(&mut self, key: u128) {
        push_header(&mut self.buf, KIND_DELETE, key);
    }

    /// Makes room for `bytes` more of staged values in one step; a put
    /// also takes [`Tx::RECORD_OVERHEAD`] bytes beside its value, a delete
    /// that alone.
    pub fn reserve(&mut self, bytes: usize) {
        self.buf.reserve(bytes);
    }

    /// Bytes a put or a delete takes in the transaction beside its value.
    pub const RECORD_OVERHEAD: usize = REC_HDR;

    /// Reads `key`, seeing this transaction's own staged operations first.
    pub fn get(&self, key: u128) -> Option<Vec<u8>> {
        match records(&self.buf).filter(|(_, hdr)| hdr.key == key).last() {
            Some((at, hdr)) if hdr.kind == KIND_PUT => {
                Some(self.buf[at + REC_HDR..at + REC_HDR + hdr.len].to_vec())
            }
            Some(_) => None,
            None => self.pool.get(key),
        }
    }

    /// Atomically and durably applies all staged operations.
    pub fn commit(mut self) -> Result<(), PoolError> {
        if self.oversize {
            return Err(PoolError::PoolFull);
        }
        let pool = self.pool;
        pool.commit_buf(&mut self.buf)
    }

    /// Discards all staged operations (also what dropping does).
    pub fn rollback(self) {
        // Nothing was written: staged ops simply drop.
    }

    /// Number of staged operations.
    pub fn len(&self) -> usize {
        records(&self.buf).count()
    }

    /// True if nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

impl Drop for Tx<'_> {
    /// Hands the buffer back for the next transaction.
    fn drop(&mut self) {
        if self.buf.capacity() <= SPARE_TX_BUF {
            self.buf.clear();
            self.pool.state.lock().spare = std::mem::take(&mut self.buf);
        }
    }
}

/// A decoded record header.
struct RecHdr {
    crc: u32,
    len: usize,
    txid: u64,
    kind: u8,
    key: u128,
}

impl RecHdr {
    /// Decodes the header at the start of `bytes` (at least `REC_HDR` long).
    fn parse(bytes: &[u8]) -> Self {
        RecHdr {
            crc: u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes")),
            len: u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes")) as usize,
            txid: u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes")),
            kind: bytes[16],
            key: u128::from_le_bytes(bytes[17..33].try_into().expect("16 bytes")),
        }
    }
}

/// Appends a record header with an empty payload to `buf`, crc and txid
/// left blank for [`seal`]; a put writes its value behind it and then its
/// length ([`Tx::put_with`]).
fn push_header(buf: &mut Vec<u8>, kind: u8, key: u128) {
    let mut hdr = [0u8; REC_HDR];
    hdr[16] = kind;
    hdr[17..].copy_from_slice(&key.to_le_bytes());
    buf.extend_from_slice(&hdr);
}

/// The records laid out back to back in `buf` by [`Tx`]'s puts and deletes: each
/// one's offset in `buf` and its header.
fn records(buf: &[u8]) -> impl Iterator<Item = (usize, RecHdr)> + '_ {
    let mut next = 0;
    std::iter::from_fn(move || {
        let at = next;
        let hdr = RecHdr::parse(buf.get(at..)?.get(..REC_HDR)?);
        next = at + REC_HDR + hdr.len;
        Some((at, hdr))
    })
}

/// Stamps a record with its transaction and the checksum that ties it to
/// the segment tenancy `lsn` it is about to be written into.
fn seal(rec: &mut [u8], txid: u64, lsn: u64) {
    rec[8..16].copy_from_slice(&txid.to_le_bytes());
    let crc = record_crc(lsn, &rec[4..]);
    rec[0..4].copy_from_slice(&crc.to_le_bytes());
}

/// CRC over the segment's LSN and the record past its crc field.
fn record_crc(lsn: u64, body: &[u8]) -> u32 {
    !crc32_update(crc32_update(!0, &lsn.to_le_bytes()), body)
}

fn seg_header(lsn: u64) -> [u8; SEG_HDR] {
    let mut hdr = [0u8; SEG_HDR];
    hdr[..8].copy_from_slice(&lsn.to_le_bytes());
    hdr[8..].copy_from_slice(&seg_check(lsn).to_le_bytes());
    hdr
}

/// The LSN a segment header carries, if the header is one (a free
/// segment's may be zeroes, half-written or anything a test scribbled).
fn parse_seg_header(hdr: &[u8]) -> Option<u64> {
    let lsn = u64::from_le_bytes(hdr[..8].try_into().expect("8 bytes"));
    let check = u64::from_le_bytes(hdr[8..SEG_HDR].try_into().expect("8 bytes"));
    (lsn != 0 && check == seg_check(lsn)).then_some(lsn)
}

fn seg_check(lsn: u64) -> u64 {
    0x5345_474D_0000_0000 | crc32(&lsn.to_le_bytes()) as u64 // "SEGM" ‖ crc
}

#[cfg(test)]
mod tests;
