//! Simulated SSD with page-cache + fsync semantics.
//!
//! Backs (i) the third tier of a FlexLog replica (§5.2: old log portions are
//! flushed from PM to SSD) and (ii) the Boki/RocksDB storage baseline's WAL
//! and SSTs. Writes land in a volatile page cache at syscall cost; only
//! [`SsdDevice::fsync`] pays the device's write latency and makes the blocks
//! durable — exactly the cost structure that makes SSD-backed logs slow in
//! the paper's Figure 5 analysis ("sync syscalls to synchronize the OS's
//! write buffer with the SSD").
//!
//! The *medium* is a real file: durable blocks live in an anonymous
//! (created, then unlinked) file under [`std::env::temp_dir`], appended by
//! `fsync` and read back with one positional read, and only
//! `id → (offset, len)` stays in memory — a log's spilled tail is the one
//! thing in this process that grows with every append, and three replicas'
//! copies of it do not belong in the heap of the process being measured.
//! What is *modelled* is unchanged: the page cache (dirty blocks, resident
//! clean blocks), what a crash loses, and every latency. The file only
//! grows — overwritten and deleted blocks leave dead bytes behind — which is
//! fine for a device that lives for one run and is gone with its last handle.
//!
//! The index is also the one ordered list of the blocks the device holds: a
//! caller that names its blocks in key order (the storage server does, by
//! color and SN) asks [`SsdDevice::block_ids`] for a key range instead of
//! keeping a copy.

use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::ops::{Bound, RangeBounds};
use std::os::unix::fs::FileExt;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::hash::{FastMap, FastState};
use crate::{DeviceClock, LatencyModel};

/// Cost of a buffered write/read syscall (kernel crossing + copy), charged
/// even when the device itself is not touched.
const SYSCALL_NS: u64 = 1_500;

/// Page-cache capacity in blocks (~64 MiB of 4 KiB blocks, the OS share a
/// storage server would typically get).
const READ_CACHE_BLOCKS: usize = 16_384;

/// The page cache's dirty buffer is kept across `fsync`s for the next
/// writes unless it grew past this.
const SPARE_DIRTY_BYTES: usize = 1 << 20;

/// Errors from SSD operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SsdError {
    /// Block does not exist.
    NotFound(u128),
}

impl fmt::Display for SsdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SsdError::NotFound(id) => write!(f, "ssd block {id} not found"),
        }
    }
}

impl std::error::Error for SsdError {}

/// Where a durable block's bytes are in the medium file, packed into one
/// word — the index holds one per block, and a log's spilled tail makes
/// that hundreds of thousands.
#[derive(Clone, Copy)]
struct Extent(u64);

impl Extent {
    /// Bits of the length: blocks up to 16 MiB, on a medium up to 1 TiB.
    const LEN_BITS: u32 = 24;

    fn new(offset: u64, len: usize) -> Self {
        let len = u64::try_from(len).ok().filter(|&l| l < 1 << Self::LEN_BITS);
        let len = len.expect("ssd block under 16 MiB");
        assert!(offset < 1 << (64 - Self::LEN_BITS), "ssd medium under 1 TiB");
        Extent(offset << Self::LEN_BITS | len)
    }

    fn offset(self) -> u64 {
        self.0 >> Self::LEN_BITS
    }

    fn len(self) -> usize {
        (self.0 & ((1 << Self::LEN_BITS) - 1)) as usize
    }
}

/// The durable blocks' extents by id, in two levels: the id's high half,
/// then its low half. Ids that share a high half — one color's records, for
/// the storage server — are the bulk of a device's blocks, and each of
/// those is one 16-byte (low half, extent) pair in a dense sorted chunk
/// ([`Blocks`]).
///
/// Sorted chunks under a B-tree, not a hash table, so that block-count
/// growth never triggers an O(n) table rehash mid-write — spill batches run
/// on the commit path, where a multi-ms rehash spike of a
/// hundred-thousand-block device becomes an append stall — and so that
/// [`SsdDevice::block_ids`] walks a key range in order.
#[derive(Default)]
struct BlockIndex(BTreeMap<u64, Blocks>);

fn halves(id: u128) -> (u64, u64) {
    ((id >> 64) as u64, id as u64)
}

impl BlockIndex {
    fn get(&self, id: u128) -> Option<Extent> {
        let (high, low) = halves(id);
        self.0.get(&high)?.get(low)
    }

    fn insert(&mut self, id: u128, extent: Extent) {
        let (high, low) = halves(id);
        self.0.entry(high).or_default().insert(low, extent);
    }

    fn remove(&mut self, id: u128) {
        let (high, low) = halves(id);
        if let Some(blocks) = self.0.get_mut(&high) {
            blocks.remove(low);
            if blocks.0.is_empty() {
                self.0.remove(&high);
            }
        }
    }

    /// The ids inside `range`, ascending.
    fn ids(&self, range: (Bound<u128>, Bound<u128>)) -> impl Iterator<Item = u128> + '_ {
        let high_of = |bound: Bound<u128>, unbounded: u64| match bound {
            Bound::Included(id) | Bound::Excluded(id) => halves(id).0,
            Bound::Unbounded => unbounded,
        };
        // A bound on the low half applies only in the high half it lies in.
        let low_of = move |bound: Bound<u128>, high: u64| match bound {
            Bound::Included(id) if halves(id).0 == high => Bound::Included(id as u64),
            Bound::Excluded(id) if halves(id).0 == high => Bound::Excluded(id as u64),
            _ => Bound::Unbounded,
        };
        let highs = high_of(range.0, 0)..=high_of(range.1, u64::MAX);
        self.0.range(highs).flat_map(move |(&high, blocks)| {
            let lows = (low_of(range.0, high), low_of(range.1, high));
            blocks.lows(lows).map(move |low| (high as u128) << 64 | low as u128)
        })
    }
}

/// Entries of one [`Blocks`] chunk: 2 KiB of pairs.
const CHUNK: usize = 128;

/// The (low half, extent) pairs of one high half, sorted, in chunks of at
/// most [`CHUNK`] allocated whole, each under a key no greater than its
/// first entry and above every entry of the chunk before. Blocks named in
/// key order — a spill's — append to the last chunk and fill it, so a
/// block costs its 16 bytes and little more, where B-tree leaves filled in
/// key order end about half full. A chunk that takes an entry in its
/// middle while full splits in two.
#[derive(Default)]
struct Blocks(BTreeMap<u64, Vec<(u64, Extent)>>);

impl Blocks {
    /// The chunk `low` belongs in: the last one keyed at or below it.
    fn chunk(&self, low: u64) -> Option<(u64, &Vec<(u64, Extent)>)> {
        self.0.range(..=low).next_back().map(|(&key, chunk)| (key, chunk))
    }

    fn get(&self, low: u64) -> Option<Extent> {
        let (_, chunk) = self.chunk(low)?;
        let i = chunk.binary_search_by_key(&low, |&(l, _)| l).ok()?;
        Some(chunk[i].1)
    }

    fn insert(&mut self, low: u64, extent: Extent) {
        // Below every chunk: the first one takes it, re-keyed.
        let key = match self.chunk(low) {
            Some((key, _)) => key,
            None => match self.0.pop_first() {
                Some((_, chunk)) if chunk.len() < CHUNK => {
                    self.0.insert(low, chunk);
                    low
                }
                first => {
                    self.0.extend(first);
                    return self.start_chunk(low, extent);
                }
            },
        };
        let chunk = self.0.get_mut(&key).expect("found above");
        let i = match chunk.binary_search_by_key(&low, |&(l, _)| l) {
            Ok(i) => return chunk[i].1 = extent,
            Err(i) => i,
        };
        if chunk.len() < CHUNK {
            return chunk.insert(i, (low, extent));
        }
        if i == CHUNK {
            return self.start_chunk(low, extent);
        }
        let mut upper = Vec::with_capacity(CHUNK);
        upper.extend(chunk.drain(CHUNK / 2..));
        match i.checked_sub(CHUNK / 2) {
            None => chunk.insert(i, (low, extent)),
            Some(j) => upper.insert(j, (low, extent)),
        }
        self.0.insert(upper[0].0, upper);
    }

    fn start_chunk(&mut self, low: u64, extent: Extent) {
        let mut chunk = Vec::with_capacity(CHUNK);
        chunk.push((low, extent));
        self.0.insert(low, chunk);
    }

    /// A removal keeps the chunk's key: a bound below its entries is all
    /// the key promises.
    fn remove(&mut self, low: u64) {
        let Some((key, chunk)) = self.chunk(low) else { return };
        let Ok(i) = chunk.binary_search_by_key(&low, |&(l, _)| l) else { return };
        let chunk = self.0.get_mut(&key).expect("found above");
        chunk.remove(i);
        if chunk.is_empty() {
            self.0.remove(&key);
        }
    }

    /// The low halves inside `range`, ascending.
    fn lows(&self, range: (Bound<u64>, Bound<u64>)) -> impl Iterator<Item = u64> + '_ {
        let first = match range.0 {
            Bound::Included(low) | Bound::Excluded(low) => self.chunk(low).map_or(0, |(key, _)| key),
            Bound::Unbounded => 0,
        };
        let after_start = move |low: &u64| match range.0 {
            Bound::Included(start) => *low >= start,
            Bound::Excluded(start) => *low > start,
            Bound::Unbounded => true,
        };
        let before_end = move |low: &u64| match range.1 {
            Bound::Included(end) => *low <= end,
            Bound::Excluded(end) => *low < end,
            Bound::Unbounded => true,
        };
        self.0
            .range(first..)
            .flat_map(|(_, chunk)| chunk.iter().map(|&(low, _)| low))
            .skip_while(move |low| !after_start(low))
            .take_while(before_end)
    }
}

struct SsdInner {
    /// Durable blocks (survive crash): where each one's latest synced
    /// version is in the medium.
    durable: BlockIndex,
    /// Bytes of the medium written so far; the next `fsync` appends here.
    medium_len: u64,
    /// Dirty blocks in the page cache (lost on crash): where each one's
    /// bytes are in `dirty_bytes`, as (offset, len).
    dirty: FastMap<u128, (usize, usize)>,
    /// The page cache's dirty bytes, blocks back to back as they were
    /// written; an overwritten or deleted dirty block leaves its bytes
    /// behind until the next `fsync`.
    dirty_bytes: Vec<u8>,
    /// The dirty blocks' ids in the order they were written (a rewritten
    /// one twice): the order `fsync` indexes them in, which keeps a
    /// spill's blocks in key order.
    dirty_order: Vec<u128>,
    /// Blocks deleted in the cache but not yet synced.
    dirty_deletes: Vec<u128>,
    /// Clean blocks resident in the OS page cache (reads hit memory). Like
    /// a real page cache this is volatile and bounded.
    read_cache: HashSet<u128, FastState>,
}

/// Counters for tests/benches.
#[derive(Debug, Default)]
pub struct SsdStats {
    pub writes: AtomicU64,
    pub reads: AtomicU64,
    pub fsyncs: AtomicU64,
    pub bytes_synced: AtomicU64,
}

/// See module docs.
pub struct SsdDevice {
    inner: Mutex<SsdInner>,
    /// The medium. Append-only and written under the `inner` lock, so an
    /// [`Extent`] copied out of `durable` stays readable without it.
    medium: File,
    /// Write calls issued on the medium (one per `fsync` with dirty blocks).
    medium_writes: AtomicU64,
    latency: LatencyModel,
    clock: DeviceClock,
    pub stats: SsdStats,
}

impl SsdDevice {
    pub fn new(clock: DeviceClock) -> Self {
        SsdDevice {
            inner: Mutex::new(SsdInner {
                durable: BlockIndex::default(),
                medium_len: 0,
                dirty: FastMap::default(),
                dirty_bytes: Vec::new(),
                dirty_order: Vec::new(),
                dirty_deletes: Vec::new(),
                read_cache: HashSet::default(),
            }),
            medium: anonymous_temp_file(),
            medium_writes: AtomicU64::new(0),
            latency: LatencyModel::ssd(),
            clock,
            stats: SsdStats::default(),
        }
    }

    /// SSD with no latency accounting (unit tests).
    pub fn for_testing() -> Self {
        SsdDevice::new(DeviceClock::off())
    }

    /// Buffered write of one block: [`SsdDevice::write_blocks`] of one.
    pub fn write_block(&self, id: u128, data: &[u8]) {
        self.write_blocks(data, &[(id, data.len())]);
    }

    /// Buffered vectored write: `blocks` names the `(id, len)` of each
    /// block laid end to end in `data`. They land in the page cache — one
    /// copy into its buffer — at the cost of one syscall however many
    /// there are; durable only after [`SsdDevice::fsync`].
    pub fn write_blocks(&self, data: &[u8], blocks: &[(u128, usize)]) {
        assert_eq!(blocks.iter().map(|&(_, len)| len).sum::<usize>(), data.len(), "extents cover data");
        self.clock.consume(SYSCALL_NS);
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        self.stats.writes.fetch_add(blocks.len() as u64, Ordering::Relaxed);
        let mut offset = inner.dirty_bytes.len();
        inner.dirty_bytes.extend_from_slice(data);
        for &(id, len) in blocks {
            inner.dirty.insert(id, (offset, len));
            inner.dirty_order.push(id);
            offset += len;
        }
    }

    /// [`SsdDevice::write_blocks`] then [`SsdDevice::fsync`], as one call
    /// with the same charges, counts and outcome. When nothing else is
    /// dirty and `blocks` names each id once (a spill's and an import's
    /// do), the blocks go straight to the medium and the index, in the
    /// order named, with no trip through the page cache's dirty map;
    /// otherwise this is the two calls.
    pub fn write_synced(&self, data: &[u8], blocks: &[(u128, usize)]) {
        assert_eq!(blocks.iter().map(|&(_, len)| len).sum::<usize>(), data.len(), "extents cover data");
        let distinct = blocks.windows(2).all(|pair| pair[0].0 < pair[1].0) || {
            let mut ids: Vec<u128> = blocks.iter().map(|&(id, _)| id).collect();
            ids.sort_unstable();
            ids.windows(2).all(|pair| pair[0] < pair[1])
        };
        let mut inner = self.inner.lock();
        if !distinct || !inner.dirty.is_empty() {
            drop(inner);
            self.write_blocks(data, blocks);
            return self.fsync();
        }
        let written = {
            let inner = &mut *inner;
            for id in inner.dirty_deletes.drain(..) {
                inner.durable.remove(id);
            }
            // Whatever the page cache still holds is deleted blocks' bytes.
            inner.dirty_order.clear();
            inner.dirty_bytes.clear();
            if inner.dirty_bytes.capacity() > SPARE_DIRTY_BYTES {
                inner.dirty_bytes = Vec::new();
            }
            let mut at = inner.medium_len;
            for &(id, len) in blocks {
                inner.durable.insert(id, Extent::new(at, len));
                at += len as u64;
            }
            self.stats.writes.fetch_add(blocks.len() as u64, Ordering::Relaxed);
            self.stats.fsyncs.fetch_add(1, Ordering::Relaxed);
            self.stats.bytes_synced.fetch_add(data.len() as u64, Ordering::Relaxed);
            if data.is_empty() {
                0
            } else {
                self.medium
                    .write_all_at(data, inner.medium_len)
                    .expect("append the synced blocks to the ssd medium file");
                self.medium_writes.fetch_add(1, Ordering::Relaxed);
                inner.medium_len = at;
                self.latency.write_ns(data.len())
            }
        };
        drop(inner);
        // The two calls' charges: the buffered write, then the sync.
        self.clock.consume(SYSCALL_NS);
        self.clock.consume(SYSCALL_NS + written);
    }

    /// Reads a block, hitting the page cache first, the device otherwise.
    pub fn read_block(&self, id: u128) -> Result<Vec<u8>, SsdError> {
        let inner = self.inner.lock();
        self.stats.reads.fetch_add(1, Ordering::Relaxed);
        if let Some(&(offset, len)) = inner.dirty.get(&id) {
            // Page-cache hit: syscall cost only.
            let data = inner.dirty_bytes[offset..offset + len].to_vec();
            drop(inner);
            self.clock.consume(SYSCALL_NS);
            return Ok(data);
        }
        match inner.durable.get(id) {
            Some(extent) => {
                let cached = inner.read_cache.contains(&id);
                drop(inner);
                let mut data = vec![0u8; extent.len()];
                self.medium
                    .read_exact_at(&mut data, extent.offset())
                    .expect("read a synced block back from the ssd medium file");
                if cached {
                    // Page-cache hit: syscall + copy only.
                    self.clock.consume(SYSCALL_NS);
                } else {
                    self.clock.consume(SYSCALL_NS + self.latency.read_ns(data.len()));
                    let mut inner = self.inner.lock();
                    if inner.read_cache.len() >= READ_CACHE_BLOCKS {
                        inner.read_cache.clear(); // crude wholesale eviction
                    }
                    inner.read_cache.insert(id);
                }
                Ok(data)
            }
            None => Err(SsdError::NotFound(id)),
        }
    }

    /// True if the block exists (dirty or durable).
    pub fn contains(&self, id: u128) -> bool {
        let inner = self.inner.lock();
        inner.dirty.contains_key(&id)
            || (inner.durable.get(id).is_some() && !inner.dirty_deletes.contains(&id))
    }

    /// Deletes a block (durable after the next fsync).
    pub fn delete_block(&self, id: u128) {
        self.clock.consume(SYSCALL_NS);
        let mut inner = self.inner.lock();
        inner.dirty.remove(&id);
        inner.dirty_deletes.push(id);
    }

    /// Flushes the page cache to the device: pays write latency for every
    /// dirty block; on return everything written so far is durable.
    pub fn fsync(&self) {
        let total_ns = {
            let mut inner = self.inner.lock();
            let inner = &mut *inner;
            for id in inner.dirty_deletes.drain(..) {
                inner.durable.remove(id);
            }
            // One sequential writeback: every dirty block goes to the end
            // of the medium in one write, then the index points at it. The
            // device base cost is paid once, the per-byte cost for all
            // dirty data. The page cache's buffer is that write unless a
            // block was overwritten or deleted in it; then the live blocks
            // are gathered first.
            let SsdInner { durable, dirty, dirty_bytes, dirty_order, medium_len, .. } = inner;
            let live: usize = dirty.values().map(|&(_, len)| len).sum();
            let gather = live < dirty_bytes.len();
            let mut gathered = Vec::with_capacity(if gather { live } else { 0 });
            for id in dirty_order.drain(..) {
                let Some((offset, len)) = dirty.remove(&id) else { continue };
                let at = if gather {
                    gathered.extend_from_slice(&dirty_bytes[offset..offset + len]);
                    gathered.len() - len
                } else {
                    offset
                };
                durable.insert(id, Extent::new(*medium_len + at as u64, len));
            }
            let batch = if gather { &gathered } else { &*dirty_bytes };
            self.stats.fsyncs.fetch_add(1, Ordering::Relaxed);
            self.stats.bytes_synced.fetch_add(batch.len() as u64, Ordering::Relaxed);
            let written = if batch.is_empty() {
                0
            } else {
                self.medium
                    .write_all_at(batch, *medium_len)
                    .expect("append the synced blocks to the ssd medium file");
                self.medium_writes.fetch_add(1, Ordering::Relaxed);
                *medium_len += batch.len() as u64;
                self.latency.write_ns(batch.len())
            };
            dirty_bytes.clear();
            if dirty_bytes.capacity() > SPARE_DIRTY_BYTES {
                *dirty_bytes = Vec::new();
            }
            written
        };
        self.clock.consume(SYSCALL_NS + total_ns);
    }

    /// Charges the latency of a cold device read of `len` bytes without
    /// touching any block (filesystem simulations that model their own
    /// block layer).
    pub fn charge_read(&self, len: usize) {
        self.clock.consume(SYSCALL_NS + self.latency.read_ns(len));
    }

    /// Charges the latency of a device write of `len` bytes.
    pub fn charge_write(&self, len: usize) {
        self.clock.consume(SYSCALL_NS + self.latency.write_ns(len));
    }

    /// Charges a bare syscall (kernel crossing + copy), no device access.
    pub fn charge_syscall(&self) {
        self.clock.consume(SYSCALL_NS);
    }

    /// Power failure: the page cache is lost, durable blocks survive.
    pub fn crash(&self) {
        let mut inner = self.inner.lock();
        inner.dirty.clear();
        inner.dirty_bytes.clear();
        inner.dirty_order.clear();
        inner.dirty_deletes.clear();
        inner.read_cache.clear();
    }

    /// Ids of the blocks inside `range` that exist (durable and not deleted,
    /// or dirty), ascending, at most `max` of them.
    pub fn block_ids(&self, range: impl RangeBounds<u128>, max: usize) -> Vec<u128> {
        let range = (range.start_bound().cloned(), range.end_bound().cloned());
        let inner = self.inner.lock();
        let durable = inner.durable.ids(range).filter(|id| !inner.dirty_deletes.contains(id));
        if inner.dirty.is_empty() {
            return durable.take(max).collect();
        }
        let dirty = inner.dirty.keys().filter(|id| range.contains(*id)).copied();
        let mut ids: Vec<u128> = durable.chain(dirty).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.truncate(max);
        ids
    }
}

/// A file nobody else can name: created under the temp dir and unlinked
/// at once, so it lives exactly as long as the returned handle and no run —
/// however it ends — leaves a `flexlog-ssd-*` entry behind.
fn anonymous_temp_file() -> File {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "flexlog-ssd-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let file = OpenOptions::new()
        .read(true)
        .write(true)
        .create_new(true)
        .open(&path)
        .unwrap_or_else(|e| panic!("create the ssd medium file {}: {e}", path.display()));
    std::fs::remove_file(&path)
        .unwrap_or_else(|e| panic!("unlink the ssd medium file {}: {e}", path.display()));
    file
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Writes `blocks` as one vectored write.
    fn write_all(ssd: &SsdDevice, blocks: impl IntoIterator<Item = (u128, Vec<u8>)>) {
        let (mut data, mut extents) = (Vec::new(), Vec::new());
        for (id, bytes) in blocks {
            extents.push((id, bytes.len()));
            data.extend(bytes);
        }
        ssd.write_blocks(&data, &extents);
    }

    #[test]
    fn write_read_roundtrip() {
        let ssd = SsdDevice::for_testing();
        ssd.write_block(1, b"block one");
        assert_eq!(ssd.read_block(1).unwrap(), b"block one");
    }

    #[test]
    fn missing_block_errors() {
        let ssd = SsdDevice::for_testing();
        assert_eq!(ssd.read_block(9), Err(SsdError::NotFound(9)));
    }

    #[test]
    fn unsynced_writes_lost_on_crash() {
        let ssd = SsdDevice::for_testing();
        ssd.write_block(1, b"durable");
        ssd.fsync();
        ssd.write_block(2, b"volatile");
        ssd.crash();
        assert_eq!(ssd.read_block(1).unwrap(), b"durable");
        assert_eq!(ssd.read_block(2), Err(SsdError::NotFound(2)));
    }

    #[test]
    fn delete_is_durable_after_fsync() {
        let ssd = SsdDevice::for_testing();
        ssd.write_block(1, b"x");
        ssd.fsync();
        ssd.delete_block(1);
        assert!(!ssd.contains(1));
        ssd.fsync();
        ssd.crash();
        assert_eq!(ssd.read_block(1), Err(SsdError::NotFound(1)));
    }

    #[test]
    fn unsynced_delete_reverts_on_crash() {
        let ssd = SsdDevice::for_testing();
        ssd.write_block(1, b"x");
        ssd.fsync();
        ssd.delete_block(1);
        ssd.crash();
        assert_eq!(ssd.read_block(1).unwrap(), b"x");
    }

    #[test]
    fn overwrite_in_cache_then_sync() {
        let ssd = SsdDevice::for_testing();
        ssd.write_block(1, b"v1");
        ssd.write_block(1, b"v2");
        ssd.fsync();
        ssd.crash();
        assert_eq!(ssd.read_block(1).unwrap(), b"v2");
    }

    #[test]
    fn block_ids_sorted_and_deduped() {
        let ssd = SsdDevice::for_testing();
        ssd.write_block(3, b"c");
        ssd.write_block(1, b"a");
        ssd.fsync();
        ssd.write_block(1, b"a2"); // dirty over durable
        ssd.write_block(2, b"b");
        assert_eq!(ssd.block_ids(.., usize::MAX), vec![1, 2, 3]);
    }

    #[test]
    fn block_ids_walks_a_key_range_in_order() {
        let ssd = SsdDevice::for_testing();
        write_all(&ssd, (0..40u128).rev().map(|id| (id, vec![id as u8])));
        ssd.fsync();
        assert_eq!(ssd.block_ids(10..20, usize::MAX), (10..20).collect::<Vec<_>>());
        assert_eq!(ssd.block_ids(10.., 3), vec![10, 11, 12], "at most max, lowest first");
        // Deleted but not yet synced: gone from the range already, like
        // `contains` says; dirty blocks are in it.
        ssd.delete_block(11);
        ssd.delete_block(13);
        ssd.write_block(100, b"dirty");
        assert_eq!(ssd.block_ids(10..=14, usize::MAX), vec![10, 12, 14]);
        assert_eq!(ssd.block_ids(38.., usize::MAX), vec![38, 39, 100]);
        ssd.fsync();
        assert_eq!(ssd.block_ids(10..=14, usize::MAX), vec![10, 12, 14]);
    }

    #[test]
    fn block_ids_ranges_span_the_two_index_levels() {
        // Ids in three high halves, as a storage server's colors give them.
        let id = |high: u128, low: u128| high << 64 | low;
        let all: Vec<u128> = [0, 1, 5, u64::MAX as u128]
            .into_iter()
            .flat_map(|high| [0, 7, 8, u64::MAX as u128].map(|low| id(high, low)))
            .collect();
        let ssd = SsdDevice::for_testing();
        write_all(&ssd, all.iter().map(|&i| (i, vec![1])));
        ssd.fsync();
        let want = |r: (Bound<u128>, Bound<u128>)| -> Vec<u128> {
            all.iter().copied().filter(|i| r.contains(i)).collect()
        };
        let edges = [0, id(1, 7), id(1, 8), id(1, u64::MAX as u128), id(2, 0), id(5, 0), u128::MAX];
        for &lo in &edges {
            for &hi in edges.iter().filter(|&&hi| hi > lo) {
                for r in [
                    (Bound::Included(lo), Bound::Included(hi)),
                    (Bound::Excluded(lo), Bound::Excluded(hi)),
                    (Bound::Excluded(lo), Bound::Unbounded),
                    (Bound::Unbounded, Bound::Included(hi)),
                ] {
                    assert_eq!(ssd.block_ids(r, usize::MAX), want(r), "{r:?}");
                }
            }
        }
        assert_eq!(ssd.block_ids(.., usize::MAX), all);
        // Deleting the last block of a high half leaves no trace of it.
        for low in [0, 7, 8, u64::MAX as u128] {
            ssd.delete_block(id(5, low));
        }
        ssd.fsync();
        assert_eq!(ssd.block_ids(id(5, 0)..=id(5, u64::MAX as u128), usize::MAX), vec![]);
        assert_eq!(ssd.inner.lock().durable.0.len(), 3);
    }

    #[test]
    fn write_blocks_is_one_syscall() {
        use crate::virtual_time;
        let ssd = SsdDevice::new(DeviceClock::virtual_clock());
        virtual_time::take();
        write_all(&ssd, (0..64).map(|id| (id, vec![0u8; 272])));
        assert_eq!(virtual_time::take(), SYSCALL_NS, "64 blocks, one kernel crossing");
        ssd.write_block(64, &[0u8; 272]);
        assert_eq!(virtual_time::take(), SYSCALL_NS);
        assert_eq!(ssd.stats.writes.load(Ordering::Relaxed), 65);
    }

    #[test]
    fn write_blocks_is_durable_as_a_batch() {
        let ssd = SsdDevice::for_testing();
        let batch = |tag: u8| -> Vec<(u128, Vec<u8>)> {
            (0..16).map(|id| (id, vec![tag; 100])).collect()
        };
        write_all(&ssd, batch(1));
        ssd.crash();
        assert!(ssd.block_ids(.., usize::MAX).is_empty(), "a crash before fsync loses all of it");
        write_all(&ssd, batch(2));
        ssd.fsync();
        ssd.crash();
        assert_eq!(ssd.block_ids(.., usize::MAX), (0..16).collect::<Vec<_>>());
        for id in 0..16 {
            assert_eq!(ssd.read_block(id).unwrap(), vec![2u8; 100]);
        }
    }

    #[test]
    fn overwritten_and_deleted_dirty_blocks_are_not_synced() {
        let ssd = SsdDevice::for_testing();
        write_all(&ssd, [(1, vec![1u8; 10]), (2, vec![2u8; 20]), (3, vec![3u8; 30])]);
        ssd.write_block(1, &[9u8; 5]);
        ssd.delete_block(2);
        ssd.fsync();
        assert_eq!(ssd.stats.bytes_synced.load(Ordering::Relaxed), 35, "only the live bytes");
        ssd.crash();
        assert_eq!(ssd.read_block(1).unwrap(), vec![9u8; 5]);
        assert_eq!(ssd.read_block(2), Err(SsdError::NotFound(2)));
        assert_eq!(ssd.read_block(3).unwrap(), vec![3u8; 30]);
    }

    #[test]
    fn dense_chunks_match_a_sorted_map() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut index = BlockIndex::default();
        let mut model = BTreeMap::new();
        // Runs in key order (a spill's), then scattered inserts that split
        // full chunks, removals, and re-inserts below every chunk.
        let mut next = [1_000u64; 3];
        for step in 0..20_000u64 {
            let high = rng.gen_range(0..3u64);
            let low = match rng.gen_range(0..10) {
                0..=5 => {
                    next[high as usize] += 1;
                    next[high as usize]
                }
                6 | 7 => rng.gen_range(0..next[high as usize] + 10),
                _ => {
                    let low = rng.gen_range(0..next[high as usize]);
                    index.remove((high as u128) << 64 | low as u128);
                    model.remove(&((high as u128) << 64 | low as u128));
                    continue;
                }
            };
            let id = (high as u128) << 64 | low as u128;
            index.insert(id, Extent::new(step, 1));
            model.insert(id, step);
        }
        for (&id, &offset) in &model {
            assert_eq!(index.get(id).map(Extent::offset), Some(offset), "{id:x}");
        }
        assert!(index.get(5 << 64).is_none());
        let all: Vec<u128> = model.keys().copied().collect();
        assert_eq!(index.ids((Bound::Unbounded, Bound::Unbounded)).collect::<Vec<_>>(), all);
        for _ in 0..200 {
            let (a, b) = (all[rng.gen_range(0..all.len())], all[rng.gen_range(0..all.len())]);
            let r = (Bound::Excluded(a.min(b)), Bound::Included(a.max(b) + 1));
            let want: Vec<u128> = model.range(r).map(|(&id, _)| id).collect();
            assert_eq!(index.ids(r).collect::<Vec<_>>(), want, "{r:?}");
        }
        for id in all {
            index.remove(id);
        }
        assert!(index.0.is_empty(), "emptied chunks and high halves leave nothing");
    }

    #[test]
    fn blocks_named_in_order_fill_their_chunks() {
        let mut index = BlockIndex::default();
        for low in 0..10 * CHUNK as u128 {
            index.insert(7 << 64 | low, Extent::new(low as u64, 272));
        }
        let chunks = &index.0[&7].0;
        assert_eq!(chunks.len(), 10);
        assert!(chunks.values().all(|c| c.len() == CHUNK && c.capacity() == CHUNK));
    }

    #[test]
    fn extent_packs_offset_and_length() {
        for (offset, len) in [(0, 0), (1, 1), (123_456_789, 272), ((1 << 40) - 1, (1 << 24) - 1)] {
            let e = Extent::new(offset, len);
            assert_eq!((e.offset(), e.len()), (offset, len));
        }
        assert_eq!(std::mem::size_of::<Extent>(), 8);
    }

    #[test]
    fn large_and_many_blocks_roundtrip_through_the_medium() {
        let ssd = SsdDevice::for_testing();
        let big: Vec<u8> = (0..64 * 1024).map(|i| (i % 251) as u8).collect();
        let small = |i: u128| -> Vec<u8> { (0..272).map(|j| (i as usize * 7 + j) as u8).collect() };
        ssd.write_block(u128::MAX, &big);
        for i in 0..1_000 {
            ssd.write_block(i, &small(i));
        }
        ssd.fsync();
        ssd.crash();
        assert_eq!(ssd.read_block(u128::MAX).unwrap(), big);
        for i in 0..1_000 {
            assert_eq!(ssd.read_block(i).unwrap(), small(i), "block {i}");
        }
        assert_eq!(ssd.block_ids(.., usize::MAX).len(), 1_001);
    }

    #[test]
    fn overwritten_and_deleted_blocks_do_not_resurrect() {
        // The medium only grows, so the old bytes are still in the file:
        // the index must never point back at them.
        let ssd = SsdDevice::for_testing();
        ssd.write_block(1, b"old one");
        ssd.write_block(2, b"old two");
        ssd.fsync();
        ssd.write_block(1, b"new one, longer");
        ssd.delete_block(2);
        ssd.fsync();
        ssd.crash();
        assert_eq!(ssd.read_block(1).unwrap(), b"new one, longer");
        assert_eq!(ssd.read_block(2), Err(SsdError::NotFound(2)));
        assert_eq!(ssd.block_ids(.., usize::MAX), vec![1]);
    }

    #[test]
    fn fsync_writes_the_medium_once_per_batch() {
        let ssd = SsdDevice::for_testing();
        let writes = || ssd.medium_writes.load(Ordering::Relaxed);
        for i in 0..64 {
            ssd.write_block(i, &[i as u8; 272]);
        }
        assert_eq!(writes(), 0, "buffered writes stay in the page cache");
        ssd.fsync();
        assert_eq!(writes(), 1, "64 dirty blocks, one write");
        ssd.fsync();
        ssd.delete_block(3);
        ssd.fsync();
        assert_eq!(writes(), 1, "nothing dirty, nothing written");
        assert_eq!(ssd.stats.bytes_synced.load(Ordering::Relaxed), 64 * 272);
    }

    #[test]
    fn medium_file_has_no_name() {
        // Unlinked at creation: neither a live device nor a dropped one shows
        // up in the temp dir. Another test's device may be between its
        // create and its unlink at the instant of a listing, so an entry
        // counts only if it is still there a moment later.
        let lingering = || -> Vec<std::path::PathBuf> {
            let ours = format!("flexlog-ssd-{}-", std::process::id());
            let list = || -> Vec<_> {
                std::fs::read_dir(std::env::temp_dir())
                    .unwrap()
                    .filter_map(|e| Some(e.ok()?.path()))
                    .filter(|p| p.file_name().unwrap().to_string_lossy().starts_with(&ours))
                    .collect()
            };
            let first = list();
            if first.is_empty() {
                return first;
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
            list().into_iter().filter(|p| first.contains(p)).collect()
        };
        let devices: Vec<SsdDevice> = (0..4).map(|_| SsdDevice::for_testing()).collect();
        for d in &devices {
            d.write_block(1, b"x");
            d.fsync();
        }
        let named = lingering();
        assert!(named.is_empty(), "live devices: {named:?}");
        drop(devices);
        let left = lingering();
        assert!(left.is_empty(), "dropped devices: {left:?}");
    }

    /// Every block a device holds with its bytes, the medium's bytes, and
    /// the device's counters.
    type State = (Vec<(u128, Vec<u8>)>, Vec<u8>, [u64; 5]);

    fn state(ssd: &SsdDevice) -> State {
        let blocks = ssd.block_ids(.., usize::MAX).into_iter().map(|id| (id, ssd.read_block(id).unwrap())).collect();
        let mut medium = vec![0u8; ssd.inner.lock().medium_len as usize];
        ssd.medium.read_exact_at(&mut medium, 0).unwrap();
        let s = &ssd.stats;
        let counts = [&s.writes, &s.reads, &s.fsyncs, &s.bytes_synced, &ssd.medium_writes];
        (blocks, medium, counts.map(|c| c.load(Ordering::Relaxed)))
    }

    #[test]
    fn a_synced_write_is_write_blocks_then_fsync() {
        use crate::virtual_time;
        // Before the call, per case: blocks written and synced, then
        // deleted, then left dirty. Then the call's blocks.
        type Case = (Vec<u128>, Vec<u128>, Vec<u128>, Vec<u128>);
        let cases: [Case; 7] = [
            (vec![], vec![], vec![], vec![10, 11, 12]),
            (vec![], vec![], vec![], vec![]),
            (vec![1, 2, 3], vec![2], vec![], vec![4, 5]),
            (vec![1, 2, 3], vec![], vec![], vec![2, 3, 4]),
            (vec![1], vec![1], vec![], vec![9, 8, 2]),
            // The fallbacks: a dirty block, a repeated id.
            (vec![1], vec![], vec![7], vec![8, 9]),
            (vec![], vec![], vec![], vec![5, 5]),
        ];
        for (synced, deleted, dirty, call) in cases {
            let devices = [SsdDevice::new(DeviceClock::virtual_clock()), SsdDevice::new(DeviceClock::virtual_clock())];
            let mut charged = [0u64; 2];
            for (k, ssd) in devices.iter().enumerate() {
                let bytes = |id: u128, v: u8| vec![id as u8 ^ v; 40 + id as usize];
                write_all(ssd, synced.iter().map(|&id| (id, bytes(id, 0))));
                ssd.fsync();
                for &id in &deleted {
                    ssd.delete_block(id);
                }
                write_all(ssd, dirty.iter().map(|&id| (id, bytes(id, 1))));
                let (mut data, mut extents) = (Vec::new(), Vec::new());
                for (n, &id) in call.iter().enumerate() {
                    let block = bytes(id, 2 + n as u8);
                    extents.push((id, block.len()));
                    data.extend(block);
                }
                virtual_time::take();
                if k == 0 {
                    ssd.write_blocks(&data, &extents);
                    ssd.fsync();
                } else {
                    ssd.write_synced(&data, &extents);
                }
                charged[k] = virtual_time::take();
                // Not synced: lost on the crash below, on either device.
                write_all(ssd, [(30, vec![3; 8])]);
                ssd.delete_block(call.first().copied().unwrap_or(1));
            }
            let case = (&synced, &deleted, &dirty, &call);
            assert_eq!(charged[0], charged[1], "{case:?}: virtual-clock charge");
            assert_eq!(state(&devices[0]), state(&devices[1]), "{case:?}: before the crash");
            for ssd in &devices {
                ssd.crash();
            }
            assert_eq!(state(&devices[0]), state(&devices[1]), "{case:?}: after the crash");
        }
    }

    #[test]
    fn fsync_charges_device_time() {
        use crate::virtual_time;
        let ssd = SsdDevice::new(DeviceClock::virtual_clock());
        virtual_time::take();
        ssd.write_block(1, &vec![0u8; 4096]);
        let after_write = virtual_time::get();
        ssd.fsync();
        let after_sync = virtual_time::get();
        // The fsync must cost far more than the buffered write.
        assert!(after_sync - after_write > after_write);
    }
}
