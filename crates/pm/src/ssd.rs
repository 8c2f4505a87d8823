//! Simulated SSD with page-cache + fsync semantics.
//!
//! Backs (i) the third tier of a FlexLog replica (§5.2: old log portions are
//! flushed from PM to SSD) and (ii) the Boki/RocksDB storage baseline's WAL
//! and SSTs. Writes land in a volatile page cache at syscall cost; only
//! [`SsdDevice::fsync`] pays the device's write latency and makes the blocks
//! durable — exactly the cost structure that makes SSD-backed logs slow in
//! the paper's Figure 5 analysis ("sync syscalls to synchronize the OS's
//! write buffer with the SSD").

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::{DeviceClock, LatencyModel};

/// Cost of a buffered write/read syscall (kernel crossing + copy), charged
/// even when the device itself is not touched.
const SYSCALL_NS: u64 = 1_500;

/// Page-cache capacity in blocks (~64 MiB of 4 KiB blocks, the OS share a
/// storage server would typically get).
const READ_CACHE_BLOCKS: usize = 16_384;

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

struct SsdInner {
    /// Durable blocks (survive crash). A BTreeMap so that block-count
    /// growth never triggers an O(n) table rehash mid-write — spill batches
    /// run on the commit path, where a multi-ms rehash spike of a
    /// hundred-thousand-block device becomes an append stall.
    durable: BTreeMap<u128, Vec<u8>>,
    /// Dirty blocks in the page cache (lost on crash).
    dirty: HashMap<u128, Vec<u8>>,
    /// Blocks deleted in the cache but not yet synced.
    dirty_deletes: Vec<u128>,
    /// Clean blocks resident in the OS page cache (reads hit memory). Like
    /// a real page cache this is volatile and bounded.
    read_cache: HashSet<u128>,
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
    latency: LatencyModel,
    clock: DeviceClock,
    pub stats: SsdStats,
}

impl SsdDevice {
    pub fn new(clock: DeviceClock) -> Self {
        SsdDevice {
            inner: Mutex::new(SsdInner {
                durable: BTreeMap::new(),
                dirty: HashMap::new(),
                dirty_deletes: Vec::new(),
                read_cache: HashSet::new(),
            }),
            latency: LatencyModel::ssd(),
            clock,
            stats: SsdStats::default(),
        }
    }

    /// SSD with no latency accounting (unit tests).
    pub fn for_testing() -> Self {
        SsdDevice::new(DeviceClock::off())
    }

    /// Buffered write: lands in the page cache at syscall cost; durable only
    /// after [`SsdDevice::fsync`].
    pub fn write_block(&self, id: u128, data: &[u8]) {
        self.clock.consume(SYSCALL_NS);
        let mut inner = self.inner.lock();
        inner.dirty.insert(id, data.to_vec());
        self.stats.writes.fetch_add(1, Ordering::Relaxed);
    }

    /// Reads a block, hitting the page cache first, the device otherwise.
    pub fn read_block(&self, id: u128) -> Result<Vec<u8>, SsdError> {
        let inner = self.inner.lock();
        self.stats.reads.fetch_add(1, Ordering::Relaxed);
        if let Some(b) = inner.dirty.get(&id) {
            // Page-cache hit: syscall cost only.
            let data = b.clone();
            drop(inner);
            self.clock.consume(SYSCALL_NS);
            return Ok(data);
        }
        match inner.durable.get(&id) {
            Some(b) => {
                let data = b.clone();
                let cached = inner.read_cache.contains(&id);
                drop(inner);
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
            || (inner.durable.contains_key(&id) && !inner.dirty_deletes.contains(&id))
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
            let dirty: Vec<(u128, Vec<u8>)> = inner.dirty.drain().collect();
            let deletes = std::mem::take(&mut inner.dirty_deletes);
            let mut bytes = 0u64;
            for id in deletes {
                inner.durable.remove(&id);
            }
            let any = !dirty.is_empty();
            for (id, data) in dirty {
                bytes += data.len() as u64;
                inner.durable.insert(id, data);
            }
            self.stats.fsyncs.fetch_add(1, Ordering::Relaxed);
            self.stats.bytes_synced.fetch_add(bytes, Ordering::Relaxed);
            // One batched sequential writeback: the device base cost is
            // paid once, the per-byte cost for all dirty data.
            if any {
                self.latency.write_ns(bytes as usize)
            } else {
                0
            }
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
        inner.dirty_deletes.clear();
        inner.read_cache.clear();
    }

    /// Ids of all durable + dirty blocks.
    pub fn block_ids(&self) -> Vec<u128> {
        let inner = self.inner.lock();
        let mut ids: Vec<u128> = inner
            .durable
            .keys()
            .filter(|id| !inner.dirty_deletes.contains(id))
            .chain(inner.dirty.keys())
            .copied()
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(ssd.block_ids(), vec![1, 2, 3]);
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
