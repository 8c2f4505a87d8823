//! The simulated persistent-memory device.
//!
//! [`PmDevice`] is a byte-addressable region with the *persistence boundary*
//! semantics of real PM behind a CPU cache hierarchy:
//!
//! * [`PmDevice::write`] stores into a **volatile overlay** (the "CPU cache")
//!   — visible to subsequent reads, but *not* yet durable;
//! * [`PmDevice::persist`] (= `CLWB` + `SFENCE` in PMDK terms) makes a range
//!   of the overlay durable;
//! * [`PmDevice::crash`] simulates a power failure: the overlay is discarded
//!   and only persisted bytes survive. [`PmDevice::crash_torn`] additionally
//!   models torn flushes at the 8-byte power-fail-atomicity granularity.
//!
//! The device keeps **one** image — the state the CPU sees — plus the
//! pre-image of every unpersisted range, which is all a crash needs to take
//! the image back to what the media held. A writer that persists right
//! after it writes (the pool does) keeps that side table empty.
//!
//! Every operation charges its modelled latency (see [`LatencyModel`]) via
//! the device's [`DeviceClock`].

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;
use rand::Rng;

use crate::image::{self, Image};
use crate::{DeviceClock, LatencyModel};

/// Power-fail atomicity unit of PM hardware (8 bytes, like real Optane).
pub const ATOMIC_UNIT: usize = 8;

/// Configuration for a [`PmDevice`].
#[derive(Clone, Debug)]
pub struct PmDeviceConfig {
    /// Device capacity in bytes.
    pub capacity: usize,
    /// Latency model (defaults to kernel-bypass PM).
    pub latency: LatencyModel,
    /// Latency accounting mode.
    pub clock: DeviceClock,
}

impl Default for PmDeviceConfig {
    fn default() -> Self {
        PmDeviceConfig {
            capacity: 16 << 20, // 16 MiB is plenty for the simulated logs
            latency: LatencyModel::pm_bypass(),
            clock: DeviceClock::off(),
        }
    }
}

/// Errors from device accesses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeviceError {
    /// Access past the end of the device.
    OutOfBounds { offset: usize, len: usize, capacity: usize },
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::OutOfBounds { offset, len, capacity } => write!(
                f,
                "access [{offset}, {}) out of bounds (capacity {capacity})",
                offset + len
            ),
        }
    }
}

impl std::error::Error for DeviceError {}

struct Inner {
    /// Current state as seen by the CPU: durable bytes + unflushed writes.
    working: Image,
    /// Unflushed ranges, kept merged and non-overlapping: start → the bytes
    /// the media holds there (what a crash restores).
    dirty: BTreeMap<usize, Vec<u8>>,
    /// Test hook: device operations left before the power fails
    /// (see [`PmDevice::fail_after`]).
    power_budget: Option<u64>,
}

impl Inner {
    /// Counts one write/persist against the power budget; false once the
    /// power has failed, when the operation must leave no trace.
    fn powered(&mut self) -> bool {
        match &mut self.power_budget {
            None => true,
            Some(0) => false,
            Some(left) => {
                *left -= 1;
                true
            }
        }
    }
}

/// Counters exposed for tests and benchmarks.
#[derive(Debug, Default)]
pub struct DeviceStats {
    pub reads: AtomicU64,
    pub writes: AtomicU64,
    pub bytes_read: AtomicU64,
    pub bytes_written: AtomicU64,
    pub persists: AtomicU64,
}

/// See module docs.
pub struct PmDevice {
    inner: Mutex<Inner>,
    latency: LatencyModel,
    clock: DeviceClock,
    capacity: usize,
    pub stats: DeviceStats,
}

impl PmDevice {
    pub fn new(config: PmDeviceConfig) -> Self {
        PmDevice {
            inner: Mutex::new(Inner {
                working: image::zeroed(config.capacity),
                dirty: BTreeMap::new(),
                power_budget: None,
            }),
            latency: config.latency,
            clock: config.clock,
            capacity: config.capacity,
            stats: DeviceStats::default(),
        }
    }

    /// A device with default capacity and no latency accounting.
    pub fn for_testing() -> Self {
        PmDevice::new(PmDeviceConfig::default())
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn check(&self, offset: usize, len: usize) -> Result<(), DeviceError> {
        if offset.checked_add(len).is_none_or(|end| end > self.capacity) {
            return Err(DeviceError::OutOfBounds {
                offset,
                len,
                capacity: self.capacity,
            });
        }
        Ok(())
    }

    /// Stores `data` at `offset` (volatile until persisted).
    pub fn write(&self, offset: usize, data: &[u8]) -> Result<(), DeviceError> {
        self.check(offset, data.len())?;
        self.clock.consume(self.latency.write_ns(data.len()));
        let mut inner = self.inner.lock();
        if !inner.powered() {
            return Ok(());
        }
        let Inner { working, dirty, .. } = &mut *inner;
        mark_dirty(dirty, working, offset, offset + data.len());
        working[offset..offset + data.len()].copy_from_slice(data);
        self.stats.writes.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes_written
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Reads `len` bytes starting at `offset` (sees unpersisted writes, like
    /// a CPU load through the cache).
    pub fn read(&self, offset: usize, len: usize) -> Result<Vec<u8>, DeviceError> {
        let mut bytes = Vec::with_capacity(len);
        self.read_into(offset, len, &mut bytes)?;
        Ok(bytes)
    }

    /// [`PmDevice::read`] appending the bytes to `out`.
    pub fn read_into(&self, offset: usize, len: usize, out: &mut Vec<u8>) -> Result<(), DeviceError> {
        self.check(offset, len)?;
        self.clock.consume(self.latency.read_ns(len));
        let inner = self.inner.lock();
        self.stats.reads.fetch_add(1, Ordering::Relaxed);
        self.stats.bytes_read.fetch_add(len as u64, Ordering::Relaxed);
        out.extend_from_slice(&inner.working[offset..offset + len]);
        Ok(())
    }

    /// Flushes `[offset, offset+len)` to the media and drains (CLWB+SFENCE):
    /// on return those bytes are durable. Charges the flush+fence cost
    /// (~150 ns base + per-cache-line work), like real Optane persists.
    pub fn persist(&self, offset: usize, len: usize) -> Result<(), DeviceError> {
        self.check(offset, len)?;
        self.clock.consume(150 + (len as u64) / 32);
        let mut inner = self.inner.lock();
        if !inner.powered() {
            return Ok(());
        }
        clear_dirty(&mut inner.dirty, offset, offset + len);
        self.stats.persists.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Persists everything outstanding.
    pub fn persist_all(&self) {
        let mut inner = self.inner.lock();
        if !inner.powered() {
            return;
        }
        inner.dirty.clear();
        self.stats.persists.fetch_add(1, Ordering::Relaxed);
    }

    /// Total bytes currently dirty (unpersisted).
    pub fn dirty_bytes(&self) -> usize {
        self.inner.lock().dirty.values().map(Vec::len).sum()
    }

    /// Test hook: the power fails after `ops` more writes/persists — every
    /// later one is dropped without a trace (and without an error: the
    /// caller runs on obliviously, as code does until the lights go out),
    /// until [`PmDevice::crash`] or [`PmDevice::crash_torn`] settles what
    /// survived and switches the power back on. Crash-point sweeps use it
    /// to stop a pool *inside* an operation.
    #[doc(hidden)]
    pub fn fail_after(&self, ops: u64) {
        self.inner.lock().power_budget = Some(ops);
    }

    /// Test hook: true once a [`PmDevice::fail_after`] budget has run out.
    #[doc(hidden)]
    pub fn power_failed(&self) -> bool {
        self.inner.lock().power_budget == Some(0)
    }

    /// Power failure: all unpersisted writes are lost; the working state is
    /// reset to the media contents.
    pub fn crash(&self) {
        let mut inner = self.inner.lock();
        let Inner { working, dirty, power_budget } = &mut *inner;
        for (start, pre) in std::mem::take(dirty) {
            working[start..start + pre.len()].copy_from_slice(&pre);
        }
        *power_budget = None;
    }

    /// Power failure with torn flushes: each dirty 8-byte unit independently
    /// survives with probability 1/2, modelling cache lines that happened to
    /// be evicted (and the hardware's 8-byte atomicity). Used by
    /// crash-consistency tests to attack the recovery paths.
    pub fn crash_torn<R: Rng>(&self, rng: &mut R) {
        let mut inner = self.inner.lock();
        let Inner { working, dirty, power_budget } = &mut *inner;
        for (start, pre) in std::mem::take(dirty) {
            let end = start + pre.len();
            let mut unit = start - start % ATOMIC_UNIT;
            while unit < end {
                let lo = unit.max(start);
                let hi = (unit + ATOMIC_UNIT).min(end);
                // Heads: this unit made it to the media before power was
                // lost. Tails: the media still holds its pre-image.
                if !rng.gen_bool(0.5) {
                    working[lo..hi].copy_from_slice(&pre[lo - start..hi - start]);
                }
                unit += ATOMIC_UNIT;
            }
        }
        *power_budget = None;
    }

    /// Reads directly from the media, bypassing the overlay — what a fresh
    /// boot would see. Charges no latency; used by recovery code and tests.
    pub fn read_media(&self, offset: usize, len: usize) -> Result<Vec<u8>, DeviceError> {
        self.check(offset, len)?;
        let inner = self.inner.lock();
        let end = offset + len;
        let mut out = inner.working[offset..end].to_vec();
        for (&start, pre) in overlapping(&inner.dirty, offset, end) {
            let lo = start.max(offset);
            let hi = (start + pre.len()).min(end);
            out[lo - offset..hi - offset].copy_from_slice(&pre[lo - start..hi - start]);
        }
        Ok(out)
    }
}

/// The dirty ranges intersecting `[start, end)`, ascending. Ranges never
/// overlap, so at most one of them begins before `start`.
fn overlapping(
    dirty: &BTreeMap<usize, Vec<u8>>,
    start: usize,
    end: usize,
) -> impl Iterator<Item = (&usize, &Vec<u8>)> {
    let straddling = dirty
        .range(..start)
        .next_back()
        .filter(|(&s, pre)| s + pre.len() > start);
    straddling.into_iter().chain(dirty.range(start..end))
}

/// Records `[start, end)` of `working` as about to be overwritten: its
/// current bytes become the range's pre-image, except where an earlier
/// unflushed write already holds an older one. Overlapping and adjacent
/// ranges merge (a torn crash flips one coin per 8-byte unit per range).
fn mark_dirty(dirty: &mut BTreeMap<usize, Vec<u8>>, working: &[u8], mut start: usize, mut end: usize) {
    let absorbed: Vec<usize> = dirty
        .range(..=end)
        .rev()
        .take_while(|(&s, pre)| s + pre.len() >= start)
        .map(|(&s, _)| s)
        .collect();
    if absorbed.is_empty() {
        dirty.insert(start, working[start..end].to_vec());
        return;
    }
    let olds: Vec<(usize, Vec<u8>)> = absorbed
        .into_iter()
        .map(|s| (s, dirty.remove(&s).expect("range present")))
        .collect();
    for (s, pre) in &olds {
        start = start.min(*s);
        end = end.max(s + pre.len());
    }
    let mut merged = working[start..end].to_vec();
    for (s, pre) in olds {
        merged[s - start..s - start + pre.len()].copy_from_slice(&pre);
    }
    dirty.insert(start, merged);
}

/// Removes `[start, end)` from the dirty map, splitting ranges as needed.
fn clear_dirty(dirty: &mut BTreeMap<usize, Vec<u8>>, start: usize, end: usize) {
    loop {
        let next = overlapping(dirty, start, end).next().map(|(&s, _)| s);
        let Some(s) = next else { break };
        let mut pre = dirty.remove(&s).expect("range present");
        if s + pre.len() > end {
            dirty.insert(end, pre.split_off(end - s));
        }
        if s < start {
            pre.truncate(start - s);
            dirty.insert(s, pre);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn write_read_roundtrip() {
        let dev = PmDevice::for_testing();
        dev.write(100, b"hello").unwrap();
        assert_eq!(dev.read(100, 5).unwrap(), b"hello");
    }

    #[test]
    fn out_of_bounds_rejected() {
        let dev = PmDevice::new(PmDeviceConfig {
            capacity: 64,
            ..Default::default()
        });
        assert!(dev.write(60, b"too long").is_err());
        assert!(dev.read(64, 1).is_err());
        assert!(dev.read(usize::MAX, 2).is_err()); // overflow-safe
    }

    #[test]
    fn unpersisted_writes_lost_on_crash() {
        let dev = PmDevice::for_testing();
        dev.write(0, b"durable").unwrap();
        dev.persist(0, 7).unwrap();
        dev.write(100, b"volatile").unwrap();
        dev.crash();
        assert_eq!(dev.read(0, 7).unwrap(), b"durable");
        assert_eq!(dev.read(100, 8).unwrap(), vec![0u8; 8]);
    }

    #[test]
    fn persist_range_only_persists_that_range() {
        let dev = PmDevice::for_testing();
        dev.write(0, b"aaaa").unwrap();
        dev.write(10, b"bbbb").unwrap();
        dev.persist(0, 4).unwrap();
        dev.crash();
        assert_eq!(dev.read(0, 4).unwrap(), b"aaaa");
        assert_eq!(dev.read(10, 4).unwrap(), vec![0u8; 4]);
    }

    #[test]
    fn persist_all_flushes_everything() {
        let dev = PmDevice::for_testing();
        dev.write(0, b"x").unwrap();
        dev.write(1000, b"y").unwrap();
        assert!(dev.dirty_bytes() >= 2);
        dev.persist_all();
        assert_eq!(dev.dirty_bytes(), 0);
        dev.crash();
        assert_eq!(dev.read(0, 1).unwrap(), b"x");
        assert_eq!(dev.read(1000, 1).unwrap(), b"y");
    }

    #[test]
    fn reads_see_unpersisted_writes() {
        let dev = PmDevice::for_testing();
        dev.write(5, b"cache").unwrap();
        assert_eq!(dev.read(5, 5).unwrap(), b"cache");
        assert_eq!(dev.read_media(5, 5).unwrap(), vec![0u8; 5]);
    }

    #[test]
    fn dirty_ranges_merge() {
        let working = [0u8; 64];
        let mut dirty = BTreeMap::new();
        mark_dirty(&mut dirty, &working, 0, 10);
        mark_dirty(&mut dirty, &working, 10, 20); // adjacent
        mark_dirty(&mut dirty, &working, 5, 15); // overlapping
        assert_eq!(dirty.len(), 1);
        assert_eq!(dirty.get(&0).map(Vec::len), Some(20));
        mark_dirty(&mut dirty, &working, 30, 40);
        assert_eq!(dirty.len(), 2);
    }

    #[test]
    fn clear_dirty_splits_ranges() {
        let working: Vec<u8> = (0..100).collect();
        let mut dirty = BTreeMap::new();
        mark_dirty(&mut dirty, &working, 0, 100);
        clear_dirty(&mut dirty, 40, 60);
        assert_eq!(dirty.get(&0), Some(&working[..40].to_vec()));
        assert_eq!(dirty.get(&60), Some(&working[60..].to_vec()));
    }

    #[test]
    fn overwriting_an_unflushed_write_keeps_the_oldest_pre_image() {
        let dev = PmDevice::for_testing();
        dev.write(0, &[1u8; 16]).unwrap();
        dev.persist(0, 16).unwrap();
        dev.write(4, &[2u8; 8]).unwrap();
        dev.write(0, &[3u8; 8]).unwrap(); // overlaps the unflushed [4, 12)
        assert_eq!(dev.read(0, 16).unwrap(), [&[3u8; 8][..], &[2u8; 4], &[1u8; 4]].concat());
        assert_eq!(dev.read_media(0, 16).unwrap(), vec![1u8; 16]);
        dev.persist(0, 6).unwrap(); // a partial flush splits the pre-image
        assert_eq!(dev.read_media(0, 16).unwrap(), [&[3u8; 6][..], &[1u8; 10]].concat());
        dev.crash();
        assert_eq!(dev.read(0, 16).unwrap(), [&[3u8; 6][..], &[1u8; 10]].concat());
        assert_eq!(dev.dirty_bytes(), 0);
    }

    #[test]
    fn power_budget_drops_later_operations() {
        let dev = PmDevice::for_testing();
        dev.fail_after(3);
        dev.write(0, b"kept").unwrap();
        dev.persist(0, 4).unwrap();
        dev.write(8, b"torn").unwrap(); // last operation before the failure
        assert!(dev.power_failed());
        dev.persist(8, 4).unwrap(); // dropped
        dev.write(16, b"lost").unwrap(); // dropped
        dev.crash();
        assert!(!dev.power_failed());
        assert_eq!(dev.read(0, 4).unwrap(), b"kept");
        assert_eq!(dev.read(8, 4).unwrap(), vec![0u8; 4]);
        assert_eq!(dev.read(16, 4).unwrap(), vec![0u8; 4]);
    }

    #[test]
    fn torn_crash_preserves_persisted_data() {
        let dev = PmDevice::for_testing();
        dev.write(0, &[7u8; 256]).unwrap();
        dev.persist(0, 256).unwrap();
        dev.write(512, &[9u8; 256]).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        dev.crash_torn(&mut rng);
        // Persisted range intact regardless of tearing.
        assert_eq!(dev.read(0, 256).unwrap(), vec![7u8; 256]);
        // Torn range: each 8-byte unit is either all-old or all-new.
        let torn = dev.read(512, 256).unwrap();
        for unit in torn.chunks(ATOMIC_UNIT) {
            assert!(
                unit.iter().all(|&b| b == 0) || unit.iter().all(|&b| b == 9),
                "unit torn below atomicity granularity: {unit:?}"
            );
        }
    }

    #[test]
    fn stats_track_operations() {
        let dev = PmDevice::for_testing();
        dev.write(0, b"ab").unwrap();
        dev.read(0, 2).unwrap();
        assert_eq!(dev.stats.writes.load(Ordering::Relaxed), 1);
        assert_eq!(dev.stats.reads.load(Ordering::Relaxed), 1);
        assert_eq!(dev.stats.bytes_written.load(Ordering::Relaxed), 2);
    }
}
