//! A syscall-shaped local filesystem over the simulated SSD, instrumented
//! per syscall — the measurement harness behind Table 1.
//!
//! The paper profiles serverless functions with `perf`, attributing CPU
//! time to `open`, `read`, `write`, `fstat` and `close`. This module
//! provides the same five operations backed by an [`SsdDevice`] in spin
//! (real-latency) mode and records wall time per syscall into a
//! [`StorageProfile`], so a workload's storage-time share is measured
//! directly. The cost model follows Linux buffered I/O:
//!
//! * `open` of a file not seen before pays a cold metadata read (directory
//!   lookup); re-opens hit the dentry cache;
//! * `read` pays a cold device read on the first touch of every readahead
//!   window; everything inside a prefetched window is a page-cache copy;
//! * `write` lands in the page cache; dirty-page throttling makes the
//!   writer pay one unit of inline writeback every few dirty units;
//! * `fstat`/`close` are cheap syscalls (inode already cached).

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use flexlog_pm::{DeviceClock, SsdDevice};

/// A file descriptor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Fd(u64);

/// Filesystem errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FsError {
    NotFound(String),
    BadFd(Fd),
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::NotFound(p) => write!(f, "no such file: {p}"),
            FsError::BadFd(fd) => write!(f, "bad file descriptor {fd:?}"),
        }
    }
}

impl std::error::Error for FsError {}

/// Wall time spent per storage syscall (Table 1's rows).
#[derive(Clone, Debug, Default)]
pub struct StorageProfile {
    per_syscall: HashMap<&'static str, Duration>,
    calls: HashMap<&'static str, u64>,
}

impl StorageProfile {
    fn add(&mut self, name: &'static str, d: Duration) {
        *self.per_syscall.entry(name).or_default() += d;
        *self.calls.entry(name).or_default() += 1;
    }

    /// Total time in storage syscalls.
    pub fn total(&self) -> Duration {
        self.per_syscall.values().sum()
    }

    /// Time spent in one syscall.
    pub fn of(&self, name: &str) -> Duration {
        self.per_syscall.get(name).copied().unwrap_or_default()
    }

    /// Number of invocations of one syscall.
    pub fn calls_of(&self, name: &str) -> u64 {
        self.calls.get(name).copied().unwrap_or_default()
    }

    /// Share of `total_runtime` attributable to each syscall, as
    /// percentages, in Table 1's row order.
    pub fn shares(&self, total_runtime: Duration) -> Vec<(&'static str, f64)> {
        let t = total_runtime.as_secs_f64().max(f64::EPSILON);
        ["open", "read", "write", "fstat", "close"]
            .iter()
            .map(|&name| (name, 100.0 * self.of(name).as_secs_f64() / t))
            .collect()
    }

    /// Total storage share of `total_runtime` (Table 1's "Total" row).
    pub fn total_share(&self, total_runtime: Duration) -> f64 {
        100.0 * self.total().as_secs_f64() / total_runtime.as_secs_f64().max(f64::EPSILON)
    }

    /// Merges another profile into this one.
    pub fn merge(&mut self, other: &StorageProfile) {
        for (&k, &v) in &other.per_syscall {
            *self.per_syscall.entry(k).or_default() += v;
        }
        for (&k, &v) in &other.calls {
            *self.calls.entry(k).or_default() += v;
        }
    }
}

struct OpenFile {
    name: String,
    cursor: usize,
}

struct FsInner {
    /// name → content.
    files: HashMap<String, Vec<u8>>,
    open: HashMap<Fd, OpenFile>,
    next_fd: u64,
    profile: StorageProfile,
    /// Dentry cache: names already looked up.
    dentry_cache: HashSet<String>,
    /// Page cache: (file, readahead window) pairs already resident.
    page_cache: HashSet<(String, usize)>,
    /// Units written since the last inline writeback.
    dirty_units: usize,
}

/// See module docs.
pub struct LocalFs {
    ssd: SsdDevice,
    inner: Mutex<FsInner>,
    /// Chunk granularity for charging device latency.
    io_unit: usize,
    /// Sequential readahead window in io_units.
    readahead: usize,
    /// Dirty-page throttling period in units.
    writeback_every: usize,
}

/// Metadata returned by [`LocalFs::fstat`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stat {
    pub size: usize,
}

impl LocalFs {
    /// A filesystem with real (spin-clock) SSD latency — profiles reflect
    /// wall time like the paper's `perf` runs.
    pub fn new() -> Self {
        Self::with_clock(DeviceClock::spin())
    }

    fn with_clock(clock: DeviceClock) -> Self {
        LocalFs {
            ssd: SsdDevice::new(clock),
            inner: Mutex::new(FsInner {
                files: HashMap::new(),
                open: HashMap::new(),
                next_fd: 3, // 0–2 are taken, like home
                profile: StorageProfile::default(),
                dentry_cache: HashSet::new(),
                page_cache: HashSet::new(),
                dirty_units: 0,
            }),
            io_unit: 4096,
            readahead: 16,
            writeback_every: 2,
        }
    }

    /// Pre-populates a file without touching the profile (test fixtures).
    pub fn put_file(&self, name: &str, content: Vec<u8>) {
        self.inner.lock().files.insert(name.to_string(), content);
    }

    /// File contents, bypassing the syscall layer (assertions).
    pub fn raw_contents(&self, name: &str) -> Option<Vec<u8>> {
        self.inner.lock().files.get(name).cloned()
    }

    /// `open(2)`: creates the file if absent. A cold path lookup pays a
    /// metadata device read; re-opens hit the dentry cache.
    pub fn open(&self, name: &str) -> Fd {
        let start = Instant::now();
        let cold = {
            let mut inner = self.inner.lock();
            inner.dentry_cache.insert(name.to_string())
        };
        if cold {
            self.ssd.charge_read(4096); // directory block
        } else {
            self.ssd.charge_syscall();
        }
        let mut inner = self.inner.lock();
        inner.files.entry(name.to_string()).or_default();
        let fd = Fd(inner.next_fd);
        inner.next_fd += 1;
        inner.open.insert(
            fd,
            OpenFile {
                name: name.to_string(),
                cursor: 0,
            },
        );
        inner.profile.add("open", start.elapsed());
        fd
    }

    /// `read(2)`: reads up to `len` bytes at the cursor. The first touch of
    /// each readahead window pays the device; the rest is page-cache copy.
    pub fn read(&self, fd: Fd, len: usize) -> Result<Vec<u8>, FsError> {
        let start = Instant::now();
        let (name, cursor, data) = {
            let mut inner = self.inner.lock();
            let file = inner.open.get(&fd).ok_or(FsError::BadFd(fd))?;
            let name = file.name.clone();
            let cursor = file.cursor;
            let content = inner
                .files
                .get(&name)
                .ok_or_else(|| FsError::NotFound(name.clone()))?;
            let end = (cursor + len).min(content.len());
            let data = content[cursor.min(content.len())..end].to_vec();
            inner.open.get_mut(&fd).expect("checked").cursor = end;
            (name, cursor, data)
        };
        self.ssd.charge_syscall();
        let window_bytes = self.io_unit * self.readahead;
        let end = cursor + data.len();
        let mut window = cursor / window_bytes;
        loop {
            let cold = self
                .inner
                .lock()
                .page_cache
                .insert((name.clone(), window));
            if cold {
                // Cold window: one device read covers the readahead span.
                self.ssd
                    .charge_read(window_bytes.min(data.len().max(self.io_unit)));
            }
            if (window + 1) * window_bytes >= end.max(cursor + 1) {
                break;
            }
            window += 1;
        }
        self.inner.lock().profile.add("read", start.elapsed());
        Ok(data)
    }

    /// `write(2)`: appends/overwrites at the cursor. Page-cache write plus
    /// throttled inline writeback.
    pub fn write(&self, fd: Fd, data: &[u8]) -> Result<usize, FsError> {
        let start = Instant::now();
        {
            let mut inner = self.inner.lock();
            let file = inner.open.get(&fd).ok_or(FsError::BadFd(fd))?;
            let name = file.name.clone();
            let cursor = file.cursor;
            let content = inner.files.entry(name.clone()).or_default();
            if content.len() < cursor {
                content.resize(cursor, 0);
            }
            if cursor == content.len() {
                content.extend_from_slice(data);
            } else {
                let end = (cursor + data.len()).min(content.len());
                content[cursor..end].copy_from_slice(&data[..end - cursor]);
                content.extend_from_slice(&data[end - cursor..]);
            }
            inner.open.get_mut(&fd).expect("checked").cursor = cursor + data.len();
        }
        self.ssd.charge_syscall();
        let units = data.len().div_ceil(self.io_unit).max(1);
        for _ in 0..units {
            let throttle = {
                let mut inner = self.inner.lock();
                inner.dirty_units += 1;
                if inner.dirty_units >= self.writeback_every {
                    inner.dirty_units = 0;
                    true
                } else {
                    false
                }
            };
            if throttle {
                // Inline writeback of one unit (dirty-page balancing).
                self.ssd.charge_write(self.io_unit);
            }
        }
        self.inner.lock().profile.add("write", start.elapsed());
        Ok(data.len())
    }

    /// `fstat(2)`: the inode is cached after open — syscall cost only.
    pub fn fstat(&self, fd: Fd) -> Result<Stat, FsError> {
        let start = Instant::now();
        let size = {
            let inner = self.inner.lock();
            let file = inner.open.get(&fd).ok_or(FsError::BadFd(fd))?;
            inner.files.get(&file.name).map_or(0, |c| c.len())
        };
        self.ssd.charge_syscall();
        self.inner.lock().profile.add("fstat", start.elapsed());
        Ok(Stat { size })
    }

    /// `close(2)`: releases the descriptor; remaining dirty pages are
    /// written back asynchronously (not charged, like a real close).
    pub fn close(&self, fd: Fd) -> Result<(), FsError> {
        let start = Instant::now();
        {
            let mut inner = self.inner.lock();
            inner.open.remove(&fd).ok_or(FsError::BadFd(fd))?;
        }
        self.ssd.charge_syscall();
        self.inner.lock().profile.add("close", start.elapsed());
        Ok(())
    }

    /// Snapshot of the syscall profile.
    pub fn profile(&self) -> StorageProfile {
        self.inner.lock().profile.clone()
    }

    /// Resets the profile (between workload runs).
    pub fn reset_profile(&self) {
        self.inner.lock().profile = StorageProfile::default();
    }
}

impl Default for LocalFs {
    fn default() -> Self {
        LocalFs::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_write_read_roundtrip() {
        let fs = LocalFs::new();
        let fd = fs.open("/tmp/a");
        fs.write(fd, b"hello ").unwrap();
        fs.write(fd, b"world").unwrap();
        fs.close(fd).unwrap();

        let fd = fs.open("/tmp/a");
        assert_eq!(fs.fstat(fd).unwrap().size, 11);
        assert_eq!(fs.read(fd, 5).unwrap(), b"hello");
        assert_eq!(fs.read(fd, 100).unwrap(), b" world");
        assert_eq!(fs.read(fd, 10).unwrap(), b"", "EOF");
        fs.close(fd).unwrap();
    }

    #[test]
    fn bad_fd_rejected() {
        let fs = LocalFs::new();
        assert_eq!(fs.read(Fd(99), 1), Err(FsError::BadFd(Fd(99))));
        assert_eq!(fs.close(Fd(99)), Err(FsError::BadFd(Fd(99))));
    }

    #[test]
    fn profile_records_each_syscall() {
        let fs = LocalFs::new();
        let fd = fs.open("/f");
        fs.write(fd, &[0u8; 8192]).unwrap();
        fs.fstat(fd).unwrap();
        let fd2 = fs.open("/f");
        fs.read(fd2, 8192).unwrap();
        fs.close(fd).unwrap();
        fs.close(fd2).unwrap();
        let p = fs.profile();
        for s in ["open", "read", "write", "fstat", "close"] {
            assert!(p.of(s) > Duration::ZERO, "{s} unrecorded");
        }
        assert_eq!(p.calls_of("open"), 2);
        assert_eq!(p.calls_of("close"), 2);
        assert!(p.total() > Duration::ZERO);
    }

    #[test]
    fn cold_open_costs_more_than_cached_open() {
        // Modelled device time on this thread's virtual clock: two wall
        // readings of a ~75 µs open compare whatever preempted them.
        use flexlog_pm::virtual_time;
        let fs = LocalFs::with_clock(DeviceClock::virtual_clock());
        let open_ns = |fs: &LocalFs| {
            virtual_time::take();
            let fd = fs.open("/cold");
            let ns = virtual_time::take();
            fs.close(fd).unwrap();
            ns
        };
        let cold = open_ns(&fs);
        let cached = open_ns(&fs); // dentry-cached now
        assert!(cold > cached * 2, "cold {cold} ns vs cached {cached} ns");
    }

    #[test]
    fn sequential_reads_benefit_from_readahead() {
        let fs = LocalFs::new();
        fs.put_file("/big", vec![0u8; 64 * 4096]);
        let fd = fs.open("/big");
        // First 4 KiB read is cold (pays the window); the next reads within
        // the same window must be much cheaper.
        fs.reset_profile();
        fs.read(fd, 4096).unwrap();
        let cold = fs.profile().of("read");
        fs.reset_profile();
        fs.read(fd, 4096).unwrap();
        let warm = fs.profile().of("read");
        assert!(cold > warm * 2, "cold {cold:?} vs warm {warm:?}");
        fs.close(fd).unwrap();
    }

    #[test]
    fn shares_sum_to_total_share() {
        let fs = LocalFs::new();
        let fd = fs.open("/f");
        fs.write(fd, &[1u8; 4096]).unwrap();
        fs.close(fd).unwrap();
        let p = fs.profile();
        let runtime = p.total() * 2; // pretend compute took as long as I/O
        let sum: f64 = p.shares(runtime).iter().map(|(_, s)| s).sum();
        assert!((sum - p.total_share(runtime)).abs() < 1e-6);
        assert!((p.total_share(runtime) - 50.0).abs() < 1.0);
    }

    #[test]
    fn overwrite_in_middle() {
        let fs = LocalFs::new();
        let fd = fs.open("/f");
        fs.write(fd, b"abcdef").unwrap();
        fs.close(fd).unwrap();
        let fd = fs.open("/f");
        fs.read(fd, 2).unwrap(); // cursor = 2
        fs.write(fd, b"XY").unwrap();
        fs.close(fd).unwrap();
        assert_eq!(fs.raw_contents("/f").unwrap(), b"abXYef");
    }
}
