//! A PM device's image is resident only where its log wrote, whatever the
//! heap held before. Its own test binary, so no other test's allocations
//! move the process's RSS while it measures. Linux only: it reads
//! `/proc/self/status`.
#![cfg(target_os = "linux")]

use flexlog_pm::{PmDevice, PmDeviceConfig};

fn rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with("VmRSS:")).unwrap();
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

/// Writes and persists the first `bytes` of `dev`, 64 KiB at a time.
fn write(dev: &PmDevice, bytes: usize) {
    let chunk = vec![0xA5u8; 64 << 10];
    for off in (0..bytes).step_by(chunk.len()) {
        dev.write(off, &chunk).unwrap();
        dev.persist(off, chunk.len()).unwrap();
    }
}

/// The benchmark's third cluster built in memory the first two had freed.
/// Here the first device's drop teaches glibc to serve a block of its size
/// from the heap, and 32 MiB of freed 64 KiB blocks leave the heap with
/// memory it has handed back to the kernel: a heap-allocated image of the
/// next device is zero-filled there by `calloc`, every page of it (+16 MiB
/// for a 1 MiB log). The default 16 MiB device is the size that shows it:
/// glibc maps anything above 32 MiB itself, so a 64 MiB image never came
/// from the heap.
#[test]
fn a_new_device_is_resident_only_where_it_was_written() {
    drop(PmDevice::new(PmDeviceConfig::default()));
    drop((0..512).map(|_| vec![1u8; 64 << 10]).collect::<Vec<_>>());
    let before = rss_kib();
    let dev = PmDevice::new(PmDeviceConfig::default());
    write(&dev, 1 << 20);
    let risen_mib = (rss_kib().saturating_sub(before)) as f64 / 1024.0;
    assert!(risen_mib < 8.0, "a 1 MiB log made its device {risen_mib:.1} MiB resident");
}
