//! End-to-end tests of the tiered storage stack (§5.2) through the full
//! cluster: records flow DRAM cache → PM → SSD as the log grows, stay
//! readable from every tier, and survive power failures wherever they live.
//! With a cold tier configured, trims archive before dropping and the log
//! replays from genesis out of the object store.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use flexlog::core::{ClusterSpec, ColorId, FlexLogCluster};
use flexlog::pm::{ClockMode, DeviceClock};
use flexlog::storage::{StorageConfig, TierConfig};
use flexlog::tier::SimObjectStore;
use flexlog::types::ShardId;

const RED: ColorId = ColorId(1);
const GREEN: ColorId = ColorId(2);

fn tiny_storage_cluster() -> FlexLogCluster {
    // A storage config small enough that a few hundred 1 KiB records spill.
    let spec = ClusterSpec {
        storage: StorageConfig {
            pm_capacity: 1 << 20,
            cache_capacity: 8 << 10,
            pm_watermark: 128 << 10,
            clock: ClockMode::Off,
            ..Default::default()
        },
        ..ClusterSpec::single_shard()
    };
    let c = FlexLogCluster::start(spec);
    c.add_color(RED).unwrap();
    c
}

#[test]
fn log_spills_to_ssd_and_stays_readable() {
    let c = tiny_storage_cluster();
    let mut h = c.handle();
    let mut sns = Vec::new();
    for i in 0..300u32 {
        sns.push(h.append(&vec![i as u8; 1024], RED).unwrap());
    }

    // The replicas must have pushed the oldest prefix to SSD.
    let mut any_spilled = false;
    for node in c.data().shard_replicas(ShardId(0)) {
        let storage = c.data().storage_of(node).unwrap();
        if storage.ssd_resident(RED) > 0 {
            any_spilled = true;
        }
        assert_eq!(storage.record_count(RED), 300);
    }
    assert!(any_spilled, "watermark crossing must spill to SSD");

    // Every record — PM- or SSD-resident — still readable via the API.
    for (i, sn) in sns.iter().enumerate() {
        let v = h.read(*sn, RED).unwrap().unwrap();
        assert_eq!(v, vec![i as u8; 1024], "record {i}");
    }
    c.shutdown();
}

#[test]
fn spilled_records_survive_power_failure() {
    let c = tiny_storage_cluster();
    let mut h = c.handle();
    let mut sns = Vec::new();
    for i in 0..200u32 {
        sns.push(h.append(&vec![i as u8; 1024], RED).unwrap());
    }

    for victim in c.data().shard_replicas(ShardId(0)) {
        c.data().crash_replica(c.network(), victim);
        c.data().restart_replica(c.network(), c.directory(), victim);
    }

    for (i, sn) in sns.iter().enumerate() {
        let v = h.read(*sn, RED).unwrap().unwrap();
        assert_eq!(v, vec![i as u8; 1024], "record {i} lost across tiers");
    }
    c.shutdown();
}

#[test]
fn trim_reclaims_across_tiers() {
    let c = tiny_storage_cluster();
    let mut h = c.handle();
    let mut sns = Vec::new();
    for i in 0..200u32 {
        sns.push(h.append(&vec![i as u8; 1024], RED).unwrap());
    }
    // Trim 80% of the log — includes the SSD-resident prefix.
    let cut = sns[159];
    h.trim(cut, RED).unwrap();

    for node in c.data().shard_replicas(ShardId(0)) {
        let storage = c.data().storage_of(node).unwrap();
        assert_eq!(storage.record_count(RED), 40);
    }
    assert_eq!(h.read(sns[0], RED).unwrap(), None);
    assert_eq!(h.read(sns[100], RED).unwrap(), None);
    assert!(h.read(sns[199], RED).unwrap().is_some());
    c.shutdown();
}

fn tiered_cluster() -> (FlexLogCluster, Arc<SimObjectStore>) {
    let store = Arc::new(SimObjectStore::new(DeviceClock::new(ClockMode::Off)));
    let mut tier = TierConfig::new(store.clone());
    tier.segment_records = 32;
    let mut spec = ClusterSpec::single_shard();
    spec.storage.tier = Some(tier);
    let c = FlexLogCluster::start(spec);
    c.add_color(RED).unwrap();
    c.add_color(GREEN).unwrap();
    (c, store)
}

/// The PR's acceptance bar: archive and trim the *entire* color, then a
/// replay-from-genesis subscribe must return every record in SN order
/// with the original bytes — served purely by archive read-through.
#[test]
fn replay_from_genesis_after_full_archive_and_trim() {
    let (c, store) = tiered_cluster();
    let mut h = c.handle();
    let mut sns = Vec::new();
    for i in 0..120u32 {
        sns.push(h.append(&i.to_le_bytes(), RED).unwrap());
    }
    h.trim(*sns.last().unwrap(), RED).unwrap();

    // Every replica dropped its local copy; the span is durable in the
    // store (the first replica to run the round uploads, peers adopt the
    // shared manifest — so the counter only sums across the shard).
    for node in c.data().shard_replicas(ShardId(0)) {
        let storage = c.data().storage_of(node).unwrap();
        assert_eq!(storage.record_count(RED), 0, "trim must drop the span");
    }
    let archived = c.obs().snapshot().counter("storage.archived_records");
    assert!(archived >= 120, "whole span must be archived: {archived}");
    assert!(store.stats().puts.load(Ordering::Relaxed) > 0);

    // Hot appends on another color keep flowing afterwards.
    for i in 0..20u32 {
        h.append(&i.to_le_bytes(), GREEN).unwrap();
    }

    let records = h.subscribe(RED).unwrap();
    assert_eq!(records.len(), 120, "replay must see the archived span");
    for ((i, rec), sn) in records.iter().enumerate().zip(&sns) {
        assert_eq!(rec.sn, *sn, "record {i} out of order");
        assert_eq!(rec.payload.as_slice(), (i as u32).to_le_bytes(), "record {i} bytes");
    }
    c.shutdown();
}

/// Archive replay streams through the archive buffer, never the DRAM
/// cache: a cold replay-from-genesis must not move the cache
/// counters at all, and a concurrently hot color keeps its hit rate.
#[test]
fn archive_replay_leaves_the_hot_cache_alone() {
    let (c, _store) = tiered_cluster();
    let mut h = c.handle();
    let mut sns = Vec::new();
    for i in 0..100u32 {
        sns.push(h.append(&[i as u8; 64], RED).unwrap());
    }
    let hot: Vec<_> = (0..8u32)
        .map(|i| h.append(&[i as u8; 64], GREEN).unwrap())
        .collect();
    h.trim(*sns.last().unwrap(), RED).unwrap();

    // Warm the hot color on every replica, then baseline.
    for _ in 0..6 {
        for sn in &hot {
            h.read(*sn, GREEN).unwrap().unwrap();
        }
    }
    // Registry counters sum over the replicas of the (single) shard.
    let counters = |c: &FlexLogCluster| {
        let snap = c.obs().snapshot();
        (snap.counter("storage.cache_hits"), snap.counter("storage.cache_misses"))
    };
    let (h0, m0) = counters(&c);

    // Cold replays: five full subscribes over the archived span.
    for _ in 0..5 {
        assert_eq!(h.subscribe(RED).unwrap().len(), 100);
    }
    let (h1, m1) = counters(&c);
    assert_eq!((h1, m1), (h0, m0), "archive replay must bypass the cache");

    // The hot color still serves from DRAM.
    for _ in 0..10 {
        for sn in &hot {
            h.read(*sn, GREEN).unwrap().unwrap();
        }
    }
    let (h2, m2) = counters(&c);
    let (dh, dm) = (h2 - h1, m2 - m1);
    let rate = dh as f64 / (dh + dm).max(1) as f64;
    assert!(rate >= 0.9, "hot hit rate {rate} under concurrent replay");
    c.shutdown();
}

#[test]
fn cache_serves_hot_records() {
    let c = tiny_storage_cluster();
    let mut h = c.handle();
    let sn = h.append(&vec![7u8; 512], RED).unwrap();

    // Hammer one record; at least one replica must serve from DRAM.
    for _ in 0..30 {
        h.read(sn, RED).unwrap().unwrap();
    }
    let cache_hits = c.obs().snapshot().counter("storage.cache_hits");
    assert!(cache_hits > 0, "hot reads must hit the DRAM cache");
    c.shutdown();
}
