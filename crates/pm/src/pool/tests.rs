use super::*;
use crate::PmDeviceConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn pool() -> PmPool {
    PmPool::create(Arc::new(PmDevice::for_testing()))
}

#[test]
fn put_get_roundtrip() {
    let p = pool();
    p.put(1, b"one").unwrap();
    p.put(2, b"two").unwrap();
    assert_eq!(p.get(1).unwrap(), b"one");
    assert_eq!(p.get(2).unwrap(), b"two");
    assert_eq!(p.get(3), None);
    assert_eq!(p.len(), 2);
}

#[test]
fn wide_keys_supported() {
    let p = pool();
    let k = (7u128 << 64) | 9;
    p.put(k, b"wide").unwrap();
    assert_eq!(p.get(k).unwrap(), b"wide");
    assert_eq!(p.get(9), None);
}

#[test]
fn overwrite_returns_latest() {
    let p = pool();
    p.put(1, b"v1").unwrap();
    p.put(1, b"v2").unwrap();
    assert_eq!(p.get(1).unwrap(), b"v2");
    assert_eq!(p.len(), 1);
}

#[test]
fn delete_removes_key() {
    let p = pool();
    p.put(1, b"x").unwrap();
    p.delete(1).unwrap();
    assert_eq!(p.get(1), None);
    assert!(p.is_empty());
}

#[test]
fn tx_reads_its_own_writes() {
    let p = pool();
    p.put(1, b"committed").unwrap();
    let mut tx = p.begin();
    tx.put(2, b"staged");
    tx.delete(1);
    assert_eq!(tx.get(2).unwrap(), b"staged");
    assert_eq!(tx.get(1), None);
    // Pool itself still sees the old state.
    assert_eq!(p.get(1).unwrap(), b"committed");
    assert_eq!(p.get(2), None);
    tx.commit().unwrap();
    assert_eq!(p.get(1), None);
    assert_eq!(p.get(2).unwrap(), b"staged");
}

#[test]
fn rollback_discards_everything() {
    let p = pool();
    let mut tx = p.begin();
    tx.put(9, b"never");
    tx.rollback();
    assert_eq!(p.get(9), None);
}

#[test]
fn dropped_tx_is_rollback() {
    let p = pool();
    {
        let mut tx = p.begin();
        tx.put(9, b"never");
    }
    assert_eq!(p.get(9), None);
}

#[test]
fn committed_data_survives_crash() {
    let dev = Arc::new(PmDevice::for_testing());
    let p = PmPool::create(Arc::clone(&dev));
    p.put(1, b"alpha").unwrap();
    p.put(2, b"beta").unwrap();
    dev.crash();
    let p2 = PmPool::open(dev);
    assert_eq!(p2.get(1).unwrap(), b"alpha");
    assert_eq!(p2.get(2).unwrap(), b"beta");
    assert_eq!(p2.len(), 2);
}

#[test]
fn uncommitted_tx_rolled_back_after_crash() {
    let dev = Arc::new(PmDevice::for_testing());
    let p = PmPool::create(Arc::clone(&dev));
    p.put(1, b"keep").unwrap();
    // Simulate a crash mid-commit: op record persisted, commit record
    // never written.
    let mut rec = Vec::new();
    push_record(&mut rec, KIND_PUT, 2, b"lost");
    let (tail, lsn) = {
        let st = p.state.lock();
        (st.tail, st.tail_lsn())
    };
    seal(&mut rec, 99, lsn);
    dev.write(tail, &rec).unwrap();
    dev.persist(tail, rec.len()).unwrap();
    dev.crash();
    let p2 = PmPool::open(dev);
    assert_eq!(p2.get(1).unwrap(), b"keep");
    assert_eq!(p2.get(2), None, "uncommitted put must be rolled back");
}

#[test]
fn recovery_continues_appending_safely() {
    let dev = Arc::new(PmDevice::for_testing());
    let p = PmPool::create(Arc::clone(&dev));
    p.put(1, b"a").unwrap();
    dev.crash();
    let p2 = PmPool::open(Arc::clone(&dev));
    p2.put(2, b"b").unwrap();
    dev.crash();
    let p3 = PmPool::open(dev);
    assert_eq!(p3.get(1).unwrap(), b"a");
    assert_eq!(p3.get(2).unwrap(), b"b");
}

#[test]
fn torn_tail_recovers_valid_prefix() {
    let dev = Arc::new(PmDevice::for_testing());
    let p = PmPool::create(Arc::clone(&dev));
    p.put(1, b"base").unwrap();
    p.put(2, b"maybe").unwrap();
    // Corrupt the most recent commit record's CRC, then crash with torn
    // flushes — recovery must keep key 1 and never panic.
    let tail = p.state.lock().tail;
    dev.write(tail - REC_HDR, &[0xFFu8; 4]).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    dev.crash_torn(&mut rng);
    let p2 = PmPool::open(dev);
    assert_eq!(p2.get(1).unwrap(), b"base");
}

#[test]
fn multi_op_tx_is_atomic_across_crash() {
    let dev = Arc::new(PmDevice::for_testing());
    let p = PmPool::create(Arc::clone(&dev));
    let mut tx = p.begin();
    for k in 0..50u128 {
        tx.put(k, format!("value-{k}").as_bytes());
    }
    tx.commit().unwrap();
    dev.crash();
    let p2 = PmPool::open(dev);
    assert_eq!(p2.len(), 50);
    for k in 0..50u128 {
        assert_eq!(p2.get(k).unwrap(), format!("value-{k}").as_bytes());
    }
}

#[test]
fn compaction_reclaims_space_and_preserves_data() {
    let p = pool();
    for round in 0..20u32 {
        for k in 0..10u128 {
            p.put(k, format!("round-{round}-key-{k}").as_bytes()).unwrap();
        }
    }
    let before = p.used_bytes();
    p.compact().unwrap();
    let after = p.used_bytes();
    assert!(after < before, "compaction should shrink the log");
    for k in 0..10u128 {
        assert_eq!(p.get(k).unwrap(), format!("round-19-key-{k}").as_bytes());
    }
}

#[test]
fn compacted_pool_recovers() {
    let dev = Arc::new(PmDevice::for_testing());
    let p = PmPool::create(Arc::clone(&dev));
    for k in 0..10u128 {
        p.put(k, b"v0").unwrap();
        p.put(k, b"v1").unwrap();
    }
    p.compact().unwrap();
    p.put(100, b"after-compact").unwrap();
    dev.crash();
    let p2 = PmPool::open(dev);
    assert_eq!(p2.len(), 11);
    assert_eq!(p2.get(3).unwrap(), b"v1");
    assert_eq!(p2.get(100).unwrap(), b"after-compact");
}

fn small_pool(capacity: usize) -> (Arc<PmDevice>, PmPool) {
    let dev = Arc::new(PmDevice::new(PmDeviceConfig {
        capacity,
        ..Default::default()
    }));
    let pool = PmPool::create(Arc::clone(&dev));
    (dev, pool)
}

#[test]
fn crash_during_reclamation_preserves_the_log() {
    let (dev, p) = small_pool(16 * 1024);
    for k in 0..20u128 {
        p.put(k, format!("value-{k}").as_bytes()).unwrap();
    }
    // Hand-simulate a reclamation that crashes before the head moves:
    // the survivors' copies are durable in a freshly linked segment,
    // the old segments still hold the originals. Then scribble over a
    // free segment, header and all.
    {
        let mut st = p.state.lock();
        p.next_segment(&mut st).unwrap();
        let mut copies = Vec::new();
        for k in 0..20u128 {
            push_record(&mut copies, KIND_PUT, k, format!("value-{k}").as_bytes());
        }
        p.append_tx(&mut st, &mut copies).unwrap();
        let free = st.segs.iter().position(|seg| seg.lsn == 0).unwrap();
        dev.write(p.seg_start(free), &vec![0xEEu8; p.seg_size]).unwrap();
        dev.persist(p.seg_start(free), p.seg_size).unwrap();
    }
    dev.crash();
    let p2 = PmPool::open(dev);
    assert_eq!(p2.len(), 20, "an aborted reclamation must leave every key readable");
    assert_eq!(p2.get(7).unwrap(), b"value-7");
    p2.put(20, b"and the log goes on").unwrap();
    assert_eq!(p2.len(), 21);
}

#[test]
fn full_pool_compacts_automatically() {
    let (_, p) = small_pool(16 * 1024);
    // Keep overwriting one key: the log wraps around the device many
    // times over, each dead segment freed as the head reaches it.
    for i in 0..500 {
        p.put(1, format!("value number {i}").as_bytes()).unwrap();
    }
    assert_eq!(p.get(1).unwrap(), b"value number 499");
    let segments = p.state.lock().segs.len() as u64;
    assert!(p.stats.segments_freed.load(Ordering::Relaxed) > 2 * segments);
    assert_eq!(p.stats.reclaim_copied_records.load(Ordering::Relaxed), 0);
}

#[test]
fn stragglers_are_copied_forward_not_lost() {
    let (dev, p) = small_pool(16 * 1024);
    // Twenty keys rewritten so rarely that the head catches up with
    // each of them, in a stream of churn that dies at once.
    for i in 0..1500u128 {
        if i % 20 == 0 {
            p.put(1000 + i / 20 % 20, format!("pinned by {i}").as_bytes()).unwrap();
        }
        p.put(1, format!("churn {i}").as_bytes()).unwrap();
    }
    assert!(p.stats.reclaim_copied_records.load(Ordering::Relaxed) > 0);
    let expect = |p: &PmPool| {
        assert_eq!(p.len(), 21);
        assert_eq!(p.get(1).unwrap(), b"churn 1499");
        assert_eq!(p.get(1014).unwrap(), b"pinned by 1480");
        assert_eq!(p.get(1015).unwrap(), b"pinned by 1100");
    };
    expect(&p);
    dev.crash();
    expect(&PmPool::open(dev));
}

#[test]
fn records_that_die_between_reclamation_steps_stay_dead() {
    // 4 KiB segments: the first holds more live records than one step
    // copies, so its victim list outlives the commits that follow.
    let (dev, p) = small_pool(256 * 1024);
    let mut tx = p.begin();
    for k in 0..100u128 {
        tx.put(k, b"v1");
    }
    tx.commit().unwrap();
    let step = |p: &PmPool| {
        let mut st = p.state.lock();
        let below = st.tail_lsn();
        p.reclaim(&mut st, below).unwrap()
    };
    p.next_segment(&mut p.state.lock()).unwrap();
    assert!(step(&p));
    assert_eq!(p.stats.reclaim_copied_records.load(Ordering::Relaxed), RECLAIM_STEP as u64);
    p.delete(80).unwrap();
    p.put(90, b"v2").unwrap();
    while step(&p) {}
    assert_eq!(p.stats.reclaim_copied_records.load(Ordering::Relaxed), 98);
    assert_eq!(p.stats.segments_freed.load(Ordering::Relaxed), 1);
    let expect = |p: &PmPool| {
        assert_eq!(p.len(), 99);
        assert_eq!(p.get(80), None);
        assert_eq!(p.get(90).unwrap(), b"v2");
        assert_eq!(p.get(99).unwrap(), b"v1");
    };
    expect(&p);
    dev.crash();
    expect(&PmPool::open(dev));
}

#[test]
fn transaction_spanning_segments_is_atomic() {
    let (dev, p) = small_pool(16 * 1024);
    let value = [7u8; 40];
    let mut tx = p.begin();
    for k in 0..30u128 {
        tx.put(k, &value); // 30 × 73 bytes over 1 KiB segments
    }
    tx.commit().unwrap();
    assert_eq!(p.state.lock().log.len(), 3);
    // Torn away before its commit record: all of it rolls back.
    let mut tx = p.begin();
    for k in 100..130u128 {
        tx.put(k, &value);
    }
    let tail = {
        tx.commit().unwrap();
        p.state.lock().tail
    };
    dev.write(tail - REC_HDR, &[0xFFu8; 4]).unwrap();
    dev.persist(tail - REC_HDR, 4).unwrap();
    dev.crash();
    let p2 = PmPool::open(dev);
    assert_eq!(p2.len(), 30);
    assert!((0..30u128).all(|k| p2.get(k).as_deref() == Some(&value[..])));
}

#[test]
fn truly_full_pool_errors() {
    let (_, p) = small_pool(16 * 1024);
    // Larger than any segment.
    let mut tx = p.begin();
    tx.put(1, &vec![0xAB; 8192]);
    assert_eq!(tx.commit(), Err(PoolError::PoolFull));
    // A live set larger than the device: fails cleanly once nothing is
    // left to reclaim, and loses nothing — not across a crash either.
    let (dev, p) = small_pool(16 * 1024);
    let value = [0x5Au8; 40];
    let stored = (0..200u128).take_while(|&k| p.put(k, &value).is_ok()).count() as u128;
    assert!((60..200).contains(&stored), "{stored} values fit");
    assert_eq!(p.put(999, &value), Err(PoolError::PoolFull));
    dev.crash();
    let p2 = PmPool::open(dev);
    assert_eq!(p2.len() as u128, stored);
    assert!((0..stored).all(|k| p2.get(k).as_deref() == Some(&value[..])));
}

#[test]
fn empty_tx_commit_is_noop() {
    let p = pool();
    let tx = p.begin();
    assert!(tx.is_empty());
    tx.commit().unwrap();
    assert_eq!(p.used_bytes(), 0);
}

#[test]
fn many_compactions_many_crashes_fuzz() {
    // Interleave puts, compactions and clean crashes; the pool must
    // always recover the full committed state.
    let dev = Arc::new(PmDevice::new(PmDeviceConfig {
        capacity: 64 * 1024,
        ..Default::default()
    }));
    let mut expected: std::collections::HashMap<u128, Vec<u8>> = Default::default();
    let mut p = PmPool::create(Arc::clone(&dev));
    let mut rng = StdRng::seed_from_u64(99);
    use rand::Rng;
    for step in 0..400 {
        let k = rng.gen_range(0..30u128);
        let v = format!("step-{step}");
        p.put(k, v.as_bytes()).unwrap();
        expected.insert(k, v.into_bytes());
        if step % 37 == 0 {
            p.compact().unwrap();
        }
        if step % 53 == 0 {
            dev.crash();
            p = PmPool::open(Arc::clone(&dev));
        }
    }
    dev.crash();
    let p = PmPool::open(dev);
    assert_eq!(p.len(), expected.len());
    for (k, v) in expected {
        assert_eq!(p.get(k).as_deref(), Some(v.as_slice()), "key {k}");
    }
}

/// A whole record as a transaction lays it out, for tests that write one
/// by hand.
fn push_record(buf: &mut Vec<u8>, kind: u8, key: u128, payload: &[u8]) {
    let at = buf.len();
    push_header(buf, kind, key);
    buf.extend_from_slice(payload);
    buf[at + 4..at + 8].copy_from_slice(&(payload.len() as u32).to_le_bytes());
}
