use super::*;
use flexlog_types::{Epoch, FunctionId};

fn sn(c: u32) -> SeqNum {
    SeqNum::new(Epoch(1), c)
}

fn tok(c: u32) -> Token {
    Token::new(FunctionId(1), c)
}

/// Shorthand: build a [`Payload`] from anything byte-like.
/// A batch of one record.
fn batch(bytes: &[u8]) -> Batch {
    Batch::from([pl(bytes)])
}

fn pl(bytes: impl Into<Payload>) -> Payload {
    bytes.into()
}

const RED: ColorId = ColorId(1);
const GREEN: ColorId = ColorId(2);

fn server() -> StorageServer {
    StorageServer::new(StorageConfig::default())
}

#[test]
fn stage_then_commit_makes_record_readable() {
    let s = server();
    assert!(s.stage(tok(1), RED, &[pl(b"hello")]).unwrap());
    // Staged but uncommitted: not discoverable.
    assert_eq!(s.get(RED, sn(5)), None);
    assert!(s.commit(tok(1), sn(5)).unwrap());
    assert_eq!(s.get(RED, sn(5)).unwrap(), b"hello");
}

#[test]
fn stage_is_idempotent() {
    let s = server();
    assert!(s.stage(tok(1), RED, &[pl(b"a")]).unwrap());
    assert!(!s.stage(tok(1), RED, &[pl(b"a")]).unwrap());
    s.commit(tok(1), sn(1)).unwrap();
    // Re-staging a committed token is also a no-op.
    assert!(!s.stage(tok(1), RED, &[pl(b"a")]).unwrap());
}

#[test]
fn commit_is_idempotent() {
    let s = server();
    s.stage(tok(1), RED, &[pl(b"a")]).unwrap();
    assert!(s.commit(tok(1), sn(1)).unwrap());
    assert!(!s.commit(tok(1), sn(1)).unwrap());
    assert_eq!(s.committed_sn(RED, tok(1)), Some(sn(1)));
}

#[test]
fn commit_unknown_token_errors() {
    let s = server();
    assert_eq!(
        s.commit(tok(9), sn(1)),
        Err(StorageError::UnknownToken(tok(9)))
    );
}

#[test]
fn commit_many_coalesces_batches() {
    let s = server();
    for i in 1..=5u32 {
        s.stage(tok(i), RED, &[pl(vec![i as u8])]).unwrap();
    }
    let items: Vec<(Token, SeqNum)> = (1..=5u32).map(|i| (tok(i), sn(i))).collect();
    let results = s.commit_many(&items);
    assert_eq!(results.len(), 5);
    assert!(results.iter().all(|r| *r == Ok(Some(RED))));
    for i in 1..=5u32 {
        assert_eq!(s.get(RED, sn(i)).unwrap(), vec![i as u8]);
        assert_eq!(s.committed_sn(RED, tok(i)), Some(sn(i)));
    }
    assert_eq!(s.stats.commits.load(Ordering::Relaxed), 5);
}

#[test]
fn commit_many_mixes_valid_duplicate_and_unknown() {
    let s = server();
    s.stage(tok(1), RED, &[pl(b"a")]).unwrap();
    s.stage(tok(2), GREEN, &[pl(b"b")]).unwrap();
    s.commit(tok(2), sn(1)).unwrap();
    let results = s.commit_many(&[
        (tok(1), sn(1)), // valid
        (tok(2), sn(1)), // already committed
        (tok(3), sn(2)), // never staged
        (tok(1), sn(1)), // duplicate of a valid item in the same call
    ]);
    assert_eq!(results[0], Ok(Some(RED)));
    assert_eq!(results[1], Ok(None));
    assert_eq!(results[2], Err(StorageError::UnknownToken(tok(3))));
    assert_eq!(results[3], Ok(None));
    assert_eq!(s.get(RED, sn(1)).unwrap(), b"a");
}

#[test]
fn batch_commit_assigns_consecutive_sns() {
    let s = server();
    let batch = vec![pl(b"r0"), pl(b"r1"), pl(b"r2")];
    s.stage(tok(1), RED, &batch).unwrap();
    // Sequencer assigned the range ending at counter 10.
    s.commit(tok(1), sn(10)).unwrap();
    assert_eq!(s.get(RED, sn(8)).unwrap(), b"r0");
    assert_eq!(s.get(RED, sn(9)).unwrap(), b"r1");
    assert_eq!(s.get(RED, sn(10)).unwrap(), b"r2");
    assert_eq!(s.record_count(RED), 3);
}

#[test]
fn colors_are_disjoint() {
    let s = server();
    s.stage(tok(1), RED, &[pl(b"red")]).unwrap();
    s.commit(tok(1), sn(1)).unwrap();
    s.stage(tok(2), GREEN, &[pl(b"green")]).unwrap();
    s.commit(tok(2), sn(1)).unwrap();
    assert_eq!(s.get(RED, sn(1)).unwrap(), b"red");
    assert_eq!(s.get(GREEN, sn(1)).unwrap(), b"green");
}

#[test]
fn get_missing_sn_is_none() {
    let s = server();
    s.stage(tok(1), RED, &[pl(b"x")]).unwrap();
    s.commit(tok(1), sn(3)).unwrap();
    assert_eq!(s.get(RED, sn(2)), None, "hole before the record");
    assert_eq!(s.get(RED, sn(4)), None, "past the tail");
    assert_eq!(s.get(GREEN, sn(3)), None, "wrong color");
}

#[test]
fn read_path_hits_cache_then_pm() {
    let s = server();
    s.stage(tok(1), RED, &[pl(b"warm")]).unwrap();
    s.commit(tok(1), sn(1)).unwrap();
    // Commit primes the cache.
    let (_, hit) = s.get_traced(RED, sn(1)).unwrap();
    assert_eq!(hit, TierHit::Cache);
    // Evict by filling the cache with other records.
    for i in 2..2000u32 {
        s.stage(tok(i), RED, &[pl(vec![0u8; 1024])]).unwrap();
        s.commit(tok(i), sn(i)).unwrap();
    }
    let (v, hit) = s.get_traced(RED, sn(1)).unwrap();
    assert_eq!(v, b"warm");
    assert_eq!(hit, TierHit::Pm);
    // And now it is cached again.
    let (_, hit) = s.get_traced(RED, sn(1)).unwrap();
    assert_eq!(hit, TierHit::Cache);
}

#[test]
fn cache_hits_share_one_buffer() {
    // The zero-copy contract of the DRAM tier: repeated cache hits hand out
    // the same underlying allocation, not fresh copies.
    let s = server();
    s.stage(tok(1), RED, &[pl(vec![7u8; 64])]).unwrap();
    s.commit(tok(1), sn(1)).unwrap();
    let a = s.get(RED, sn(1)).unwrap();
    let b = s.get(RED, sn(1)).unwrap();
    assert!(
        std::ptr::eq(a.as_slice(), b.as_slice()),
        "cache hits must share the cached allocation"
    );
}

#[test]
fn watermark_spills_oldest_to_ssd() {
    let s = StorageServer::new(StorageConfig::tiny());
    // Write well past the 32 KiB watermark with 1 KiB records.
    for i in 1..=100u32 {
        s.stage(tok(i), RED, &[pl(vec![i as u8; 1024])]).unwrap();
        s.commit(tok(i), sn(i)).unwrap();
    }
    assert!(s.ssd_resident(RED) > 0, "spill must have happened");
    assert!(s.stats.spilled_records.load(Ordering::Relaxed) > 0);
    // Every record is still readable, wherever it lives.
    for i in 1..=100u32 {
        assert_eq!(s.get(RED, sn(i)).unwrap(), vec![i as u8; 1024], "sn {i}");
    }
    // The oldest record must be on SSD (cache was evicted long ago for it).
    s.clear_cache();
    let (_, hit) = s.get_traced(RED, sn(1)).unwrap();
    assert_eq!(hit, TierHit::Ssd);
}

#[test]
fn trim_deletes_prefix_and_reports_head_tail() {
    let s = server();
    for i in 1..=10u32 {
        s.stage(tok(i), RED, &[pl(vec![i as u8])]).unwrap();
        s.commit(tok(i), sn(i)).unwrap();
    }
    let (head, tail) = s.trim(RED, sn(4)).unwrap();
    assert_eq!(head, Some(sn(4)));
    assert_eq!(tail, Some(sn(10)));
    assert_eq!(s.get(RED, sn(4)), None);
    assert_eq!(s.get(RED, sn(3)), None);
    assert_eq!(s.get(RED, sn(5)).unwrap(), vec![5u8]);
    assert_eq!(s.record_count(RED), 6);
}

#[test]
fn trim_prunes_committed_token_map() {
    // The idempotence map must track the live log, not its whole history —
    // otherwise every append ever made stays resident forever.
    let s = server();
    for i in 1..=10u32 {
        s.stage(tok(i), RED, &[pl(vec![i as u8])]).unwrap();
        s.commit(tok(i), sn(i)).unwrap();
    }
    s.stage(tok(100), GREEN, &[pl(b"other-color")]).unwrap();
    s.commit(tok(100), sn(2)).unwrap();
    assert_eq!(s.committed_token_count(), 11);
    s.trim(RED, sn(6)).unwrap();
    // Tokens 1..=6 fell behind RED's head; GREEN's token is untouched.
    assert_eq!(s.committed_token_count(), 5);
    for i in 1..=6u32 {
        assert_eq!(s.committed_sn(RED, tok(i)), None, "token {i} must be pruned");
    }
    for i in 7..=10u32 {
        assert_eq!(s.committed_sn(RED, tok(i)), Some(sn(i)));
    }
    assert_eq!(s.committed_sn(GREEN, tok(100)), Some(sn(2)));
    assert_eq!(s.committed_sn(RED, tok(100)), None, "tokens are per color");
    // Trimming everything empties the map.
    s.trim(RED, sn(10)).unwrap();
    s.trim(GREEN, sn(2)).unwrap();
    assert_eq!(s.committed_token_count(), 0);
}

#[test]
fn trim_prunes_only_fully_trimmed_batches() {
    // A multi-record batch's token maps to its *last* SN; the token must
    // survive until the whole batch is behind the head.
    let s = server();
    s.stage(tok(1), RED, &[pl(b"a"), pl(b"b"), pl(b"c")]).unwrap();
    s.commit(tok(1), sn(3)).unwrap();
    s.trim(RED, sn(2)).unwrap();
    assert_eq!(s.committed_sn(RED, tok(1)), Some(sn(3)), "batch tail still live");
    s.trim(RED, sn(3)).unwrap();
    assert_eq!(s.committed_sn(RED, tok(1)), None);
}

#[test]
fn trim_covers_ssd_resident_records() {
    let s = StorageServer::new(StorageConfig::tiny());
    for i in 1..=100u32 {
        s.stage(tok(i), RED, &[pl(vec![0u8; 1024])]).unwrap();
        s.commit(tok(i), sn(i)).unwrap();
    }
    assert!(s.ssd_resident(RED) > 0);
    s.trim(RED, sn(90)).unwrap();
    assert_eq!(s.record_count(RED), 10);
    for i in 1..=90u32 {
        assert_eq!(s.get(RED, sn(i)), None, "sn {i} must be trimmed");
    }
}

#[test]
fn trim_of_never_appended_color_is_a_noop() {
    let s = server();
    // RED has never seen an append: trimming it must not fabricate a head.
    let (head, tail) = s.trim(RED, sn(100)).unwrap();
    assert_eq!((head, tail), (None, None));
    assert_eq!(s.head(RED), None, "no phantom trim-head entry");
    assert_eq!(s.tail(RED), None);
    // The no-op is per color: a real color is unaffected.
    s.stage(tok(1), GREEN, &[pl(b"g")]).unwrap();
    s.commit(tok(1), sn(1)).unwrap();
    s.trim(RED, sn(100)).unwrap();
    assert_eq!(s.head(RED), None);
    // And a first append after the bogus trim is fully readable (an
    // installed phantom head at sn(100) would have hidden it).
    s.stage(tok(2), RED, &[pl(b"r")]).unwrap();
    s.commit(tok(2), sn(7)).unwrap();
    assert_eq!(s.get(RED, sn(7)).unwrap(), b"r");
    // Once the color exists, trim works and stays monotonic as before.
    let (head, _) = s.trim(RED, sn(7)).unwrap();
    assert_eq!(head, Some(sn(7)));
}

#[test]
fn install_head_is_durable_and_monotonic() {
    let s = server();
    for i in 1..=5u32 {
        s.stage(tok(i), RED, &[pl(vec![i as u8])]).unwrap();
        s.commit(tok(i), sn(i)).unwrap();
    }
    // Migration-import path: adopt the source's trim head without deleting.
    s.install_head(RED, sn(2)).unwrap();
    assert_eq!(s.head(RED), Some(sn(2)));
    assert_eq!(s.get(RED, sn(2)), None, "head filters reads");
    assert_eq!(s.get(RED, sn(3)).unwrap(), vec![3u8]);
    // Never backwards.
    s.install_head(RED, sn(1)).unwrap();
    assert_eq!(s.head(RED), Some(sn(2)));
}

#[test]
fn trim_is_monotonic() {
    let s = server();
    for i in 1..=5u32 {
        s.stage(tok(i), RED, &[pl(vec![i as u8])]).unwrap();
        s.commit(tok(i), sn(i)).unwrap();
    }
    s.trim(RED, sn(3)).unwrap();
    // A smaller trim must not move the head backwards...
    let (head, _) = s.trim(RED, sn(1)).unwrap();
    assert_eq!(head, Some(sn(3)));
    // ...nor the durable copy a recovery reloads.
    let (pm, ssd) = s.devices();
    pm.crash();
    ssd.crash();
    drop(s);
    let s2 = StorageServer::recover(pm, ssd, StorageConfig::default());
    assert_eq!(s2.head(RED), Some(sn(3)));
}

#[test]
fn scan_returns_ordered_records() {
    let s = server();
    for i in [5u32, 1, 9, 3].iter() {
        s.stage(tok(*i), RED, &[pl(vec![*i as u8])]).unwrap();
        s.commit(tok(*i), sn(*i)).unwrap();
    }
    let all = s.scan(RED, SeqNum::ZERO).unwrap();
    let sns: Vec<u32> = all.iter().map(|r| r.sn.counter()).collect();
    assert_eq!(sns, vec![1, 3, 5, 9]);
    let from = s.scan(RED, sn(3)).unwrap();
    assert_eq!(from.len(), 2);
    assert_eq!(from[0].sn, sn(5));
}

#[test]
fn tail_is_per_color() {
    let s = server();
    assert_eq!(s.tail(RED), None);
    s.stage(tok(1), RED, &[pl(b"a")]).unwrap();
    s.commit(tok(1), sn(7)).unwrap();
    s.stage(tok(2), GREEN, &[pl(b"b")]).unwrap();
    s.commit(tok(2), sn(3)).unwrap();
    assert_eq!(s.tail(RED), Some(sn(7)));
    assert_eq!(s.tail(GREEN), Some(sn(3)));
}

#[test]
fn staged_tokens_lists_uncommitted() {
    let s = server();
    s.stage(tok(1), RED, &[pl(b"a"), pl(b"b")]).unwrap();
    s.stage(tok(2), GREEN, &[pl(b"c")]).unwrap();
    s.commit(tok(2), sn(1)).unwrap();
    let staged = s.staged_tokens();
    assert_eq!(staged.len(), 1);
    assert_eq!(staged[0], (tok(1), RED, 2));
}

#[test]
fn recovery_preserves_committed_and_staged() {
    let s = server();
    s.stage(tok(1), RED, &[pl(b"committed")]).unwrap();
    s.commit(tok(1), sn(1)).unwrap();
    s.stage(tok(2), RED, &[pl(b"staged-only")]).unwrap();
    let (pm, ssd) = s.devices();
    pm.crash();
    ssd.crash();
    drop(s);
    let s2 = StorageServer::recover(pm, ssd, StorageConfig::default());
    assert_eq!(s2.get(RED, sn(1)).unwrap(), b"committed");
    assert_eq!(s2.committed_sn(RED, tok(1)), Some(sn(1)));
    let staged = s2.staged_tokens();
    assert_eq!(staged, vec![(tok(2), RED, 1)]);
    // The staged batch can still be committed after recovery.
    s2.commit(tok(2), sn(2)).unwrap();
    assert_eq!(s2.get(RED, sn(2)).unwrap(), b"staged-only");
}

#[test]
fn a_recovered_batch_commits_byte_identical_and_without_pm_reads() {
    // The staged batch's payloads live in DRAM until the commit writes
    // them; after a crash, recovery rebuilds them from the staged value.
    let s = server();
    let batch = vec![pl(b""), pl(b"two"), pl((0..300u32).map(|i| i as u8).collect::<Vec<_>>())];
    s.stage(tok(1), RED, &batch).unwrap();
    let (pm, ssd) = s.devices();
    pm.crash();
    ssd.crash();
    drop(s);
    let s2 = StorageServer::recover(Arc::clone(&pm), ssd, StorageConfig::default());
    let reads = || pm.stats.reads.load(Ordering::Relaxed);
    let before = reads();
    assert_eq!(s2.staged_tokens(), vec![(tok(1), RED, 3)]);
    assert_eq!(reads(), before, "listing the staged batches reads no PM");
    assert_eq!(s2.commit_many(&[(tok(1), sn(3))]), vec![Ok(Some(RED))]);
    assert_eq!(reads(), before, "the commit writes from DRAM, not from a read-back");
    // What PM now holds, read back from the device, is what was staged.
    let stored = s2.fetch(RED, &FetchSelect::Above { sn: SeqNum::ZERO, limit: u64::MAX });
    let want: Vec<_> =
        (1..).zip(&batch).map(|(i, p)| (tok(1), sn(i), p.clone())).collect();
    assert_eq!(stored, want);
    assert!(s2.staged_tokens().is_empty());
}

#[test]
fn recovery_preserves_trim_head() {
    let s = server();
    for i in 1..=6u32 {
        s.stage(tok(i), RED, &[pl(vec![i as u8])]).unwrap();
        s.commit(tok(i), sn(i)).unwrap();
    }
    s.trim(RED, sn(3)).unwrap();
    let (pm, ssd) = s.devices();
    pm.crash();
    ssd.crash();
    drop(s);
    let s2 = StorageServer::recover(pm, ssd, StorageConfig::default());
    assert_eq!(s2.head(RED), Some(sn(3)));
    assert_eq!(s2.get(RED, sn(2)), None);
    assert_eq!(s2.get(RED, sn(4)).unwrap(), vec![4u8]);
}

#[test]
fn recovery_finds_ssd_resident_records() {
    let s = StorageServer::new(StorageConfig::tiny());
    for i in 1..=100u32 {
        s.stage(tok(i), RED, &[pl(vec![i as u8; 1024])]).unwrap();
        s.commit(tok(i), sn(i)).unwrap();
    }
    let spilled = s.ssd_resident(RED);
    assert!(spilled > 0);
    let (pm, ssd) = s.devices();
    pm.crash();
    ssd.crash();
    drop(s);
    let s2 = StorageServer::recover(pm, ssd, StorageConfig::tiny());
    assert_eq!(s2.record_count(RED), 100);
    assert_eq!(s2.ssd_resident(RED), spilled);
    for i in 1..=100u32 {
        assert_eq!(s2.get(RED, sn(i)).unwrap(), vec![i as u8; 1024]);
    }
}

#[test]
fn crash_before_commit_record_loses_nothing_committed() {
    // A staged-but-uncommitted batch must reappear as staged; committed
    // batches must survive byte-for-byte.
    let s = server();
    for i in 1..=20u32 {
        s.stage(tok(i), RED, &[pl(format!("rec{i}"))]).unwrap();
        if i <= 15 {
            s.commit(tok(i), sn(i)).unwrap();
        }
    }
    let (pm, ssd) = s.devices();
    pm.crash();
    ssd.crash();
    drop(s);
    let s2 = StorageServer::recover(pm, ssd, StorageConfig::default());
    for i in 1..=15u32 {
        assert_eq!(s2.get(RED, sn(i)).unwrap(), format!("rec{i}").into_bytes());
    }
    assert_eq!(s2.staged_tokens().len(), 5);
}

#[test]
fn multi_record_staged_value_roundtrip() {
    let payloads = vec![pl(b""), pl(b"x"), pl(vec![7u8; 300])];
    let mut enc = Vec::new();
    codec::write_staged(&mut enc, ColorId(9), &payloads);
    assert_eq!(enc.len(), codec::staged_len(&payloads), "what a commit frees of pm_live_bytes");
    let dec = codec::decode_staged(&enc);
    assert_eq!(dec.color, ColorId(9));
    assert_eq!(&dec.payloads[..], &payloads[..]);
}

#[test]
fn stats_count_tier_hits_and_bytes() {
    let s = server();
    s.stage(tok(1), RED, &[pl(vec![1u8; 100])]).unwrap();
    s.commit(tok(1), sn(1)).unwrap();
    assert_eq!(s.stats.bytes_appended.load(Ordering::Relaxed), 100);
    s.get(RED, sn(1)); // cache
    s.clear_cache();
    s.get(RED, sn(1)); // pm
    assert_eq!(s.stats.cache_hits.load(Ordering::Relaxed), 1);
    assert_eq!(s.stats.cache_misses.load(Ordering::Relaxed), 1);
    assert_eq!(s.stats.pm_hits.load(Ordering::Relaxed), 1);
    assert_eq!(s.stats.bytes_read.load(Ordering::Relaxed), 200);
}

#[test]
fn writes_that_never_read_leave_the_cache_counters_at_zero() {
    // The commit-time cache fill is not a probe: a hit rate derived from
    // these counters must see no reads until one happens.
    let s = server();
    s.stage(tok(1), RED, &[pl(b"x")]).unwrap();
    s.commit(tok(1), sn(1)).unwrap();
    let snap = s.obs().snapshot();
    assert_eq!(snap.counter("storage.cache_hits"), 0);
    assert_eq!(snap.counter("storage.cache_misses"), 0);
    assert_eq!(snap.counter("storage.reads"), 0);
}

#[test]
fn stats_feed_the_shared_registry() {
    // The same counters the server bumps must be visible, aggregated,
    // through the obs registry snapshot.
    let s = server();
    s.stage(tok(1), RED, &[pl(b"abc")]).unwrap();
    s.commit(tok(1), sn(1)).unwrap();
    s.get(RED, sn(1));
    let snap = s.obs().snapshot();
    assert_eq!(snap.counter("storage.stages"), 1);
    assert_eq!(snap.counter("storage.commits"), 1);
    assert_eq!(snap.counter("storage.cache_hits"), 1);
    assert_eq!(snap.counter("storage.bytes_appended"), 3);
    let commit = snap.histogram("storage.commit_ns").expect("commit histogram");
    assert_eq!(commit.count, 1);
    assert!(commit.max > 0, "a PM transaction takes nonzero time");
}

#[test]
fn every_spill_round_is_timed_and_every_holder_of_the_lock_too() {
    // Staged batches count toward the watermark but cannot spill: the one
    // committed record spills and the round runs out of records with PM
    // still above the mark. That round is timed like any other.
    let s = StorageServer::new(StorageConfig { pm_watermark: 1 << 10, ..Default::default() });
    for t in 1..=8 {
        s.stage(tok(t), RED, &[pl(vec![7u8; 256])]).unwrap();
    }
    s.commit(tok(1), sn(1)).unwrap();
    assert_eq!(s.ssd_resident(RED), 1);
    assert!(s.pm_live_bytes() > 1 << 10, "still above the watermark");
    s.scan(RED, SeqNum::ZERO).unwrap();
    s.demote_color(RED, 1).unwrap();
    s.trim(RED, sn(1)).unwrap();
    let snap = s.obs().snapshot();
    let count = |name: &str| snap.histogram(name).map_or(0, |h| h.count);
    assert_eq!(count("storage.spill_ns"), 1);
    for (holder, calls) in [("write", 9), ("scan", 1), ("demote", 1), ("trim", 1), ("archive", 0)] {
        assert_eq!(count(&format!("storage.lock_hold_ns.{holder}")), calls, "{holder}");
    }
}

#[test]
fn commit_records_storage_commit_trace_events() {
    let s = server();
    s.set_node(0x1234);
    s.stage(tok(5), RED, &[pl(b"p")]).unwrap();
    s.commit(tok(5), sn(1)).unwrap();
    let trace = s.obs().trace(tok(5));
    let ev = trace
        .events
        .iter()
        .find(|e| e.stage == flexlog_obs::Stage::StorageCommit)
        .expect("StorageCommit event traced");
    assert_eq!(ev.node, 0x1234);
    assert_eq!(ev.detail, RED.0 as u64);
}

#[test]
fn fetch_selects_agree_across_tiers() {
    // Two-record batches of 1 KiB on a server that spills: the span ends up
    // partly on SSD, partly in PM, and every select must read both.
    let s = StorageServer::new(StorageConfig::tiny());
    let mut want = Vec::new();
    for i in 1..=50u32 {
        let batch = [pl(vec![i as u8; 1024]), pl(vec![!(i as u8); 1024])];
        s.stage(tok(i), RED, &batch).unwrap();
        s.commit(tok(i), sn(2 * i)).unwrap();
        let [a, b] = batch;
        want.push((tok(i), sn(2 * i - 1), a));
        want.push((tok(i), sn(2 * i), b));
    }
    let on_ssd = s.ssd_resident(RED);
    assert!(0 < on_ssd && on_ssd < want.len(), "span must straddle PM and SSD: {on_ssd}");

    let all = s.fetch(RED, &FetchSelect::Above { sn: SeqNum::ZERO, limit: u64::MAX });
    assert_eq!(all, want, "tokens, SNs and payloads in SN order");

    let mut chunked = Vec::new();
    let mut cursor = SeqNum::ZERO;
    loop {
        let chunk = s.fetch(RED, &FetchSelect::Above { sn: cursor, limit: 7 });
        let Some(last) = chunk.last() else { break };
        assert!(chunk.len() <= 7);
        cursor = last.1;
        chunked.extend(chunk);
    }
    assert_eq!(chunked, want, "resuming above the last SN tiles the span");

    let mut sns: Vec<SeqNum> = want.iter().map(|r| r.1).collect();
    assert_eq!(s.fetch(RED, &FetchSelect::Exact(sns.clone())), want);
    // SNs not held here are skipped, not errors.
    sns.push(sn(1000));
    assert_eq!(s.fetch(RED, &FetchSelect::Exact(sns)), want);
    assert!(s.fetch(GREEN, &FetchSelect::Above { sn: SeqNum::ZERO, limit: 1 }).is_empty());
}

#[test]
fn import_installs_and_is_idempotent() {
    let s = server();
    assert!(s.import(RED, sn(4), tok(9), &pl(b"synced")).unwrap());
    assert!(!s.import(RED, sn(4), tok(9), &pl(b"synced")).unwrap());
    assert_eq!(s.get(RED, sn(4)).unwrap(), b"synced");
    assert_eq!(s.committed_sn(RED, tok(9)), Some(sn(4)));
    // Imports survive crash.
    let (pm, ssd) = s.devices();
    pm.crash();
    ssd.crash();
    drop(s);
    let s2 = StorageServer::recover(pm, ssd, StorageConfig::default());
    assert_eq!(s2.get(RED, sn(4)).unwrap(), b"synced");
}

#[test]
fn import_respects_trim_head() {
    let s = server();
    s.stage(tok(1), RED, &[pl(b"x")]).unwrap();
    s.commit(tok(1), sn(5)).unwrap();
    s.trim(RED, sn(5)).unwrap();
    assert!(!s.import(RED, sn(3), tok(2), &pl(b"old")).unwrap());
    assert_eq!(s.get(RED, sn(3)), None);
}

#[test]
fn concurrent_multi_color_append_read_trim_stress() {
    // Hammer the server from many threads over many colors: no deadlock,
    // no cross-color index corruption, every committed record readable
    // with the right bytes for its color.
    use std::sync::Barrier;

    const THREADS: u32 = 8;
    const OPS: u32 = 200;

    let s = Arc::new(server());
    let barrier = Arc::new(Barrier::new(THREADS as usize));
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let s = Arc::clone(&s);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            // Each thread owns one color and a disjoint token range; other
            // threads' colors are read concurrently.
            let color = ColorId(t + 1);
            barrier.wait();
            for i in 1..=OPS {
                let token = Token::new(FunctionId(t), i);
                let payload = pl(vec![t as u8; 32]);
                assert!(s.stage(token, color, &[payload]).unwrap());
                assert!(s.commit(token, sn(i)).unwrap());
                // Read own history and a neighbour's.
                let got = s.get(color, sn(i)).unwrap();
                assert_eq!(got, vec![t as u8; 32], "own color bytes");
                let other = ColorId((t + 1) % THREADS + 1);
                if let Some(v) = s.get(other, sn(i.saturating_sub(3).max(1))) {
                    assert!(
                        v.iter().all(|&b| b == (other.0 - 1) as u8),
                        "cross-color read must see the other color's bytes"
                    );
                }
                if i % 64 == 0 {
                    s.trim(color, sn(i / 2)).unwrap();
                }
            }
        }));
    }
    for h in handles {
        h.join().expect("stress thread must not panic or deadlock");
    }
    for t in 0..THREADS {
        let color = ColorId(t + 1);
        let head = s.head(color).map_or(0, |h| h.counter());
        for i in (head + 1)..=OPS {
            assert_eq!(s.get(color, sn(i)).unwrap(), vec![t as u8; 32]);
        }
    }
}

#[test]
fn concurrent_commit_many_batches_from_many_threads() {
    // Several threads each stage a run of batches and commit them through
    // one commit_many call; all must land exactly once.
    use std::sync::Barrier;

    const THREADS: u32 = 4;
    const BATCHES: u32 = 50;

    let s = Arc::new(server());
    let barrier = Arc::new(Barrier::new(THREADS as usize));
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let s = Arc::clone(&s);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let color = ColorId(t + 1);
            let mut items = Vec::new();
            for i in 1..=BATCHES {
                let token = Token::new(FunctionId(t), i);
                s.stage(token, color, &[pl(vec![t as u8; 16])]).unwrap();
                items.push((token, sn(i)));
            }
            barrier.wait();
            let results = s.commit_many(&items);
            assert!(results.iter().all(|r| *r == Ok(Some(color))));
        }));
    }
    for h in handles {
        h.join().expect("commit thread");
    }
    for t in 0..THREADS {
        assert_eq!(s.record_count(ColorId(t + 1)), BATCHES as usize);
    }
}

#[test]
fn crash_mid_spill_leaves_one_placement_and_no_leaked_pm_copy() {
    // `spill_victims` fsyncs the SSD copy before the PM delete. Build the
    // state a crash between the two leaves behind: records 1..=3 durable in
    // BOTH tiers.
    let s = server();
    for i in 1..=5u32 {
        s.stage(tok(i), RED, &[pl(vec![i as u8; 100])]).unwrap();
        s.commit(tok(i), sn(i)).unwrap();
    }
    let (pm, ssd) = s.devices();
    let (mut copies, mut blocks) = (Vec::new(), Vec::new());
    for i in 1..=3u32 {
        codec::write_record(&mut copies, tok(i), &[i as u8; 100]);
        blocks.push((codec::ssd_block_id(RED, sn(i)), codec::record_len(&[i as u8; 100])));
    }
    ssd.write_blocks(&copies, &blocks);
    ssd.fsync();
    pm.crash();
    ssd.crash();
    drop(s);

    // Recovery finishes the interrupted move: one placement per record,
    // and the PM copies no longer count as live bytes.
    let s2 = StorageServer::recover(pm, ssd, StorageConfig::default());
    assert_eq!(s2.record_count(RED), 5);
    assert_eq!(s2.ssd_resident(RED), 3);
    assert_eq!(s2.pm_live_bytes(), 2 * 108);
    for i in 1..=5u32 {
        assert_eq!(s2.get(RED, sn(i)).unwrap(), vec![i as u8; 100]);
    }

    // A trim then frees every copy: nothing may come back from the dead
    // at the next recovery, neither into the index nor the token map.
    s2.trim(RED, sn(5)).unwrap();
    assert_eq!(s2.pm_live_bytes(), 0);
    let (pm, ssd) = s2.devices();
    pm.crash();
    ssd.crash();
    drop(s2);
    let s3 = StorageServer::recover(pm, ssd, StorageConfig::default());
    assert_eq!(s3.record_count(RED), 0);
    assert_eq!(s3.committed_token_count(), 0);
    assert_eq!(s3.pm_live_bytes(), 0);
    assert_eq!(s3.head(RED), Some(sn(5)));
}

#[test]
fn pm_live_bytes_is_exact_under_concurrent_stage_and_commit() {
    // No interleaving of threads may lose or double an adjustment of the
    // counter: below the watermark it equals the stored value bytes
    // (8-byte token + payload).
    use std::sync::Barrier;

    const THREADS: u32 = 4;
    const BATCHES: u32 = 120;
    const PAYLOAD: usize = 40;
    const ROUNDS: u32 = 20;
    const SHARED_TOKENS: u32 = 100;

    // Two threads staging and committing the *same* tokens, on devices that
    // spin for their modelled latency: a stage's idempotence check and its
    // insert are one step, so exactly one stage per token reports it new
    // and its staged bytes are counted once.
    for round in 0..ROUNDS {
        let s = Arc::new(StorageServer::new(StorageConfig {
            clock: ClockMode::Spin,
            ..Default::default()
        }));
        let barrier = Arc::new(Barrier::new(2));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let s = Arc::clone(&s);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    let mut newly = 0;
                    for i in 1..=SHARED_TOKENS {
                        let token = Token::new(FunctionId(9), i);
                        newly += usize::from(s.stage(token, RED, &[pl(vec![1; PAYLOAD])]).unwrap());
                        s.commit(token, sn(i)).unwrap();
                    }
                    newly
                })
            })
            .collect();
        let newly: usize = handles.into_iter().map(|h| h.join().expect("stage thread")).sum();
        assert_eq!(newly, SHARED_TOKENS as usize, "round {round}: one Ok(true) per token");
        assert_eq!(s.pm_live_bytes(), SHARED_TOKENS as usize * (8 + PAYLOAD), "round {round}");
    }

    // Threads on disjoint colors and tokens.

    let s = Arc::new(server());
    let barrier = Arc::new(Barrier::new(THREADS as usize));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let s = Arc::clone(&s);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let color = ColorId(t + 1);
                barrier.wait();
                for i in 1..=BATCHES {
                    let token = Token::new(FunctionId(t), i);
                    let batch = [pl(vec![t as u8; PAYLOAD]), pl(vec![i as u8; PAYLOAD])];
                    s.stage(token, color, &batch).unwrap();
                    s.commit(token, sn(2 * i)).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("append thread");
    }
    let records = (THREADS * BATCHES * 2) as usize;
    assert_eq!(s.stats.spilled_records.get(), 0, "the run must stay below the watermark");
    assert_eq!(s.pm_live_bytes(), records * (8 + PAYLOAD));
    // And every removal path gives the bytes back exactly.
    s.discard_color(ColorId(1)).unwrap();
    s.demote_color(ColorId(2), u64::MAX).unwrap();
    for t in 2..THREADS {
        s.trim(ColorId(t + 1), sn(2 * BATCHES)).unwrap();
    }
    assert_eq!(s.pm_live_bytes(), 0);
}

#[test]
fn watermark_spill_takes_the_oldest_commit_first() {
    // Colors 8 and 1 commit in turn, a record each; the watermark trips on
    // the 186th commit. The round that brings the counter back under it
    // takes the 64 oldest commits of both colors — 32 each, their lowest
    // SNs — which is the order the PM pool wrote them in.
    const PAYLOAD: usize = 100;
    let s = StorageServer::new(StorageConfig {
        pm_watermark: 185 * (8 + PAYLOAD),
        ..Default::default()
    });
    for i in 1..=100 {
        for color in [ColorId(8), ColorId(1)] {
            let token = Token::new(FunctionId(color.0), i);
            s.stage(token, color, &[pl(vec![0; PAYLOAD])]).unwrap();
            s.commit(token, sn(i)).unwrap();
        }
    }
    assert_eq!(s.stats.spilled_records.get(), SPILL_BATCH as u64, "one round");
    assert_eq!(s.ssd_resident(ColorId(8)), SPILL_BATCH / 2);
    assert_eq!(s.ssd_resident(ColorId(1)), SPILL_BATCH / 2);
    s.clear_cache();
    for color in [ColorId(8), ColorId(1)] {
        for i in 1..=100 {
            let (_, hit) = s.get_traced(color, sn(i)).unwrap();
            let want = if i <= 32 { TierHit::Ssd } else { TierHit::Pm };
            assert_eq!(hit, want, "{color:?} {i}");
        }
    }
}

#[test]
fn a_late_fill_spills_in_its_turn_and_reads_in_sn_order() {
    // SN 5 commits after SNs 10..=60 (its OResp outlived its neighbours').
    // It spills after them, in landing order, and on whichever tier holds
    // it every reader still sees it in SN order.
    let s = StorageServer::new(StorageConfig {
        pm_watermark: 40 * (8 + 100),
        ..Default::default()
    });
    let commit = |i: u32| {
        s.stage(tok(i), RED, &[pl(vec![i as u8; 100])]).unwrap();
        s.commit(tok(i), sn(i)).unwrap();
    };
    (10..=60).for_each(commit);
    commit(5);
    let sns = |from: u32, n: usize| -> Vec<u32> {
        s.committed_sns(RED, sn(from)).iter().take(n).map(|sn| sn.counter()).collect()
    };
    let tier = |i: u32| {
        s.clear_cache();
        s.get_traced(RED, sn(i)).map(|(v, hit)| (v[0] as u32, hit))
    };
    // The watermark tripped on SN 50's commit, and that round moved every
    // record then in PM, 10..=50; 5 landed later.
    assert_eq!(tier(5), Some((5, TierHit::Pm)));
    assert_eq!(tier(10), Some((10, TierHit::Ssd)));
    assert_eq!(sns(0, 3), [5, 10, 11]);
    (61..=200).for_each(commit);
    assert_eq!(tier(5), Some((5, TierHit::Ssd)), "spilled in its turn");
    assert_eq!(sns(0, 3), [5, 10, 11]);
    let scanned = s.scan(RED, SeqNum::ZERO).unwrap();
    let scanned: Vec<u32> = scanned.iter().map(|r| r.sn.counter()).collect();
    let want: Vec<u32> = [5].into_iter().chain(10..=200).collect();
    assert_eq!(scanned, want);
    let fetched = s.fetch(RED, &FetchSelect::Above { sn: SeqNum::ZERO, limit: 2 });
    assert_eq!(fetched, [(tok(5), sn(5), pl(vec![5; 100])), (tok(10), sn(10), pl(vec![10; 100]))]);
    assert_eq!((s.record_count(RED), s.tail(RED)), (192, Some(sn(200))));
}

#[test]
fn a_batch_staged_and_committed_in_one_call_writes_no_staged_record() {
    let s = StorageServer::new(StorageConfig::tiny());
    let written = s.write(
        &[(tok(1), RED, batch(b"at once")), (tok(2), RED, batch(b"later"))],
        &[(tok(1), sn(1))],
    );
    let want = Written { staged: vec![Ok(true), Ok(true)], committed: vec![Ok(Some(RED))] };
    assert_eq!(written, want);
    let (pm, _) = s.devices();
    let image = pm.read(0, pm.capacity()).unwrap();
    let on_pm = |key: u128| image.windows(16).any(|w| w == key.to_le_bytes());
    assert!(!on_pm(codec::staged_key(tok(1))), "committed in the same call: never staged in PM");
    assert!(on_pm(codec::committed_key(RED, sn(1))));
    assert!(on_pm(codec::staged_key(tok(2))));
    assert_eq!(s.pm_live_bytes(), 8 + 7 + codec::staged_len(&[pl(b"later")]));
    assert_eq!(s.get(RED, sn(1)).unwrap(), b"at once");
    assert_eq!(s.staged_tokens(), [(tok(2), RED, 1)]);
    assert_eq!(s.stats.stages.get(), 2);
    assert_eq!(s.stats.bytes_appended.get(), 12);
}

#[test]
fn a_write_call_repeats_and_unknowns_report_per_item() {
    let s = server();
    s.stage(tok(1), RED, &[pl(b"a")]).unwrap();
    s.commit(tok(1), sn(1)).unwrap();
    let written = s.write(
        &[
            (tok(1), RED, batch(b"a")), // committed before
            (tok(2), RED, batch(b"b")),
            (tok(2), RED, batch(b"b")), // repeats the one before
        ],
        &[(tok(2), sn(2)), (tok(2), sn(2)), (tok(9), sn(3)), (tok(1), sn(1))],
    );
    let want = Written {
        staged: vec![Ok(false), Ok(true), Ok(false)],
        committed: vec![Ok(Some(RED)), Ok(None), Err(StorageError::UnknownToken(tok(9))), Ok(None)],
    };
    assert_eq!(written, want);
    assert_eq!(s.committed_sn(RED, tok(2)), Some(sn(2)));
    assert!(s.staged_tokens().is_empty());
}

#[test]
fn a_write_the_pool_refuses_retries_each_item_alone() {
    // Token 3's batch is larger than the whole pool, so the call's one
    // transaction is refused. Alone, every other item lands; token 3's
    // stage, its commit and their repeats in the call all report the error.
    let s = StorageServer::new(StorageConfig::tiny());
    s.stage(tok(1), RED, &[pl(b"one")]).unwrap();
    let huge = || Batch::from(vec![pl(vec![0; 1 << 20])]);
    let written = s.write(
        &[(tok(2), RED, batch(b"two")), (tok(3), RED, huge()), (tok(3), RED, huge())],
        &[(tok(1), sn(1)), (tok(2), sn(2)), (tok(3), sn(3)), (tok(3), sn(3)), (tok(2), sn(2))],
    );
    let full = StorageError::Pool(PoolError::PoolFull);
    let want = Written {
        staged: vec![Ok(true), Err(full), Err(full)],
        committed: vec![Ok(Some(RED)), Ok(Some(RED)), Err(full), Err(full), Ok(None)],
    };
    assert_eq!(written, want);
    assert_eq!((s.get(RED, sn(1)).unwrap(), s.get(RED, sn(2)).unwrap()), (pl(b"one"), pl(b"two")));
    assert!(s.staged_tokens().is_empty());
    assert_eq!(s.pm_live_bytes(), 2 * 8 + 6);
    // One item alone is not retried; its repeat reports its error too.
    let written = s.write(&[(tok(4), RED, huge()), (tok(4), RED, huge())], &[]);
    assert_eq!(written, Written { staged: vec![Err(full), Err(full)], committed: vec![] });
}

#[test]
fn a_write_call_recovers_whole_or_not_at_all() {
    // Before the call token 1 is staged. The call stages 2 (which stays
    // staged) and 3, and commits 1 and 3. A power failure at any device
    // operation of the call recovers all of it or none of it.
    let setup = || {
        let s = server();
        s.stage(tok(1), RED, &[pl(b"one")]).unwrap();
        s
    };
    let call = |s: &StorageServer| {
        s.write(
            &[(tok(2), RED, batch(b"two")), (tok(3), GREEN, batch(b"three"))],
            &[(tok(1), sn(1)), (tok(3), sn(1))],
        )
    };
    let ops = |pm: &PmDevice| {
        pm.stats.writes.load(Ordering::Relaxed) + pm.stats.persists.load(Ordering::Relaxed)
    };
    let s = setup();
    let pm = s.devices().0;
    let before = ops(&pm);
    assert!(call(&s).committed.iter().all(Result::is_ok));
    let total = ops(&pm) - before;
    assert!(total >= 4, "{total} device operations");
    let mut outcomes = Vec::new();
    for fail_at in 0..=total {
        let s = setup();
        let (pm, ssd) = s.devices();
        pm.fail_after(fail_at);
        call(&s);
        pm.crash();
        ssd.crash();
        drop(s);
        let r = StorageServer::recover(pm, ssd, StorageConfig::default());
        let read = |color, i| r.get(color, sn(i)).map(|v| v.to_vec());
        let state = (r.staged_tokens(), read(RED, 1), read(GREEN, 1));
        let whole = (vec![(tok(2), RED, 1)], Some(b"one".to_vec()), Some(b"three".to_vec()));
        let none = (vec![(tok(1), RED, 1)], None, None);
        assert!(state == whole || state == none, "power failed at operation {fail_at}: {state:?}");
        if state == whole {
            assert_eq!(r.committed_sn(GREEN, tok(3)), Some(sn(1)));
            assert_eq!(r.pm_live_bytes(), 8 + 3 + 8 + 5 + codec::staged_len(&[pl(b"two")]));
        }
        outcomes.push(state == whole);
    }
    // Nothing before the commit record, everything from it on.
    assert!(!outcomes[0] && outcomes[total as usize], "{outcomes:?}");
    assert!(outcomes.windows(2).all(|w| w[0] <= w[1]), "{outcomes:?}");
}

mod cold_tier {
    use super::*;
    use flexlog_tier::SimObjectStore;

    fn tiered(segment_records: usize) -> (StorageServer, Arc<SimObjectStore>) {
        let store = Arc::new(SimObjectStore::new(DeviceClock::new(ClockMode::Off)));
        let mut tier = TierConfig::new(store.clone());
        tier.segment_records = segment_records;
        let s = StorageServer::new(StorageConfig {
            tier: Some(tier),
            ..Default::default()
        });
        (s, store)
    }

    /// Commits `n` records into `color` as sn 1..=n with payload `[i; 16]`.
    /// `base` keeps tokens unique across colors within one test.
    fn fill(s: &StorageServer, color: ColorId, n: u32, base: u32) {
        for i in 1..=n {
            s.stage(tok(base + i), color, &[pl(vec![i as u8; 16])]).unwrap();
            s.commit(tok(base + i), sn(i)).unwrap();
        }
    }

    #[test]
    fn trim_archives_then_serves_reads_through() {
        let (s, _store) = tiered(4);
        fill(&s, RED, 10, 0);
        s.trim(RED, sn(8)).unwrap();

        // The prefix left the live tiers but not the log.
        assert_eq!(s.record_count(RED), 2);
        assert_eq!(s.head(RED), Some(sn(8)));
        assert_eq!(s.get(RED, sn(3)).unwrap(), vec![3u8; 16]);
        assert!(s.stats.archive_hits.load(Ordering::Relaxed) > 0);
        assert!(s.stats.archived_records.load(Ordering::Relaxed) >= 8);

        // Replay from genesis: all ten, in order, byte-identical.
        let all = s.scan(RED, SeqNum::ZERO).unwrap();
        assert_eq!(all.len(), 10);
        for (i, rec) in all.iter().enumerate() {
            assert_eq!(rec.sn, sn(i as u32 + 1));
            assert_eq!(rec.payload.as_slice(), &vec![i as u8 + 1; 16][..]);
        }
    }

    #[test]
    fn trim_holds_records_until_upload_is_durable() {
        let (s, store) = tiered(4);
        fill(&s, RED, 10, 0);

        // Store dark: the trim round cannot make anything durable, so the
        // trim must drop nothing — the live tiers are the only copy.
        store.set_outage(true);
        s.trim(RED, sn(8)).unwrap();
        assert_eq!(s.record_count(RED), 10, "outage trim must not drop records");
        assert_eq!(s.head(RED), None);
        assert_eq!(s.get(RED, sn(1)).unwrap(), vec![1u8; 16]);

        // Healed: the retried trim archives, then drops.
        store.set_outage(false);
        s.trim(RED, sn(8)).unwrap();
        assert_eq!(s.record_count(RED), 2);
        assert_eq!(s.get(RED, sn(1)).unwrap(), vec![1u8; 16], "read-through");
    }

    #[test]
    fn partial_round_drops_only_the_durable_prefix() {
        let (s, store) = tiered(4);
        fill(&s, RED, 12, 0);

        // Policy round: archive all but the newest 8 → sn 1..=4 durable.
        assert_eq!(s.archive_prefix(RED, 8, u64::MAX).unwrap(), 4);
        assert_eq!(s.record_count(RED), 8);
        assert_eq!(s.head(RED), Some(sn(4)));

        // A full trim during an outage may only drop what the earlier
        // round already made durable — nothing, since sn 4 is the head.
        store.set_outage(true);
        s.trim(RED, sn(12)).unwrap();
        assert_eq!(s.record_count(RED), 8, "unarchived records must survive");
        assert_eq!(s.head(RED), Some(sn(4)));
        assert_eq!(s.get(RED, sn(6)).unwrap(), vec![6u8; 16], "still live");

        store.set_outage(false);
        s.trim(RED, sn(12)).unwrap();
        assert_eq!(s.record_count(RED), 0);
        let all = s.scan(RED, SeqNum::ZERO).unwrap();
        assert_eq!(all.len(), 12, "fully archived log replays from genesis");
    }

    #[test]
    fn trim_below_archive_boundary_is_a_noop_round() {
        let (s, _store) = tiered(4);
        fill(&s, RED, 12, 0);
        assert_eq!(s.archive_prefix(RED, 4, u64::MAX).unwrap(), 8);
        assert_eq!(s.head(RED), Some(sn(8)));

        // A client trim below (or at) the archived boundary must not panic
        // or regress the head — everything it names is already durable.
        let (head, _) = s.trim(RED, sn(5)).unwrap();
        assert_eq!(head, Some(sn(8)));
        assert_eq!(s.record_count(RED), 4);
    }

    #[test]
    fn archive_reads_bypass_the_dram_cache() {
        let (s, _store) = tiered(4);
        fill(&s, RED, 12, 0);
        fill(&s, GREEN, 4, 100);
        s.trim(RED, sn(12)).unwrap();

        // Warm the hot color, then baseline the cache counters.
        for i in 1..=4u32 {
            assert_eq!(s.get(GREEN, sn(i)).unwrap(), vec![i as u8; 16]);
        }
        let h0 = s.stats.cache_hits.load(Ordering::Relaxed);
        let m0 = s.stats.cache_misses.load(Ordering::Relaxed);

        // Interleave cold replays with hot reads: the replay streams
        // through the archive buffer, never the DRAM cache.
        for _ in 0..10 {
            assert_eq!(s.scan(RED, SeqNum::ZERO).unwrap().len(), 12);
            for i in 1..=4u32 {
                assert_eq!(s.get(GREEN, sn(i)).unwrap(), vec![i as u8; 16]);
            }
        }
        let dh = s.stats.cache_hits.load(Ordering::Relaxed) - h0;
        let dm = s.stats.cache_misses.load(Ordering::Relaxed) - m0;
        assert!(dh >= 40, "hot reads must keep hitting DRAM: {dh}");
        assert_eq!(dm, 0, "archive replay must not evict or miss the cache");
        assert!(s.stats.archive_hits.load(Ordering::Relaxed) >= 120);
    }
}

mod tier_roundtrip {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Append → read byte-equality through every tier. The same batches
        /// are written to a tiny server (spills to SSD) and read back three
        /// ways: warm cache, cold cache (PM), and after enough volume that
        /// the oldest records live on SSD.
        #[test]
        fn append_read_roundtrip_across_tiers(
            batches in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..600),
                1..12,
            ),
        ) {
            let s = StorageServer::new(StorageConfig::tiny());
            let mut expected: Vec<(SeqNum, Vec<u8>)> = Vec::new();
            for (i, bytes) in batches.iter().enumerate() {
                let c = i as u32 + 1;
                let payload = Payload::from(bytes.clone());
                s.stage(tok(c), RED, &[payload]).unwrap();
                s.commit(tok(c), sn(c)).unwrap();
                expected.push((sn(c), bytes.clone()));
            }
            // Warm: commit primed the cache (unless evicted by volume).
            for (sn, bytes) in &expected {
                prop_assert_eq!(s.get(RED, *sn).unwrap().as_slice(), &bytes[..]);
            }
            // Cold: force PM/SSD reads.
            s.clear_cache();
            for (sn, bytes) in &expected {
                let (v, hit) = s.get_traced(RED, *sn).unwrap();
                prop_assert_eq!(v.as_slice(), &bytes[..]);
                prop_assert!(hit != TierHit::Cache, "cache was cleared");
            }
            // Push the earliest records onto SSD, then re-verify everything.
            for i in 0..64u32 {
                let c = 1000 + i;
                s.stage(tok(c), GREEN, &[pl(vec![0xEE; 1024])]).unwrap();
                s.commit(tok(c), sn(c)).unwrap();
            }
            s.clear_cache();
            for (sn, bytes) in &expected {
                prop_assert_eq!(s.get(RED, *sn).unwrap().as_slice(), &bytes[..]);
            }
        }
    }
}
