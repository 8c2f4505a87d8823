//! Crash-consistency tests of the PM substrate. Property-based: random
//! operation sequences with clean and *torn* power failures injected
//! between operations. Exhaustive: a scripted workload crashed at *every*
//! device operation, inside commits and reclamation steps included. The
//! transactional pool must always recover a state that corresponds to a
//! prefix of the committed history — never a torn, reordered, or
//! resurrected one.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use flexlog_pm::{PmDevice, PmDeviceConfig, PmPool};

/// A pool cut into 120-byte segments: a record or two each, so a few dozen
/// operations take the log around the device and every multi-op
/// transaction runs across segments.
fn small_device() -> Arc<PmDevice> {
    Arc::new(PmDevice::new(PmDeviceConfig {
        capacity: 4 * 1024 + 8,
        ..Default::default()
    }))
}

/// Segments freed or records copied forward by `pool` so far.
fn reclaimed(pool: &PmPool) -> u64 {
    let stats = &pool.stats;
    stats.segments_freed.load(Ordering::Relaxed) + stats.reclaim_copied_records.load(Ordering::Relaxed)
}

/// How `pool` differs from `model`, if it does.
fn divergence(pool: &PmPool, model: &HashMap<u128, Vec<u8>>) -> Option<String> {
    let wrong = model.iter().find(|(k, v)| pool.get(**k).as_ref() != Some(*v));
    match wrong {
        Some((k, v)) => Some(format!("key {k} reads {:?}, committed {v:?}", pool.get(*k))),
        None if pool.len() != model.len() => {
            Some(format!("{} keys live, {} committed", pool.len(), model.len()))
        }
        None => None,
    }
}

#[derive(Clone, Debug)]
enum PoolOp {
    Put(u8, Vec<u8>),
    Delete(u8),
    /// Multi-op transaction (atomic).
    Tx(Vec<(u8, Vec<u8>)>),
    Compact,
    CleanCrash,
    TornCrash(u64),
}

fn pool_op() -> impl Strategy<Value = PoolOp> {
    prop_oneof![
        5 => (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..24))
            .prop_map(|(k, v)| PoolOp::Put(k % 24, v)),
        2 => any::<u8>().prop_map(|k| PoolOp::Delete(k % 24)),
        2 => proptest::collection::vec(
                (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..16)),
                1..5
            ).prop_map(|kvs| PoolOp::Tx(kvs.into_iter().map(|(k, v)| (k % 24, v)).collect())),
        1 => Just(PoolOp::Compact),
        1 => Just(PoolOp::CleanCrash),
        1 => any::<u64>().prop_map(PoolOp::TornCrash),
    ]
}

const CASES: u32 = 24;

proptest! {
    #![proptest_config(ProptestConfig { cases: CASES, .. ProptestConfig::default() })]

    /// Committed pool state survives any mix of clean and torn crashes.
    /// (Commits are synchronous, so *nothing* committed may be lost; torn
    /// crashes may at most destroy data that was never committed.)
    #[test]
    fn pool_never_loses_committed_state(ops in proptest::collection::vec(pool_op(), 1..80)) {
        // Reclamation must really run inside these sequences: count the
        // cases whose pool freed or copied anything without being told to.
        static RAN: AtomicUsize = AtomicUsize::new(0);
        static RECLAIMING: AtomicUsize = AtomicUsize::new(0);
        // (`compacted` = what explicit compact() calls did to this pool object.)
        let (mut reclaimed_unasked, mut compacted) = (false, 0);

        let dev = small_device();
        let mut pool = PmPool::create(Arc::clone(&dev));
        let mut model: HashMap<u8, Vec<u8>> = HashMap::new();

        for op in ops {
            match op {
                PoolOp::Put(k, v) => {
                    pool.put(k as u128, &v).unwrap();
                    model.insert(k, v);
                }
                PoolOp::Delete(k) => {
                    pool.delete(k as u128).unwrap();
                    model.remove(&k);
                }
                PoolOp::Tx(kvs) => {
                    let mut tx = pool.begin();
                    for (k, v) in &kvs {
                        tx.put(*k as u128, v);
                    }
                    tx.commit().unwrap();
                    for (k, v) in kvs {
                        model.insert(k, v);
                    }
                }
                PoolOp::Compact => {
                    let before = reclaimed(&pool);
                    pool.compact().unwrap();
                    compacted += reclaimed(&pool) - before;
                }
                PoolOp::CleanCrash | PoolOp::TornCrash(_) => {
                    reclaimed_unasked |= reclaimed(&pool) > compacted;
                    compacted = 0;
                    match op {
                        PoolOp::TornCrash(seed) => dev.crash_torn(&mut StdRng::seed_from_u64(seed)),
                        _ => dev.crash(),
                    }
                    pool = PmPool::open(Arc::clone(&dev));
                }
            }
            // Invariant: the pool always reflects exactly the committed
            // model (every commit persisted before returning).
            prop_assert_eq!(pool.len(), model.len(), "live key count diverged");
            for (k, v) in &model {
                let got = pool.get(*k as u128);
                prop_assert_eq!(got.as_deref(), Some(v.as_slice()), "key {} diverged", k);
            }
        }
        reclaimed_unasked |= reclaimed(&pool) > compacted;
        let reclaiming = RECLAIMING.fetch_add(reclaimed_unasked as usize, Ordering::Relaxed)
            + reclaimed_unasked as usize;
        let ran = RAN.fetch_add(1, Ordering::Relaxed) + 1;
        prop_assert!(
            ran < CASES as usize || reclaiming * 2 >= ran,
            "reclamation ran in only {} of {} cases", reclaiming, ran
        );
    }
}

// ------------------------------------------------- every-operation sweep ----

#[derive(Clone, Debug)]
enum Step {
    /// One transaction: puts (`Some`) and deletes (`None`).
    Tx(Vec<(u128, Option<Vec<u8>>)>),
    Compact,
}

/// A workload that keeps an 8 KiB pool (eight 1 KiB segments) reclaiming:
/// a churning key set whose log bytes go around the device several times,
/// eight keys written once (the head catches up with them: they must be
/// copied forward), deletes whose tombstones the head passes, transactions
/// too large not to straddle segments, and one explicit compaction.
fn script() -> Vec<Step> {
    let value = |i: u128, len: usize| (0..len).map(|b| (i as usize * 31 + b) as u8).collect::<Vec<u8>>();
    let mut steps = Vec::new();
    for i in 0..88u128 {
        if i % 11 == 0 {
            steps.push(Step::Tx(vec![(100 + i / 11, Some(value(i, 40)))]));
        }
        steps.push(match i % 8 {
            3 => Step::Tx(vec![(i % 7, None)]),
            5 => Step::Tx(vec![
                (i % 7, Some(value(i, 100))),
                (20 + i % 3, Some(value(i, 120))),
                (i % 5, None),
                (30, Some(value(i, 140))),
            ]),
            _ => Step::Tx(vec![(i % 7, Some(value(i, 60 + i as usize % 50)))]),
        });
        match i {
            // Larger than a segment: cannot but run on into the next one.
            6 => steps.push(Step::Tx((40..52).map(|k| (k, Some(value(k, 60)))).collect())),
            9 => steps.push(Step::Tx((40..52).map(|k| (k, None)).collect())),
            50 => steps.push(Step::Compact),
            _ => {}
        }
    }
    steps
}

fn apply(pool: &PmPool, model: &mut HashMap<u128, Vec<u8>>, step: &Step) {
    match step {
        Step::Compact => pool.compact().unwrap(),
        Step::Tx(ops) => {
            let mut tx = pool.begin();
            for (key, value) in ops {
                match value {
                    Some(value) => tx.put(*key, value),
                    None => tx.delete(*key),
                }
            }
            tx.commit().unwrap();
            for (key, value) in ops {
                match value {
                    Some(value) => model.insert(*key, value.clone()),
                    None => model.remove(key),
                };
            }
        }
    }
}

fn device_ops(dev: &PmDevice) -> u64 {
    dev.stats.writes.load(Ordering::Relaxed) + dev.stats.persists.load(Ordering::Relaxed)
}

/// The pool is crashed at every device-operation index of the script —
/// cleanly and with torn flushes — and must reopen as exactly the committed
/// model: the state before or after the step the power failed in (a step is
/// atomic), and precisely the state before it when none of its operations
/// got through. The reopened pool must also take a commit and keep it.
#[test]
fn crash_at_every_device_operation_recovers_the_committed_model() {
    let steps = script();
    // Reference run: the device-operation count at which each step ends.
    // (The pool is deterministic, so a crashed run retraces this one.)
    let dev = small_device();
    let pool = PmPool::create(Arc::clone(&dev));
    let created = device_ops(&dev);
    let mut model = HashMap::new();
    let mut models = vec![model.clone()];
    let mut ends = Vec::new();
    for step in &steps {
        apply(&pool, &mut model, step);
        models.push(model.clone());
        ends.push(device_ops(&dev) - created);
    }
    let total = *ends.last().unwrap();
    // The script does what it is for: copy-forward rounds, a log that went
    // around the device (8 segments) more than once.
    assert!(pool.stats.reclaim_copied_records.load(Ordering::Relaxed) >= 30);
    assert!(pool.stats.segments_freed.load(Ordering::Relaxed) >= 24);

    // `None` = clean crash, `Some(seed)` = torn.
    let crashes = std::iter::once(None).chain((1..=8).map(Some));
    for crash in crashes {
        for fail_at in 0..=total {
            let dev = small_device();
            let pool = PmPool::create(Arc::clone(&dev));
            dev.fail_after(fail_at);
            let mut scratch = HashMap::new();
            let done = steps
                .iter()
                .take_while(|_| !dev.power_failed())
                .map(|step| apply(&pool, &mut scratch, step))
                .count();
            match crash {
                None => dev.crash(),
                Some(seed) => dev.crash_torn(&mut StdRng::seed_from_u64(seed * 1_000_003 + fail_at)),
            }
            drop(pool);
            let what = format!("after power failed at device operation {fail_at} ({crash:?})");
            let reopened = PmPool::open(Arc::clone(&dev));
            // Steps whose every operation got through are committed; the
            // one the failure cut short, if any of it ran, is all or nothing.
            let committed = ends.iter().take_while(|&&end| end <= fail_at).count();
            let begun = ends[..committed].last().copied().unwrap_or(0);
            let cut_short = fail_at > begun && committed < steps.len();
            assert_eq!(done, committed + cut_short as usize, "not the reference run's path {what}");
            let mut model = (committed..=done)
                .map(|n| &models[n])
                .find(|model| divergence(&reopened, model).is_none())
                .unwrap_or_else(|| {
                    panic!("{} {what}", divergence(&reopened, &models[committed]).unwrap())
                })
                .clone();
            // The recovered log takes appends and keeps them.
            let after = Step::Tx(vec![(7_777, Some(b"after the crash".to_vec())), (100, None)]);
            apply(&reopened, &mut model, &after);
            dev.crash();
            if let Some(wrong) = divergence(&PmPool::open(dev), &model) {
                panic!("{wrong} one commit {what}");
            }
        }
    }
}

// ------------------------------------------------ tombstone resurrection ----

/// A small pool that is power-cycled after every commit (each is durable
/// when it returns, so a clean crash between operations must lose
/// nothing) and checked on the way back up.
struct Cycled {
    dev: Arc<PmDevice>,
    pool: PmPool,
    /// Records copied forward / segments freed over all incarnations.
    copied: u64,
    freed: u64,
}

impl Cycled {
    fn new() -> Self {
        let dev = small_device();
        let pool = PmPool::create(Arc::clone(&dev));
        Cycled { dev, pool, copied: 0, freed: 0 }
    }

    fn commit(&mut self, op: impl FnOnce(&PmPool), check: &dyn Fn(&PmPool)) {
        op(&self.pool);
        self.copied += self.pool.stats.reclaim_copied_records.load(Ordering::Relaxed);
        self.freed += self.pool.stats.segments_freed.load(Ordering::Relaxed);
        self.dev.crash();
        self.pool = PmPool::open(Arc::clone(&self.dev));
        check(&self.pool);
    }

    /// `bytes` of log written as short-lived values of one key.
    fn churn(&mut self, bytes: usize, check: &dyn Fn(&PmPool)) {
        for i in 0..bytes / 100 {
            self.commit(|pool| pool.put(1, &[i as u8; 34]).unwrap(), check); // 33 + 34 + 33 bytes
        }
    }
}

/// A deleted key stays deleted however reclamation gets past its put and
/// its tombstone. Segments leave the log oldest first, so the legal orders
/// are: the put's segment first (put and tombstone a segment apart), both
/// at once (same segment), and the same two again for a put that
/// reclamation had copied forward before the delete — each driven by
/// foreground commits and by `compact()`, with a power cycle after every
/// single commit.
#[test]
fn deleted_key_is_never_resurrected_by_reclamation() {
    const K: u128 = 42;
    // Enough churn to take the log round the 8 KiB device twice over.
    const TWICE_ROUND: usize = 16 * 1024;
    for (copied_forward, apart, compact) in
        (0..8).map(|case| (case & 1 != 0, case & 2 != 0, case & 4 != 0))
    {
        let case = format!(
            "(put copied forward first: {copied_forward}, put and tombstone apart: {apart}, \
             by compact(): {compact})"
        );
        let mut rig = Cycled::new();
        let reclaim = |rig: &mut Cycled, check: &dyn Fn(&PmPool)| match compact {
            true => rig.commit(|pool| pool.compact().unwrap(), check),
            false => rig.churn(TWICE_ROUND, check),
        };
        let alive = |pool: &PmPool| {
            assert_eq!(pool.get(K).as_deref(), Some(&b"doomed"[..]), "live key lost {case}");
            assert_eq!(pool.get(7).as_deref(), Some(&b"bystander"[..]), "{case}");
        };
        let dead = |pool: &PmPool| {
            assert_eq!(pool.get(K), None, "deleted key resurrected {case}");
            assert_eq!(pool.get(7).as_deref(), Some(&b"bystander"[..]), "{case}");
        };
        rig.commit(|pool| pool.put(7, b"bystander").unwrap(), &|_| ());
        rig.commit(|pool| pool.put(K, b"doomed").unwrap(), &alive);
        if copied_forward {
            reclaim(&mut rig, &alive);
            assert!(rig.copied >= 2, "the head never caught up with the live put {case}");
        }
        if apart {
            rig.churn(1100, &alive);
        }
        rig.commit(|pool| pool.delete(K).unwrap(), &dead);
        let freed = rig.freed;
        reclaim(&mut rig, &dead);
        reclaim(&mut rig, &dead);
        assert!(rig.freed > freed, "reclamation never passed the tombstone {case}");
        // Put and tombstone are long gone: a put under the same key is a
        // new life, which the old tombstone must not shadow either.
        rig.commit(|pool| pool.put(K, b"reborn").unwrap(), &|_| ());
        rig.churn(TWICE_ROUND, &|pool| {
            assert_eq!(pool.get(K).as_deref(), Some(&b"reborn"[..]), "re-put key lost {case}");
        });
    }
}
