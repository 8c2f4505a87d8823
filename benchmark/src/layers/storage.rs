//! flexlog-storage: the replica's stage → commit path and its read tiers.

use std::time::Instant;

use flexlog_pm::{virtual_time, ClockMode};
use flexlog_storage::{StorageConfig, StorageServer};
use flexlog_types::{ColorId, Epoch, FunctionId, Payload, SeqNum, Token};

use super::{median_call_us, Drivers};

const COLOR: ColorId = ColorId(1);
/// Records per phase: 4 000 × 256 B stays below the PM watermark, so no
/// spill runs unless the driver asks for one (`demote_color`).
const RECORDS: usize = 4_000;
const BATCH: usize = 64;

fn server() -> StorageServer {
    StorageServer::new(StorageConfig {
        clock: ClockMode::Virtual,
        ..Default::default()
    })
}

fn token(i: usize) -> Token {
    Token::new(FunctionId(1), i as u32 + 1)
}

fn sn(i: usize) -> SeqNum {
    SeqNum::new(Epoch(1), i as u32 + 1)
}

pub fn run(_seed: u64, out: &mut Drivers) {
    let payload = Payload::from(vec![0xA5u8; 256]);
    let one = std::slice::from_ref(&payload);

    // One record at a time, as on `append-serial`.
    let s = server();
    out.put(
        "storage.stage_commit_us",
        median_call_us(RECORDS, |i| {
            s.stage(token(i), COLOR, one).expect("stage");
            s.commit(token(i), sn(i)).expect("commit");
        }),
    );

    // The same records through the three read tiers.
    out.put(
        "storage.get_cache_us",
        median_call_us(RECORDS, |i| {
            assert!(s.get(COLOR, sn(RECORDS - 1 - i % 512)).is_some())
        }),
    );
    s.clear_cache();
    out.put(
        "storage.get_pm_us",
        median_call_us(RECORDS, |i| assert!(s.get(COLOR, sn(i)).is_some())),
    );
    s.demote_color(COLOR, u64::MAX).expect("demote to SSD");
    s.clear_cache();
    out.put(
        "storage.get_ssd_us",
        median_call_us(RECORDS, |i| assert!(s.get(COLOR, sn(i)).is_some())),
    );
    let t = Instant::now();
    let scanned = s.scan(COLOR, SeqNum::ZERO).expect("scan").len();
    assert_eq!(scanned, RECORDS);
    out.put(
        "storage.scan_rec_per_s",
        scanned as f64 / t.elapsed().as_secs_f64(),
    );
    let t = Instant::now();
    s.trim(COLOR, sn(RECORDS - 1)).expect("trim");
    out.put(
        "storage.trim_us_per_rec",
        t.elapsed().as_secs_f64() * 1e6 / RECORDS as f64,
    );

    // A burst of OResps folded into one PM transaction, as on
    // `append-pipelined`.
    let s = server();
    let batches: Vec<Vec<(Token, SeqNum)>> = (0..RECORDS / BATCH)
        .map(|b| {
            (b * BATCH..(b + 1) * BATCH)
                .map(|i| {
                    s.stage(token(i), COLOR, one).expect("stage");
                    (token(i), sn(i))
                })
                .collect()
        })
        .collect();
    let per_batch = median_call_us(batches.len(), |b| {
        assert!(s.commit_many(&batches[b]).iter().all(Result::is_ok));
    });
    out.put("storage.commit_many64_us_per_rec", per_batch / BATCH as f64);

    out.put_modelled("storage.commit_modelled_ns_per_rec", || {
        let s = server();
        virtual_time::take();
        for i in 0..256 {
            s.stage(token(i), COLOR, one).expect("stage");
            s.commit(token(i), sn(i)).expect("commit");
        }
        virtual_time::take() as f64 / 256.0
    });
}
