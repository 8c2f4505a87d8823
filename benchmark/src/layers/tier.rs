//! flexlog-tier: the cold tier below the SSD. Off the hot path of all four
//! workloads; these guard the archive/read-through costs.

use std::sync::Arc;
use std::time::Instant;

use flexlog_pm::{virtual_time, ClockMode, DeviceClock};
use flexlog_storage::{StorageConfig, StorageServer, TierConfig};
use flexlog_tier::{Segment, SimObjectStore, StoreLatencyModel};
use flexlog_types::{ColorId, CommittedRecord, Epoch, FunctionId, Payload, SeqNum, Token};

use super::{median_call_us, Drivers};

const COLOR: ColorId = ColorId(1);
const SEGMENT_RECORDS: usize = 256;
const ARCHIVED: usize = 4_096;
const COLD_GETS: usize = 64;

fn sn(i: usize) -> SeqNum {
    SeqNum::new(Epoch(1), i as u32 + 1)
}

/// A server with `ARCHIVED` records imported and a cold tier on `latency`.
fn tiered(latency: StoreLatencyModel) -> StorageServer {
    let store = Arc::new(SimObjectStore::with_latency(
        DeviceClock::new(ClockMode::Virtual),
        latency,
    ));
    let server = StorageServer::new(StorageConfig {
        clock: ClockMode::Virtual,
        tier: Some(TierConfig::new(store)),
        ..Default::default()
    });
    let payload = Payload::from(vec![0xA5u8; 256]);
    for i in 0..ARCHIVED {
        server
            .import(
                COLOR,
                sn(i),
                Token::new(FunctionId(1), i as u32 + 1),
                &payload,
            )
            .expect("import");
    }
    server
}

/// Point reads one segment apart: each pays a segment fetch and decode.
fn cold_get(server: &StorageServer, i: usize) {
    let at = (i * SEGMENT_RECORDS + 7) % ARCHIVED;
    assert!(
        server.get(COLOR, sn(at)).is_some(),
        "archived record readable"
    );
}

pub fn run(_seed: u64, out: &mut Drivers) {
    let records: Vec<CommittedRecord> = (0..SEGMENT_RECORDS)
        .map(|i| CommittedRecord::new(sn(i), vec![0xA5u8; 256]))
        .collect();
    let segment = Segment::seal(COLOR, records);
    let encoded = segment.encode();
    out.put(
        "tier.segment_encode_us",
        median_call_us(200, |_| {
            std::hint::black_box(std::hint::black_box(&segment).encode());
        }),
    );
    out.put(
        "tier.segment_decode_us",
        median_call_us(200, |_| {
            std::hint::black_box(Segment::decode(std::hint::black_box(&encoded)).expect("decode"));
        }),
    );

    // Archive-then-drop of a whole color against a zero-latency store:
    // seal, checksum, upload, manifest, PM/SSD release.
    let server = tiered(StoreLatencyModel::zero());
    let t = Instant::now();
    server
        .trim(COLOR, sn(ARCHIVED - 1))
        .expect("archiving trim");
    out.put(
        "tier.archive_rec_per_s",
        ARCHIVED as f64 / t.elapsed().as_secs_f64(),
    );
    out.put(
        "tier.cold_get_us",
        median_call_us(COLD_GETS, |i| cold_get(&server, i)),
    );

    out.put_modelled("tier.cold_get_modelled_us", || {
        let server = tiered(StoreLatencyModel::object_storage());
        server
            .trim(COLOR, sn(ARCHIVED - 1))
            .expect("archiving trim");
        virtual_time::take();
        for i in 0..COLD_GETS {
            cold_get(&server, i);
        }
        virtual_time::take() as f64 / COLD_GETS as f64 / 1e3
    });
}
