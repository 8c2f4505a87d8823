//! flexlog-obs: what the instruments themselves cost — about 13
//! flight-recorder events and several histogram records per 3-replica append.

use std::time::Instant;

use flexlog_obs::{ObsHandle, Stage};
use flexlog_types::{FunctionId, Token};

use super::{median_call_us, Drivers};

const RECORDS: u64 = 1_000_000;

pub fn run(_seed: u64, out: &mut Drivers) {
    let obs = ObsHandle::new();
    let hist = obs.histogram("bench.lat_ns");
    let t = Instant::now();
    for i in 0..RECORDS {
        hist.record(std::hint::black_box(i * 37 % 1_000_000));
    }
    out.put(
        "obs.hist_record_ns",
        t.elapsed().as_nanos() as f64 / RECORDS as f64,
    );

    let tracer = obs.tracer();
    let t = Instant::now();
    for i in 0..RECORDS {
        tracer.record(
            Token::new(FunctionId(1), i as u32),
            Stage::ReplicaCommit,
            7,
            0,
        );
    }
    out.put(
        "obs.trace_event_ns",
        t.elapsed().as_nanos() as f64 / RECORDS as f64,
    );

    // A registry loaded like a cluster's: a few dozen names, several
    // handles each.
    for n in 0..40 {
        for _ in 0..6 {
            obs.counter(&format!("bench.counter.{n}")).add(1);
            obs.histogram(&format!("bench.hist.{}", n % 10)).record(n);
        }
    }
    out.put(
        "obs.snapshot_us",
        median_call_us(200, |_| {
            std::hint::black_box(obs.snapshot());
        }),
    );
}
