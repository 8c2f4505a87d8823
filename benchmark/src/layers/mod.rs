//! Kind-(b) per-layer metrics: isolated drivers that call one layer's public
//! functions with a fixed op count, one module per crate under test.
//!
//! Two clocks, never mixed: `*_us` / `*_ms` / `*_per_s` values are wall time
//! of the calling thread (devices in `ClockMode::Virtual`, so no modelled
//! time is spun into them); `*_modelled_ns` values are the device time the
//! layer charged to `flexlog_pm::virtual_time` and must repeat exactly.
//! The drivers that need a cluster (`ordering`, `replication`, `ctrl`,
//! `core`) start their own small ones; the fault drivers among them keep a
//! serial writer issuing through the fault and count its failed ops.

mod core;
mod ctrl;
mod obs;
mod ordering;
mod pm;
mod replication;
mod simnet;
mod storage;
mod tier;

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use flexlog_core::{ColorId, FlexLogCluster};
use flexlog_types::Payload;

use crate::report::Metric;
use crate::stats::median_us;
use crate::workloads::patient_reader;

/// What the drivers measured.
#[derive(Default)]
pub struct Drivers {
    pub metrics: Vec<Metric>,
    /// Ops the fault drivers' writers issued, and how many of them failed
    /// or outlived the client deadline.
    pub attempted_ops: u64,
    pub failed_ops: u64,
}

impl Drivers {
    /// Records one metric; the unit is the name's suffix (`_us`, `_per_s`, …).
    fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push(Metric::new(name, value));
    }

    /// Records a modelled (virtual-clock) figure: `measure` runs twice on
    /// fresh state and must charge exactly the same device time both times.
    fn put_modelled(&mut self, name: &'static str, measure: impl Fn() -> f64) {
        let (first, second) = (measure(), measure());
        assert!(
            first == second,
            "{name}: modelled time must repeat exactly, got {first} then {second}"
        );
        self.put(name, first);
    }
}

/// Runs every driver, one after another, on the calling thread.
pub fn run_all(seed: u64) -> Drivers {
    let mut out = Drivers::default();
    type Driver = fn(u64, &mut Drivers);
    let drivers: [(&str, Driver); 9] = [
        ("simnet", simnet::run),
        ("pm", pm::run),
        ("storage", storage::run),
        ("tier", tier::run),
        ("obs", obs::run),
        ("ordering", ordering::run),
        ("core", core::run),
        ("replication", replication::run),
        ("ctrl", ctrl::run),
    ];
    for (name, run) in drivers {
        let t = Instant::now();
        run(seed, &mut out);
        eprintln!("layer driver {name}: {:.2} s", t.elapsed().as_secs_f64());
    }
    out
}

/// Median wall time of `n` calls of `op`, in µs; `op` gets the call index.
fn median_call_us(n: usize, mut op: impl FnMut(usize)) -> f64 {
    let mut ns: Vec<u64> = (0..n)
        .map(|i| {
            let t = Instant::now();
            op(i);
            t.elapsed().as_nanos() as u64
        })
        .collect();
    median_us(&mut ns)
}

/// An append, or an order request, slower than this counts as failed
/// (`ClusterSpec::client_deadline`).
const DEADLINE: Duration = Duration::from_secs(30);

/// The fault drivers' serial writer: blocking 256 B appends to `color` until
/// `stop`, through whatever fault the driver injects meanwhile. Returns when
/// each ack arrived (since `epoch`) and how many appends failed or outlived
/// [`DEADLINE`].
fn serial_writer(
    cluster: &FlexLogCluster,
    color: ColorId,
    epoch: Instant,
    stop: &AtomicBool,
) -> (Vec<Duration>, u64) {
    let mut h = cluster.handle();
    let payload = Payload::from(vec![0xA5u8; 256]);
    let (mut acks, mut failed) = (Vec::new(), 0u64);
    while !stop.load(Ordering::Relaxed) {
        let t = Instant::now();
        match h.append_payloads(std::slice::from_ref(&payload), color) {
            Ok(_) if t.elapsed() < DEADLINE => acks.push(epoch.elapsed()),
            _ => failed += 1,
        }
    }
    (acks, failed)
}

/// "No acknowledged write lost": how many of `acked` appends the quiescent
/// `color` log does not hold.
fn lost_acks(cluster: &FlexLogCluster, color: ColorId, acked: usize) -> u64 {
    let logged = patient_reader(cluster)
        .subscribe(color)
        .map_or(0, |log| log.len());
    (acked as u64).saturating_sub(logged as u64)
}
