//! Bounded nemesis smoke run for CI: one mixed-fault chaos experiment
//! (replica crashes, sequencer fail-overs, shard partitions) against a
//! resilient single-shard cluster, finishing in a few seconds.
//!
//! The seed is fixed so CI is reproducible; export `FLEXLOG_CHAOS_SEED` to
//! replay a different schedule. Exits non-zero (panic) on any invariant
//! violation, printing the seed and the full fault plan.
//!
//! By default the cluster runs on an instant network. Export
//! `FLEXLOG_NEMESIS_NET=datacenter` to run the same schedule over delayed,
//! jittered links, through the delay scheduler — CI runs both, so faults
//! are injected while messages are in flight.

use std::time::Duration;

use flexlog_chaos::{run_chaos, seed_from_env, ChaosOptions, PlanConfig, WorkloadConfig};
use flexlog_core::ClusterSpec;
use flexlog_simnet::NetConfig;
use flexlog_types::ColorId;

fn main() {
    let seed = seed_from_env(0x000C_15A0);
    let net = match std::env::var("FLEXLOG_NEMESIS_NET").as_deref() {
        Ok("datacenter") => NetConfig::datacenter(),
        _ => NetConfig::instant(),
    };
    let mut options = ChaosOptions::new(seed);
    options.spec = ClusterSpec {
        backups_per_sequencer: 2,
        delta: Duration::from_millis(80),
        net,
        client_retry: Duration::from_millis(50),
        client_max_retry: Duration::from_millis(400),
        ..ClusterSpec::single_shard()
    };
    options.workload = WorkloadConfig {
        clients: 3,
        colors: vec![ColorId(1)],
        seed,
        multi_appends: false,
        trims: false,
        think_time: Duration::from_millis(5),
    };
    options.plan_config = PlanConfig {
        horizon: Duration::from_millis(1500),
        episodes: 3,
        downtime: Duration::from_millis(250),
        replica_crashes: true,
        sequencer_crashes: true,
        shard_partitions: true,
    };
    options.duration = Duration::from_millis(2000);
    options.settle = Duration::from_millis(600);

    println!(
        "nemesis smoke: seed {seed:#x}, net {}",
        if options.spec.net.link.delay.is_zero() { "instant" } else { "datacenter" }
    );
    let report = run_chaos(options);
    println!("{}", report.plan);
    println!(
        "ok: {} operations ({} committed appends, {} errored ops under faults), \
         max epoch {}, final log sizes {:?}",
        report.operations, report.ok_appends, report.errors, report.max_epoch, report.final_sizes,
    );

    // The flight recorder must stay ring-bounded no matter how much chaos
    // traffic it absorbed: occupancy never exceeds capacity, and eviction
    // (if any) is accounted for rather than silent.
    assert!(
        report.trace_events <= report.trace_capacity,
        "tracer ring overflowed its bound: {} events > capacity {}",
        report.trace_events,
        report.trace_capacity,
    );
    assert!(
        report.trace_events > 0,
        "chaos run recorded no trace events; the flight recorder is dark"
    );
    println!(
        "flight recorder: {} / {} ring slots used, {} evicted",
        report.trace_events, report.trace_capacity, report.trace_dropped,
    );
}
