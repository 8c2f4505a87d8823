//! Cold-tier nemesis scenarios: archive rounds (client trims plus a
//! policy-driven [`ControlLoop`]) run while the nemesis power-fails a
//! storage replica mid-round or takes the object store down entirely.
//! The §7 invariant suite (via the history checker inside `run_chaos`)
//! must hold regardless: no acked record lost, none served twice, and a
//! store outage only pauses archiving — it never drops live history.

use std::sync::Arc;
use std::time::{Duration, Instant};

use flexlog_chaos::{
    run_chaos, seed_from_env, ChaosOptions, FaultEvent, FaultKind, FaultPlan, PostCheckFn,
    ReconfigFn, WorkloadConfig,
};
use flexlog_core::{ClusterSpec, FlexLogCluster};
use flexlog_ctrl::{ControlConfig, ControlLoop, ControlPlane, Policy};
use flexlog_pm::{ClockMode, DeviceClock};
use flexlog_storage::TierConfig;
use flexlog_tier::SimObjectStore;
use flexlog_types::{ColorId, ShardId};

const RED: ColorId = ColorId(1);

fn store() -> Arc<SimObjectStore> {
    // No modelled latency: these runs are wall-clock scheduled and the
    // fault windows are what matters, not the milliseconds per put.
    Arc::new(SimObjectStore::new(DeviceClock::new(ClockMode::Off)))
}

fn tiered_spec(store: &Arc<SimObjectStore>) -> ClusterSpec {
    let mut spec = ClusterSpec {
        delta: Duration::from_millis(80),
        client_retry: Duration::from_millis(20),
        client_max_retry: Duration::from_millis(200),
        ..ClusterSpec::single_shard()
    };
    let mut tier = TierConfig::new(store.clone());
    tier.segment_records = 32; // several segments per round, not one blob
    spec.storage.tier = Some(tier);
    spec
}

fn workload() -> WorkloadConfig {
    WorkloadConfig {
        clients: 3,
        colors: vec![RED],
        seed: 0, // overridden by the harness with the run seed
        multi_appends: false,
        trims: true, // client trims ride the same archive gate
        think_time: Duration::from_millis(5),
    }
}

/// A driver that runs the declarative tiering loop for most of the run:
/// every tick re-observes span sizes and actuates archive rounds on the
/// hosting replicas. Errors are ignored — under fire a round may time
/// out against a crashed replica; the next tick retries.
fn tiering_driver() -> ReconfigFn {
    Box::new(|cluster: &FlexLogCluster| {
        let mut plane = ControlPlane::new(cluster);
        plane.timeout = Duration::from_millis(400);
        let config = ControlConfig {
            policy: Policy::parse("when span >= 16 then archive keep=8 max=4096")
                .expect("valid policy"),
            min_observation: Duration::from_millis(5),
            max_actions_per_tick: 2,
        };
        let mut control = ControlLoop::new(plane, config, Instant::now());
        for _ in 0..40 {
            let _ = control.tick(Instant::now());
            std::thread::sleep(Duration::from_millis(20));
        }
    })
}

/// Asserts the run actually exercised the archiver (a nemesis scenario
/// that never archives proves nothing).
fn archived_something() -> PostCheckFn {
    Box::new(|cluster: &FlexLogCluster| {
        let snap = cluster.obs().snapshot();
        let segments = snap.counters.get("storage.archived_segments").copied().unwrap_or(0);
        if segments == 0 {
            vec!["expected at least one archived segment during the run".into()]
        } else {
            Vec::new()
        }
    })
}

/// Scenario 1: a storage replica power-fails mid-archive-round and later
/// restarts (recovering from PM/SSD media; its manifest cache reloads
/// lazily from the shared store). The §7 invariants must hold, and the
/// surviving replicas must keep archiving through the crash window.
#[test]
fn storage_crash_mid_archive_round() {
    let seed = seed_from_env(0x71E_0001);
    let store = store();
    let spec = tiered_spec(&store);
    let victim = {
        let probe = FlexLogCluster::start(spec.clone());
        let node = probe.data().shard_replicas(ShardId(0))[1];
        probe.shutdown();
        node
    };
    // The probe cluster archived nothing, but its devices are gone; reuse
    // of the store is harmless (fresh run, same empty bucket).

    let mut options = ChaosOptions::new(seed);
    options.spec = spec;
    options.workload = workload();
    options.scripted = Some(FaultPlan::scripted(
        seed,
        vec![
            // The driver starts ticking at 100 ms; by 300 ms archive
            // rounds are in flight on all three replicas.
            FaultEvent {
                at: Duration::from_millis(300),
                kind: FaultKind::CrashReplica { node: victim },
            },
            FaultEvent {
                at: Duration::from_millis(700),
                kind: FaultKind::RestartReplica { node: victim },
            },
        ],
    ));
    options.reconfig = Some((Duration::from_millis(100), tiering_driver()));
    options.object_store = Some(store);
    options.post = Some(archived_something());
    options.duration = Duration::from_millis(1500);
    options.settle = Duration::from_millis(700);

    let report = run_chaos(options);
    assert!(
        report.ok_appends > 0,
        "appends must make progress around the archive crash window: {report:?}"
    );
}

/// Scenario 2: the object store goes dark across several trim and
/// archive rounds, then heals. While dark, trims must stop releasing
/// bytes (nothing new is durable below) and reads degrade to the live
/// tiers; after the heal, archiving resumes. Nothing acked is lost.
#[test]
fn object_store_outage_during_trims() {
    let seed = seed_from_env(0x71E_0002);
    let store = store();

    let mut options = ChaosOptions::new(seed);
    options.spec = tiered_spec(&store);
    options.workload = workload();
    options.scripted = Some(FaultPlan::scripted(
        seed,
        vec![
            FaultEvent {
                at: Duration::from_millis(200),
                kind: FaultKind::ObjectStoreOutage,
            },
            FaultEvent {
                at: Duration::from_millis(700),
                kind: FaultKind::ObjectStoreHeal,
            },
        ],
    ));
    options.reconfig = Some((Duration::from_millis(100), tiering_driver()));
    options.object_store = Some(store);
    options.post = Some(archived_something());
    options.duration = Duration::from_millis(1500);
    options.settle = Duration::from_millis(700);

    let report = run_chaos(options);
    assert!(
        report.ok_appends > 0,
        "appends must ride out the object-store outage: {report:?}"
    );
}
