//! The nemesis harness: runs a fault plan against a live cluster under
//! concurrent client load, then checks the recorded history.
//!
//! Lifecycle of [`run_chaos`]:
//!
//! 1. start a [`FlexLogCluster`] and register the workload's colors;
//! 2. extract [`PlanTargets`] from the live topology and generate the
//!    [`FaultPlan`] from the seed (or take a scripted plan as-is);
//! 3. spawn the workload clients and the nemesis thread, which sleeps
//!    between events and injects each fault at its planned offset;
//! 4. stop the workload, let the cluster settle (every plan ends healed),
//!    subscribe each color from a fresh client for the quiescent truth;
//! 5. run the [`HistoryChecker`]; on any violation, panic with the seed
//!    and the full plan so the failure can be replayed exactly via
//!    `FLEXLOG_CHAOS_SEED=<seed>`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use flexlog_core::{FlexLog, FlexLogCluster, ClusterSpec};
use flexlog_ctrl::ControlPlane;
use flexlog_types::{ColorId, SeqNum};

use crate::history::{History, HistoryChecker, OpKind};
use crate::plan::{FaultKind, FaultPlan, PlanConfig, PlanTargets};
use crate::workload::{Workload, WorkloadConfig};

/// A mid-run reconfiguration driver (see [`ChaosOptions::reconfig`]).
pub type ReconfigFn = Box<dyn FnOnce(&FlexLogCluster) + Send>;

/// A post-run invariant check (see [`ChaosOptions::post`]): runs against
/// the quiescent cluster after the history checker and returns extra
/// violations (empty = pass).
pub type PostCheckFn = Box<dyn FnOnce(&FlexLogCluster) -> Vec<String> + Send>;

/// Everything a chaos run needs. `seed` drives both the fault plan and the
/// workload's operation mix.
pub struct ChaosOptions {
    pub seed: u64,
    pub spec: ClusterSpec,
    pub workload: WorkloadConfig,
    pub plan_config: PlanConfig,
    /// Pin an exact timeline instead of generating one from the seed
    /// (scenario tests use this to aim a fault at a precise moment).
    pub scripted: Option<FaultPlan>,
    /// Optional control-plane activity during the run: the driver is
    /// invoked once, on its own thread, `offset` after the workload
    /// starts. Migration-safety scenarios use this to open a
    /// reconfiguration window and aim faults into it.
    pub reconfig: Option<(Duration, ReconfigFn)>,
    /// Scenario-specific invariants checked on the quiescent cluster after
    /// the workload stops and the §7 history checker runs (controller-crash
    /// scenarios assert "no color left frozen", recovery-counter
    /// consistency, topology shape). Violations merge into the same
    /// panic-with-plan report.
    pub post: Option<PostCheckFn>,
    /// The simulated object store backing the cluster's cold tier, when
    /// the spec configures one. The nemesis flips its availability on
    /// [`FaultKind::ObjectStoreOutage`] / [`FaultKind::ObjectStoreHeal`]
    /// directly (the `ObjectStore` trait has no fault surface — only the
    /// simulation does).
    pub object_store: Option<std::sync::Arc<flexlog_tier::SimObjectStore>>,
    /// How long the workload runs. Must cover the plan's horizon, or late
    /// faults fire against an idle cluster.
    pub duration: Duration,
    /// Quiesce time between stopping the workload and taking the final
    /// snapshot, so in-flight recoveries (sync phase, elections) finish.
    pub settle: Duration,
}

impl ChaosOptions {
    pub fn new(seed: u64) -> Self {
        ChaosOptions {
            seed,
            spec: ClusterSpec::single_shard(),
            workload: WorkloadConfig::default(),
            plan_config: PlanConfig::default(),
            scripted: None,
            reconfig: None,
            post: None,
            object_store: None,
            duration: Duration::from_millis(1500),
            settle: Duration::from_millis(500),
        }
    }
}

/// What a (passing) chaos run observed.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    pub seed: u64,
    pub plan: FaultPlan,
    /// Total operations the workload issued.
    pub operations: usize,
    /// Appends that returned `Ok` (including multi-appends).
    pub ok_appends: usize,
    /// Operations that returned an error (expected under faults).
    pub errors: usize,
    /// Highest sequencer epoch seen in any committed SN — `> 1` proves a
    /// fail-over happened during the run.
    pub max_epoch: u32,
    /// Records per color in the final quiescent logs.
    pub final_sizes: HashMap<ColorId, usize>,
    /// Flight-recorder ring occupancy at shutdown (must be ≤ capacity).
    pub trace_events: usize,
    /// Flight-recorder ring capacity.
    pub trace_capacity: usize,
    /// Trace events evicted because the ring was full.
    pub trace_dropped: u64,
}

/// Seed for a chaos run: `FLEXLOG_CHAOS_SEED` (decimal or `0x…` hex) if
/// set, otherwise `default`. Setting the variable replays the exact fault
/// schedule a failing run printed.
pub fn seed_from_env(default: u64) -> u64 {
    match std::env::var("FLEXLOG_CHAOS_SEED") {
        Ok(raw) => {
            let s = raw.trim();
            let parsed = if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
                u64::from_str_radix(hex, 16)
            } else {
                s.parse::<u64>()
            };
            parsed.unwrap_or_else(|_| {
                panic!("FLEXLOG_CHAOS_SEED={raw:?} is not a decimal or 0x-hex u64")
            })
        }
        Err(_) => default,
    }
}

/// Runs one chaos experiment end to end. Panics (with seed + plan) on any
/// invariant violation; returns a [`ChaosReport`] otherwise.
pub fn run_chaos(options: ChaosOptions) -> ChaosReport {
    let mut options = options;
    let reconfig = options.reconfig.take();
    let post = options.post.take();
    let cluster = FlexLogCluster::start(options.spec.clone());
    for &color in &options.workload.colors {
        // Colors may collide with ones the spec pre-registered.
        let _ = cluster.add_color(color);
    }

    let targets = PlanTargets {
        shards: cluster
            .data()
            .topology
            .all_shards()
            .into_iter()
            .map(|s| (s.id, s.replicas.to_vec()))
            .collect(),
        leaf_roles: cluster.leaf_roles(),
    };
    let plan = options
        .scripted
        .clone()
        .unwrap_or_else(|| FaultPlan::generate(options.seed, &targets, &options.plan_config));

    let mut workload = options.workload.clone();
    workload.seed = options.seed;

    // Handles must exist before the scope so threads can take ownership.
    let handles: Vec<FlexLog> = (0..workload.clients).map(|_| cluster.handle()).collect();

    let t0 = Instant::now();
    let history = History::new(t0);
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        for (i, handle) in handles.into_iter().enumerate() {
            let workload = &workload;
            let history = &history;
            let stop = &stop;
            scope.spawn(move || {
                Workload::run_client(workload, i as u32, handle, history, stop);
            });
        }

        // The nemesis itself.
        let cluster = &cluster;
        let plan_ref = &plan;
        let object_store = &options.object_store;
        scope.spawn(move || {
            let net = cluster.network();
            for event in &plan_ref.events {
                let target = t0 + event.at;
                let now = Instant::now();
                if target > now {
                    std::thread::sleep(target - now);
                }
                match &event.kind {
                    FaultKind::CrashReplica { node } => {
                        cluster.data().crash_replica(net, *node);
                    }
                    FaultKind::RestartReplica { node } => {
                        cluster.data().restart_replica(net, cluster.directory(), *node);
                    }
                    FaultKind::CrashSequencer { role } => {
                        cluster.ordering().crash_leader(net, *role);
                    }
                    FaultKind::PartitionShard { replicas, .. } => {
                        // `partition()` only separates nodes it knows about;
                        // dynamically registered clients would still get
                        // through. Isolation cuts the replicas off from
                        // everyone, clients included.
                        for &n in replicas {
                            net.isolate(n);
                        }
                    }
                    FaultKind::CrashController => {
                        cluster.crash_controller();
                    }
                    FaultKind::RestartController => {
                        // A successor attaches to the surviving intent WAL,
                        // fences the zombie generation, and rolls every
                        // in-flight reconfiguration forward or back before
                        // this call returns.
                        let _ = ControlPlane::recover(cluster);
                    }
                    FaultKind::CrashReadReplica { node } => {
                        cluster.data().crash_replica(net, *node);
                    }
                    FaultKind::RestartReadReplica { node } => {
                        cluster.data().restart_replica(net, cluster.directory(), *node);
                    }
                    FaultKind::ObjectStoreOutage => {
                        if let Some(store) = object_store {
                            store.set_outage(true);
                        }
                    }
                    FaultKind::ObjectStoreHeal => {
                        if let Some(store) = object_store {
                            store.set_outage(false);
                        }
                    }
                    FaultKind::Heal => net.heal(),
                }
            }
        });

        // Mid-run reconfiguration (control-plane activity under fire).
        if let Some((at, driver)) = reconfig {
            scope.spawn(move || {
                let target = t0 + at;
                let now = Instant::now();
                if target > now {
                    std::thread::sleep(target - now);
                }
                driver(cluster);
            });
        }

        std::thread::sleep(options.duration);
        stop.store(true, Ordering::Relaxed);
    });

    // All faults are healed by now (plans end with recoveries inside the
    // horizon); give elections and sync phases time to finish.
    std::thread::sleep(options.settle);

    let observations = history.snapshot();
    let mut final_logs: HashMap<ColorId, Vec<(SeqNum, Vec<u8>)>> = HashMap::new();
    let mut violations: Vec<String> = Vec::new();
    let mut reader = cluster.handle();
    for &color in &workload.colors {
        match final_snapshot(&mut reader, color) {
            Ok(log) => {
                final_logs.insert(color, log);
            }
            Err(e) => {
                violations.push(format!(
                    "cluster did not quiesce: final subscribe of {color} kept failing: {e}"
                ));
                final_logs.insert(color, Vec::new());
            }
        }
    }

    violations.extend(HistoryChecker::new(&observations, &final_logs).check());
    if let Some(post) = post {
        violations.extend(post(&cluster));
    }
    if !violations.is_empty() {
        let shown = violations.iter().take(20).cloned().collect::<Vec<_>>();
        panic!(
            "chaos run found {} invariant violation(s):\n  {}\n{}\n{}",
            violations.len(),
            shown.join("\n  "),
            plan,
            incomplete_token_traces(&cluster),
        );
    }

    let mut report = ChaosReport {
        seed: options.seed,
        plan,
        operations: observations.len(),
        ok_appends: 0,
        errors: 0,
        max_epoch: 0,
        final_sizes: final_logs.iter().map(|(c, l)| (*c, l.len())).collect(),
        trace_events: cluster.obs().tracer().len(),
        trace_capacity: cluster.obs().tracer().capacity(),
        trace_dropped: cluster.obs().tracer().dropped(),
    };
    for o in &observations {
        let (ok_append, err, sn) = match &o.kind {
            OpKind::Append { result, .. } => {
                (result.is_ok(), result.is_err(), result.ok())
            }
            OpKind::MultiAppend { result, .. } => (result.is_ok(), result.is_err(), None),
            OpKind::Subscribe { records, .. } => (false, records.is_err(), None),
            OpKind::Read { value, .. } => (false, value.is_err(), None),
            OpKind::Trim { ok, .. } => (false, !ok, None),
        };
        if ok_append {
            report.ok_appends += 1;
        }
        if err {
            report.errors += 1;
        }
        if let Some(sn) = sn {
            report.max_epoch = report.max_epoch.max(sn.epoch().0);
        }
    }
    for log in final_logs.values() {
        for (sn, _) in log {
            report.max_epoch = report.max_epoch.max(sn.epoch().0);
        }
    }

    cluster.shutdown();
    report
}

/// Flight-recorder context for a failed run: the traces of appends that
/// were sent but never acked, i.e. the tokens whose span chains stalled
/// somewhere between the client and the storage tier. Capped so a mass
/// outage does not drown the violation report.
fn incomplete_token_traces(cluster: &FlexLogCluster) -> String {
    use flexlog_core::{Stage, CTRL_TOKEN, SYNC_TOKEN};

    const MAX_TRACES: usize = 10;
    let mut sent: HashMap<flexlog_core::Token, bool> = HashMap::new();
    for e in cluster.obs().tracer().all_events() {
        if e.token == SYNC_TOKEN || e.token == CTRL_TOKEN {
            continue;
        }
        match e.stage {
            Stage::ClientSend => {
                sent.entry(e.token).or_insert(false);
            }
            Stage::ClientAck => {
                sent.insert(e.token, true);
            }
            _ => {}
        }
    }
    let mut incomplete: Vec<flexlog_core::Token> = sent
        .into_iter()
        .filter(|&(_, acked)| !acked)
        .map(|(t, _)| t)
        .collect();
    incomplete.sort_unstable();
    if incomplete.is_empty() {
        return "flight recorder: every sent append was acked".into();
    }
    let total = incomplete.len();
    let mut out = format!("flight recorder: {total} append(s) sent but never acked");
    if total > MAX_TRACES {
        out.push_str(&format!(" (showing first {MAX_TRACES})"));
    }
    out.push('\n');
    for token in incomplete.into_iter().take(MAX_TRACES) {
        out.push_str(&cluster.trace(token).render());
    }
    out
}

/// The quiescent truth for one color. Retries because the first subscribe
/// after a heavy fault window may still race a recovering replica.
fn final_snapshot(
    handle: &mut FlexLog,
    color: ColorId,
) -> Result<Vec<(SeqNum, Vec<u8>)>, flexlog_replication::ClientError> {
    let mut last_err = flexlog_replication::ClientError::Timeout;
    for attempt in 0..5 {
        match handle.subscribe(color) {
            Ok(records) => {
                return Ok(records.into_iter().map(|r| (r.sn, r.payload.to_vec())).collect())
            }
            Err(e) => {
                last_err = e;
                std::thread::sleep(Duration::from_millis(100 * (attempt + 1)));
            }
        }
    }
    Err(last_err)
}
