//! The reconfiguration actuator: epoch-fenced color create/destroy, shard
//! scale-out with color migration, and sequencer-tree splits.
//!
//! Every reconfiguration is crash-recoverable: intent and per-phase
//! progress are logged to the durable [`IntentWal`] before/after each
//! phase takes effect, and [`ControlPlane::recover`] rolls in-flight
//! operations forward (past the point of no return) or back. Mutating
//! control messages carry the controller generation; replicas and
//! sequencers nack anything from a superseded (zombie) controller.

use std::fmt;
use std::time::{Duration, Instant};

use flexlog_core::{ColorError, FlexLogCluster};
use flexlog_obs::{Counter, Stage, CTRL_TOKEN};
use flexlog_ordering::{Change, OrderMsg, RoleId};
use flexlog_replication::{ClusterMsg, CtrlCmd, CtrlMsg, DataMsg, ShardInfo, SyncMsg};
use flexlog_simnet::{Endpoint, NodeId, RecvError};
use flexlog_types::{ColorId, Epoch, ShardId};

use crate::wal::{CtrlPhase, IntentWal, OpKind};

/// Errors from control-plane operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CtrlError {
    /// Color administration failed (duplicate, unknown parent, ...).
    Color(ColorError),
    /// The color is not known to the deployment.
    UnknownColor(ColorId),
    /// The shard is not known to the deployment.
    UnknownShard(ShardId),
    /// No live leader for the sequencer role.
    NoLeader(RoleId),
    /// The leaf owns too few colors to split.
    NothingToSplit(RoleId),
    /// A fenced round did not complete within the control timeout. The
    /// string names the phase that stalled.
    Timeout(&'static str),
    /// The control endpoint lost its network.
    Disconnected,
    /// This controller crashed mid-operation (injected or real). The
    /// operation's fate is decided by the next controller's recovery scan.
    Crashed,
    /// This controller's generation was superseded: a replica or sequencer
    /// nacked the command. A zombie must stop — the successor owns every
    /// in-flight operation now.
    Fenced,
}

impl fmt::Display for CtrlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CtrlError::Color(e) => write!(f, "color admin: {e}"),
            CtrlError::UnknownColor(c) => write!(f, "unknown color {c}"),
            CtrlError::UnknownShard(s) => write!(f, "unknown shard {s:?}"),
            CtrlError::NoLeader(r) => write!(f, "no leader for {r:?}"),
            CtrlError::NothingToSplit(r) => write!(f, "{r:?} owns too few colors to split"),
            CtrlError::Timeout(phase) => write!(f, "control round timed out: {phase}"),
            CtrlError::Disconnected => write!(f, "control endpoint disconnected"),
            CtrlError::Crashed => write!(f, "controller crashed mid-operation"),
            CtrlError::Fenced => write!(f, "controller generation superseded"),
        }
    }
}

impl std::error::Error for CtrlError {}

impl From<ColorError> for CtrlError {
    fn from(e: ColorError) -> Self {
        CtrlError::Color(e)
    }
}

/// What a controller restart found and did (see [`ControlPlane::recover`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Operations found without a terminal WAL record.
    pub in_flight: usize,
    /// Completed on the new controller's behalf (past the point of no
    /// return when the old one died).
    pub rolled_forward: usize,
    /// Fully reverted (unfrozen, partial imports discarded).
    pub rolled_back: usize,
}

/// Which way one in-flight operation was resolved.
enum Recovered {
    Forward,
    Back,
}

/// The reconfiguration actuator over a running cluster. One instance per
/// deployment *generation*; operations are synchronous and fenced (each
/// returns only once the new configuration is in force everywhere it
/// matters). Constructing a plane durably bumps the controller generation,
/// turning every earlier plane on the same cluster into a fenced zombie.
pub struct ControlPlane<'a> {
    cluster: &'a FlexLogCluster,
    ep: Endpoint<ClusterMsg>,
    req: u64,
    /// This controller's fencing token, carried on every mutating message.
    generation: u64,
    /// Durable intent log; every reconfiguration brackets its phases here.
    wal: IntentWal,
    /// Test hook: crash this controller right after the given phase's WAL
    /// record persists (the operation's effects up to and including that
    /// phase are real; everything after never happens). Consumed on fire.
    pub crash_after: Option<CtrlPhase>,
    /// Per-phase bound on fenced rounds (acks, drains, epoch bumps).
    pub timeout: Duration,
    /// A migration freezes only once the pre-freeze catch-up delta drops
    /// to at most this many records — the freeze-window copy is then O(1)
    /// in the span size. Set to 0 to force the maximum number of rounds
    /// (tests use this to hold the catch-up window open).
    pub catchup_threshold: usize,
    /// Hard cap on catch-up rounds: under a write rate the copy cannot
    /// outrun, the delta never converges and the migration must freeze
    /// with whatever residual remains rather than loop forever.
    pub max_catchup_rounds: u32,
    colors_created: Counter,
    colors_destroyed: Counter,
    shards_added: Counter,
    migrations: Counter,
    migration_aborts: Counter,
    leaf_splits: Counter,
    epoch_bumps: Counter,
    catchup_rounds: Counter,
    catchup_records: Counter,
    final_sliver_records: Counter,
    unfreeze_retries: Counter,
    recovery_scans: Counter,
    recovery_rolled_forward: Counter,
    recovery_rolled_back: Counter,
}

impl<'a> ControlPlane<'a> {
    /// Attaches a control plane to `cluster`. Registers one control node
    /// on the simulated network and durably bumps the controller
    /// generation. Equivalent to [`ControlPlane::recover`] with the report
    /// dropped — on a fresh cluster the recovery scan finds nothing.
    pub fn new(cluster: &'a FlexLogCluster) -> Self {
        Self::recover(cluster).0
    }

    /// Starts a controller as the *successor* of whatever controller ran
    /// before (possibly none): durably bumps the generation in the shared
    /// intent WAL (fencing every predecessor), announces itself to the
    /// replicas, then scans the WAL and resolves every operation that was
    /// in flight when the predecessor died — forward past the point of no
    /// return (the destination provably holds every committed record),
    /// back otherwise (retry-until-acked unfreeze + discard of the partial
    /// copy). An operation whose resolution round fails stays in the WAL
    /// for the *next* recovery.
    pub fn recover(cluster: &'a FlexLogCluster) -> (Self, RecoveryReport) {
        let (wal, generation) = IntentWal::attach(cluster.ctrl_wal());
        cluster.note_ctrl_generation(generation);
        // A per-generation endpoint: a successor must never consume acks
        // addressed to its crashed predecessor (and the predecessor's node
        // may already be crashed on the simulated network).
        let ep = cluster
            .network()
            .register(FlexLogCluster::ctrl_node(generation));
        let obs = cluster.obs();
        let mut plane = ControlPlane {
            cluster,
            ep,
            req: 0,
            generation,
            wal,
            crash_after: None,
            timeout: Duration::from_secs(5),
            catchup_threshold: 64,
            max_catchup_rounds: 16,
            colors_created: obs.counter("ctrl.colors_created"),
            colors_destroyed: obs.counter("ctrl.colors_destroyed"),
            shards_added: obs.counter("ctrl.shards_added"),
            migrations: obs.counter("ctrl.migrations"),
            migration_aborts: obs.counter("ctrl.migration_aborts"),
            leaf_splits: obs.counter("ctrl.leaf_splits"),
            epoch_bumps: obs.counter("ctrl.epoch_bumps"),
            catchup_rounds: obs.counter("ctrl.catchup_rounds"),
            catchup_records: obs.counter("ctrl.catchup_records"),
            final_sliver_records: obs.counter("ctrl.final_sliver_records"),
            unfreeze_retries: obs.counter("ctrl.unfreeze_retries"),
            recovery_scans: obs.counter("ctrl.recovery.scans"),
            recovery_rolled_forward: obs.counter("ctrl.recovery.rolled_forward"),
            recovery_rolled_back: obs.counter("ctrl.recovery.rolled_back"),
        };
        plane.hello();
        let report = plane.recover_in_flight();
        (plane, report)
    }

    /// The cluster this control plane drives.
    pub fn cluster(&self) -> &'a FlexLogCluster {
        self.cluster
    }

    /// This controller's fencing token.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Whether this controller is still the live one on its cluster (its
    /// node has not been crashed). A dead controller must not touch the
    /// WAL or the network — its successor owns every in-flight operation.
    fn alive(&self) -> bool {
        self.generation > self.cluster.ctrl_killed_generation()
    }

    /// Crash-injection hook: fires when `crash_after` names this phase.
    /// The controller's node dies on the network and the operation's
    /// in-memory state is abandoned exactly as a real crash would leave it
    /// — the WAL record of `phase` is already durable.
    fn maybe_crash(&mut self, phase: CtrlPhase) -> Result<(), CtrlError> {
        if self.crash_after == Some(phase) {
            self.crash_after = None;
            self.cluster.crash_controller();
            return Err(CtrlError::Crashed);
        }
        Ok(())
    }

    /// Logs `phase` complete, then honors any injected crash at it.
    fn wal_phase(&mut self, op: u64, phase: CtrlPhase) -> Result<(), CtrlError> {
        self.wal.phase(op, phase);
        self.maybe_crash(phase)
    }

    /// Failure epilogue of a WAL-logged operation: aborts the intent and
    /// (for migrations) restores source availability — unless this
    /// controller is dead or fenced, in which case the successor owns the
    /// cleanup and we must touch nothing.
    fn fail_op(
        &mut self,
        op: u64,
        e: CtrlError,
        unfreeze: Option<(&[NodeId], ColorId)>,
    ) -> CtrlError {
        if e == CtrlError::Crashed || !self.alive() {
            return CtrlError::Crashed;
        }
        if e != CtrlError::Fenced {
            if let Some((nodes, color)) = unfreeze {
                self.abort_unfreeze(nodes, color);
            }
        }
        self.wal.abort(op);
        e
    }

    /// Announces this generation to every replica so the fencing floor
    /// rises cluster-wide even before the first command. Best-effort with
    /// a short bound: a replica that misses the hello still fences on the
    /// first real command it sees from this generation.
    fn hello(&mut self) {
        let mut nodes: Vec<NodeId> = self
            .cluster
            .catalog()
            .all_shards()
            .iter()
            .flat_map(|s| s.replicas.iter().copied())
            .collect();
        let deadline = Instant::now() + self.timeout.min(Duration::from_millis(250));
        let _ = self.ctrl_round_until(&mut nodes, CtrlCmd::Hello, deadline, "hello");
    }

    // ----- recovery scan ---------------------------------------------------

    /// Resolves every operation the WAL holds without a terminal record.
    /// Decision table (see DESIGN.md "Control-plane recovery"):
    ///
    /// | kind     | condition                         | action       |
    /// |----------|-----------------------------------|--------------|
    /// | Migrate  | phase ≥ Copied                    | roll forward |
    /// | Migrate  | otherwise                         | roll back    |
    /// | ScaleOut | always (orphan shard is harmless) | roll back    |
    /// | Split    | new leaf live in the directory    | roll forward |
    /// | Split    | otherwise                         | roll back    |
    fn recover_in_flight(&mut self) -> RecoveryReport {
        self.recovery_scans.add(1);
        let open = self.wal.in_flight();
        let mut report = RecoveryReport {
            in_flight: open.len(),
            ..Default::default()
        };
        for item in open {
            let outcome = match &item.kind {
                OpKind::Migrate { color, dest, sources } => {
                    // Point of no return: `Copied` means the destination
                    // provably held every committed record (digest-checked)
                    // under the epoch fence — finishing is both safe and
                    // cheaper than re-shipping later.
                    if item.phase >= Some(CtrlPhase::Copied) {
                        self.roll_forward_migration(item.op, *color, *dest, sources)
                    } else {
                        self.roll_back_migration(item.op, *color, *dest, sources)
                    }
                }
                OpKind::ScaleOut { .. } => {
                    // Whether or not the shard spawned before the crash, an
                    // empty shard serves no colors — nothing to undo.
                    self.wal.abort(item.op);
                    Ok(Recovered::Back)
                }
                OpKind::Split { donor, new_role, moved } => {
                    self.recover_split(item.op, *donor, *new_role, moved)
                }
            };
            match outcome {
                Ok(Recovered::Forward) => {
                    report.rolled_forward += 1;
                    self.recovery_rolled_forward.add(1);
                    self.cluster.obs().trace_event(
                        CTRL_TOKEN,
                        Stage::CtrlRecover,
                        self.ep.id().0,
                        item.op,
                    );
                }
                Ok(Recovered::Back) => {
                    report.rolled_back += 1;
                    self.recovery_rolled_back.add(1);
                    self.cluster.obs().trace_event(
                        CTRL_TOKEN,
                        Stage::CtrlRecover,
                        self.ep.id().0,
                        item.op,
                    );
                }
                Err(_) => {
                    // The resolution round itself failed (e.g. a replica
                    // down past the timeout). The intent stays in the WAL;
                    // the next recovery scan retries it.
                }
            }
        }
        report
    }

    /// Finishes a migration whose predecessor died past the point of no
    /// return: re-issues adopt and cutover (idempotent on the replicas)
    /// and publishes the route. The WAL's `Begin` record supplies the
    /// source list — the crashed controller may already have moved the
    /// color in the catalog.
    fn roll_forward_migration(
        &mut self,
        op: u64,
        color: ColorId,
        dest: ShardId,
        sources: &[ShardId],
    ) -> Result<Recovered, CtrlError> {
        let dest_info = self
            .cluster
            .catalog()
            .shard(dest)
            .ok_or(CtrlError::UnknownShard(dest))?;
        self.ctrl_round(
            &dest_info.replicas,
            CtrlCmd::Adopt(color),
            "recover-adopt",
        )?;
        self.cluster.catalog().apply(Change::MoveColor { color, dest })?;
        let src_nodes: Vec<NodeId> = sources
            .iter()
            .filter_map(|&s| self.cluster.catalog().shard(s))
            .flat_map(|s| s.replicas.to_vec())
            .collect();
        if !src_nodes.is_empty() {
            self.ctrl_round(
                &src_nodes,
                CtrlCmd::Cutover(color),
                "recover-cutover",
            )?;
        }
        self.wal.commit(op);
        self.migrations.add(1);
        Ok(Recovered::Forward)
    }

    /// Reverts a migration that died before the point of no return:
    /// unfreezes the sources (always — a failed freeze round may have
    /// frozen a subset even when no `Frozen` record persisted) and
    /// discards whatever the destination partially copied. The epoch
    /// bump, if it happened, stays — a bumped epoch only fences harder
    /// and never breaks SN monotonicity.
    fn roll_back_migration(
        &mut self,
        op: u64,
        color: ColorId,
        dest: ShardId,
        sources: &[ShardId],
    ) -> Result<Recovered, CtrlError> {
        let src_nodes: Vec<NodeId> = sources
            .iter()
            .filter_map(|&s| self.cluster.catalog().shard(s))
            .flat_map(|s| s.replicas.to_vec())
            .collect();
        self.abort_unfreeze(&src_nodes, color);
        if let Some(dest_info) = self.cluster.catalog().shard(dest) {
            self.ctrl_round(
                &dest_info.replicas,
                CtrlCmd::Discard(color),
                "recover-discard",
            )?;
        }
        self.wal.abort(op);
        Ok(Recovered::Back)
    }

    /// Resolves an in-flight leaf split. Forward iff the new leaf is live
    /// in the directory (the spawn is the split's point of no return — the
    /// catalog's `Split` is idempotent metadata); otherwise nothing
    /// observable happened and the intent aborts after the swapped `Split`
    /// makes sure no color points at the ghost role.
    fn recover_split(
        &mut self,
        op: u64,
        donor: RoleId,
        new_role: RoleId,
        moved: &[ColorId],
    ) -> Result<Recovered, CtrlError> {
        let moved = moved.to_vec();
        if self.cluster.directory().get(new_role).is_some() {
            self.cluster.catalog().apply(Change::Split { donor, new_role, moved })?;
            self.leaf_splits.add(1);
            self.wal.commit(op);
            Ok(Recovered::Forward)
        } else {
            let back = Change::Split { donor: new_role, new_role: donor, moved };
            self.cluster.catalog().apply(back)?;
            self.wal.abort(op);
            Ok(Recovered::Back)
        }
    }

    fn next_req(&mut self) -> u64 {
        self.req += 1;
        // Namespace control requests away from client request ids.
        (0xC7u64 << 56) | self.req
    }

    // ----- color create / destroy ---------------------------------------

    /// Creates `color` as a sub-region of `parent` at runtime. Purely a
    /// metadata operation: sequencers consult the catalog on every flush
    /// and clients re-resolve routes from it, so the color is appendable
    /// the moment this returns.
    pub fn create_color(&mut self, color: ColorId, parent: ColorId) -> Result<(), CtrlError> {
        self.cluster.colors().add_color(color, parent)?;
        self.colors_created.add(1);
        Ok(())
    }

    /// Destroys `color`: drops it from the catalog — in that one write its
    /// sequencer stops ordering it and clients stop routing to it — then
    /// fences every replica that hosted it (appends still in flight there
    /// nack with `Dropped`, a terminal client error).
    pub fn destroy_color(&mut self, color: ColorId) -> Result<(), CtrlError> {
        let shards = self.cluster.catalog().shards_of(color);
        self.cluster.catalog().apply(Change::DropColor { color })?;
        let nodes: Vec<NodeId> = shards.iter().flat_map(|s| s.replicas.iter().copied()).collect();
        if !nodes.is_empty() {
            self.ctrl_round(&nodes, CtrlCmd::Drop(color), "drop")?;
        }
        self.colors_destroyed.add(1);
        Ok(())
    }

    // ----- shard scale-out ----------------------------------------------

    /// Spawns a brand-new empty shard attached to `leaf` (elastic
    /// scale-out). Colors land on it via [`ControlPlane::migrate_color`]
    /// or subsequent color creation in the leaf's region.
    pub fn add_shard(&mut self, leaf: RoleId) -> ShardInfo {
        // WAL-bracketed for uniformity; recovery of a dangling scale-out
        // is a plain abort (an orphan empty shard serves nothing). No
        // crash injection here — the interesting windows are migration's.
        let op = self.wal.begin(&OpKind::ScaleOut { leaf });
        let info = self.cluster.add_shard(leaf);
        self.shards_added.add(1);
        self.wal.commit(op);
        info
    }

    // ----- color migration ----------------------------------------------

    /// Migrates `color` onto shard `dest`: chained catch-up rounds (the
    /// destinations pull the bulk while the sources keep serving) → freeze
    /// → drain-staged → epoch bump → last, exact catch-up round → adopt →
    /// cutover. No record passes through the controller: it says who
    /// copies from whom and when, and counts what the destinations report.
    ///
    /// The freeze window copies only the residual above each destination's
    /// cursor (at most [`ControlPlane::catchup_threshold`] records plus
    /// whatever committed during the last round), so the append stall is
    /// O(threshold), independent of the span size.
    ///
    /// Invariants on return: every SN committed under the old shards is
    /// readable from `dest` (tokens travel with records, so post-cutover
    /// retries of pre-migration appends re-ack idempotently), and the
    /// per-color total order is unbroken — the bumped epoch makes every
    /// post-migration SN larger than every pre-migration SN.
    ///
    /// On failure the migration aborts: sources are unfrozen (retried
    /// with acks until every live source confirms) and the old
    /// configuration stays in force. Records cold-copied by completed
    /// catch-up rounds stay at the destination — harmless (it does not
    /// serve the color) and they make a retried migration cheaper.
    pub fn migrate_color(&mut self, color: ColorId, dest: ShardId) -> Result<(), CtrlError> {
        if !self.alive() {
            return Err(CtrlError::Crashed);
        }
        if !self.cluster.colors().exists(color) {
            return Err(CtrlError::UnknownColor(color));
        }
        let catalog = self.cluster.catalog();
        let dest_info = catalog.shard(dest).ok_or(CtrlError::UnknownShard(dest))?;
        let sources: Vec<ShardInfo> = catalog
            .shards_of(color)
            .into_iter()
            .filter(|s| s.id != dest)
            .collect();
        if sources.is_empty() {
            // Already exactly where it should be.
            return Ok(());
        }
        let src_nodes: Vec<NodeId> = sources.iter().flat_map(|s| s.replicas.iter().copied()).collect();

        // Durable intent first: from here a controller crash leaves a WAL
        // trail recovery can classify.
        let op = self.wal.begin(&OpKind::Migrate {
            color,
            dest,
            sources: sources.iter().map(|s| s.id).collect(),
        });
        self.maybe_crash(CtrlPhase::Begun)?;

        // Phase 0: catch-up. The destinations copy the span in rounds while
        // the sources keep admitting appends — no freeze, no availability
        // cost. Each round pulls the delta above the destination's cursor
        // for that source shard, cold; the delta shrinks geometrically as
        // long as the copy outruns the write rate. Errors here need no
        // unfreeze (nothing is frozen yet) and leave the old routing
        // untouched.
        if let Err(e) = self.catch_up(color, &sources, &dest_info) {
            return Err(self.fail_op(op, e, None));
        }
        self.wal_phase(op, CtrlPhase::CatchUp)?;

        // Phase 1: freeze. New appends of the color wait at the sources,
        // unstaged, until the cutover (or the abort's unfreeze) answers
        // them; already-staged batches keep draining.
        // A failed round may still have frozen a subset of the replicas —
        // the abort must unfreeze them or the color hangs forever.
        if let Err(e) = self.ctrl_round(
            &src_nodes,
            CtrlCmd::Freeze(color),
            "freeze",
        ) {
            return Err(self.fail_op(op, e, Some((&src_nodes, color))));
        }
        self.wal_phase(op, CtrlPhase::Frozen)?;

        match self.migrate_frozen(op, color, &sources, &src_nodes, &dest_info) {
            Ok(()) => {
                self.wal.commit(op);
                Ok(())
            }
            Err(e) => Err(self.fail_op(op, e, Some((&src_nodes, color)))),
        }
    }

    /// Runs one tiering round for `color` on every replica of its owning
    /// shard(s): archive the cold prefix (all but the newest `keep_tail`
    /// records, at most `max_records`) to the object store, or demote
    /// PM-resident records to the SSD when `demote` is set. Each replica
    /// moves its own bytes; segment chunking is deterministic, so the
    /// replicas upload byte-identical objects and the round is idempotent
    /// — no WAL intent is needed, a crashed round simply re-runs. Gen-
    /// fenced like every other control verb. Returns the most records any
    /// replica moved.
    pub fn archive_color(
        &mut self,
        color: ColorId,
        keep_tail: u64,
        max_records: u64,
        demote: bool,
    ) -> Result<u64, CtrlError> {
        if !self.alive() {
            return Err(CtrlError::Crashed);
        }
        if !self.cluster.colors().exists(color) {
            return Err(CtrlError::UnknownColor(color));
        }
        let nodes: Vec<NodeId> = self
            .cluster
            .catalog()
            .shards_of(color)
            .into_iter()
            .flat_map(|s| s.replicas.to_vec())
            .collect();
        self.ctrl_round(
            &nodes,
            CtrlCmd::Archive { color, keep_tail, max_records, demote },
            "archive",
        )
    }

    /// One catch-up round of `color` from source shard `shard`: every
    /// replica of `dest` pulls for itself and acks once level. They ask the
    /// shard's live replicas, the one holding most committed records first,
    /// so a lagging or freshly recovered replica is not the one copied from
    /// while a better one answers. Returns the records the round shipped —
    /// counted once, as the most any one destination replica reports new.
    fn catch_up_round(
        &mut self,
        dest: &ShardInfo,
        color: ColorId,
        shard: &ShardInfo,
        last: bool,
        deadline: Instant,
    ) -> Result<u64, CtrlError> {
        let mut ranked: Vec<(u64, NodeId)> = Vec::new();
        for &node in shard.replicas.iter() {
            // Short per-node probe so one crashed replica does not burn
            // the whole migration deadline — catch-up rounds repeat the
            // probe every round, so it is also capped by the timeout.
            let probe_window = Duration::from_millis(500).min(self.timeout / 4);
            let probe = (Instant::now() + probe_window).min(deadline);
            if let Ok((_, count)) = self.color_status(node, color, probe) {
                ranked.push((count, node));
            }
        }
        if ranked.is_empty() {
            return Err(CtrlError::Timeout("copy"));
        }
        ranked.sort_by_key(|&(count, _)| std::cmp::Reverse(count));
        let sources = ranked.into_iter().map(|(_, node)| node).collect();
        let cmd = CtrlCmd::CatchUp { color, shard: shard.id, sources, last };
        self.ctrl_round_until(&mut dest.replicas.to_vec(), cmd, deadline, "copy")
    }

    /// Phase 0 of a migration: pre-freeze catch-up rounds, until one ships
    /// no more than the threshold.
    fn catch_up(
        &mut self,
        color: ColorId,
        sources: &[ShardInfo],
        dest: &ShardInfo,
    ) -> Result<(), CtrlError> {
        // Overall budget across rounds: with a source replica crashed,
        // every round pays a probe timeout, and unbounded rounds would
        // stall the migration far past the operator's per-phase timeout.
        let budget = Instant::now() + self.timeout * 4;
        for _round in 0..self.max_catchup_rounds.max(1) {
            let deadline = (Instant::now() + self.timeout).min(budget);
            let mut shipped = 0;
            for shard in sources {
                shipped += self.catch_up_round(dest, color, shard, false, deadline)?;
            }
            self.catchup_rounds.add(1);
            self.catchup_records.add(shipped);
            self.cluster.obs().trace_event(
                CTRL_TOKEN,
                Stage::MigrateCatchup,
                self.ep.id().0,
                color.0 as u64,
            );
            if shipped <= self.catchup_threshold as u64 || Instant::now() >= budget {
                break;
            }
        }
        Ok(())
    }

    /// Phases 2-6 of a migration, entered with the sources frozen and the
    /// bulk of the span already at the destination.
    fn migrate_frozen(
        &mut self,
        op: u64,
        color: ColorId,
        sources: &[ShardInfo],
        src_nodes: &[NodeId],
        dest: &ShardInfo,
    ) -> Result<(), CtrlError> {
        // Phase 2: drain. Wait until no source replica holds a staged
        // batch of the color — after this, the set of committed records
        // is stable (nothing in flight can still commit).
        let deadline = Instant::now() + self.timeout;
        for &node in src_nodes {
            while self.color_status(node, color, deadline)?.0 > 0 {
                std::thread::sleep(Duration::from_micros(500));
            }
        }
        self.wal_phase(op, CtrlPhase::Drained)?;

        // Phase 3: epoch bump at the owning sequencer. Fences stale
        // ordering traffic and guarantees every post-migration SN is
        // larger than every pre-migration SN (SN = epoch ‖ counter).
        let owner = self
            .cluster
            .catalog()
            .owner(color)
            .ok_or(CtrlError::UnknownColor(color))?;
        self.bump_epoch(owner)?;
        self.wal_phase(op, CtrlPhase::Fenced)?;

        // Phase 4: final sliver. Only the residual above each destination's
        // cursor travels inside the freeze window — O(threshold), not
        // O(span). It lands hot (PM + cache): these are the records a client
        // is most likely to re-read right after cutover. The round is
        // exact: a cursor is a max over copied SNs, and the commit order
        // allows holes below it that fill between rounds (an OResp can
        // outrun its append broadcast), so every destination replica diffs
        // the source's SN digest against its own copy and pulls exactly
        // what it still misses before it acks. The source is ranked as in
        // every round, so a lagging or freshly recovered replica is not
        // what the copy is proved against; the delegate adopts its
        // subscription cursors and resumes pushing where it stopped
        // (subscribers the source later redirects re-register idempotently).
        for shard in sources {
            let sliver = self.catch_up_round(dest, color, shard, true, deadline)?;
            self.final_sliver_records.add(sliver);
        }
        // The point of no return: the destination provably holds every
        // committed record and the epoch fence is in force. Recovery of a
        // crash after this record rolls FORWARD.
        self.wal_phase(op, CtrlPhase::Copied)?;

        // Phase 5: adopt. Destination replicas clear any stale fencing
        // marks from an earlier residency and start serving the color.
        self.ctrl_round(
            &dest.replicas,
            CtrlCmd::Adopt(color),
            "adopt",
        )?;
        self.wal_phase(op, CtrlPhase::Adopted)?;

        // Phase 6: cutover. Publish the new route first — one catalog
        // write — then tell the sources to nack with `ColorMoved`: a client
        // bounced by a source re-resolves and finds the destination
        // already serving.
        self.cluster.catalog().apply(Change::MoveColor { color, dest: dest.id })?;
        self.ctrl_round(
            src_nodes,
            CtrlCmd::Cutover(color),
            "cutover",
        )?;
        self.wal_phase(op, CtrlPhase::CutOver)?;
        self.migrations.add(1);
        Ok(())
    }

    // ----- sequencer-tree split -----------------------------------------

    /// Splits leaf `hot`: spawns a new leaf under the root and re-routes
    /// half of `hot`'s colors (the later half in color order) to it.
    /// Returns the new leaf's role and the colors it took.
    pub fn split_leaf(&mut self, hot: RoleId) -> Result<(RoleId, Vec<ColorId>), CtrlError> {
        let colors = self.cluster.catalog().owned_by(hot);
        if colors.len() < 2 {
            return Err(CtrlError::NothingToSplit(hot));
        }
        let moved = colors[colors.len() / 2..].to_vec();
        let (role, _) = self.split_leaf_moving(hot, &moved)?;
        Ok((role, moved))
    }

    /// Splits leaf `hot`, moving exactly `moved` to the new leaf. Returns
    /// the new role and the donor's bumped epoch.
    ///
    /// SN monotonicity across the move: the donor is bumped to epoch E',
    /// dropping every in-flight ordering request at the fence, and the new
    /// leaf starts at E' + 1 with fresh counters — so the first SN it
    /// issues for a moved color is strictly above anything the donor ever
    /// issued for it.
    pub fn split_leaf_moving(
        &mut self,
        hot: RoleId,
        moved: &[ColorId],
    ) -> Result<(RoleId, Epoch), CtrlError> {
        if !self.alive() {
            return Err(CtrlError::Crashed);
        }
        let new_role = RoleId(
            self.cluster
                .ordering()
                .roles()
                .iter()
                .map(|r| r.0 + 1)
                .max()
                .unwrap_or(1),
        );
        let op = self.wal.begin(&OpKind::Split {
            donor: hot,
            new_role,
            moved: moved.to_vec(),
        });
        self.maybe_crash(CtrlPhase::Begun)?;
        // Fence the donor: in-flight OReqs for moved colors die with the
        // epoch; replicas re-send them along the new route below.
        let donor_epoch = match self.bump_epoch(hot) {
            Ok(e) => e,
            Err(e) => return Err(self.fail_op(op, e, None)),
        };
        self.cluster
            .spawn_leaf_sequencer(new_role, RoleId(0), donor_epoch.next());
        // The spawn is the split's point of no return: a crash after this
        // record rolls forward (the leaf is live in the directory and the
        // remaining step is idempotent metadata).
        self.wal_phase(op, CtrlPhase::Fenced)?;
        // One catalog write: the new leaf orders over the donor's region,
        // the donor stops assigning the moved colors and the replicas send
        // their OReqs to the new leaf, all from the same moment.
        let split = Change::Split { donor: hot, new_role, moved: moved.to_vec() };
        self.cluster.catalog().apply(split)?;
        self.leaf_splits.add(1);
        self.wal.commit(op);
        Ok((new_role, donor_epoch))
    }

    // ----- fenced primitives --------------------------------------------

    /// The one reply loop of the controller: feeds every message arriving
    /// from a node in `pending` to `on_reply` and strikes the node off once
    /// it has produced the reply the round awaits (`Ok(true)`). Ends when
    /// `pending` is empty, `on_reply` fails the round, or `deadline`
    /// passes (`Timeout(phase)`, with `pending` naming the nodes that never
    /// answered). Request ids are matched by `on_reply`, which owns the
    /// reply's shape.
    fn await_replies(
        &mut self,
        pending: &mut Vec<NodeId>,
        deadline: Instant,
        phase: &'static str,
        mut on_reply: impl FnMut(NodeId, ClusterMsg) -> Result<bool, CtrlError>,
    ) -> Result<(), CtrlError> {
        while !pending.is_empty() {
            let left = deadline
                .checked_duration_since(Instant::now())
                .ok_or(CtrlError::Timeout(phase))?;
            match self.ep.recv_timeout(left) {
                Ok((node, msg)) => {
                    if pending.contains(&node) && on_reply(node, msg)? {
                        pending.retain(|&n| n != node);
                    }
                }
                Err(RecvError::Timeout) => return Err(CtrlError::Timeout(phase)),
                Err(RecvError::Disconnected) => return Err(CtrlError::Disconnected),
            }
        }
        Ok(())
    }

    /// Bumps `role`'s epoch and returns the new value. The sequencer
    /// drops its per-color counters (they restart within the new epoch)
    /// and replicates the bump to its backups before replying.
    pub fn bump_epoch(&mut self, role: RoleId) -> Result<Epoch, CtrlError> {
        let leader = self
            .cluster
            .directory()
            .get(role)
            .ok_or(CtrlError::NoLeader(role))?;
        let gen = self.generation;
        let _ = self
            .ep
            .send(leader, ClusterMsg::Order(OrderMsg::BumpEpoch { role, gen }));
        let deadline = Instant::now() + self.timeout;
        let mut bumped = None;
        self.await_replies(&mut vec![leader], deadline, "epoch bump", |_, m| match m {
            ClusterMsg::Order(OrderMsg::EpochIs { role: r, epoch }) if r == role => {
                bumped = Some(epoch);
                Ok(true)
            }
            ClusterMsg::Order(OrderMsg::BumpFenced { role: r, .. }) if r == role => {
                Err(CtrlError::Fenced)
            }
            _ => Ok(false),
        })?;
        self.epoch_bumps.add(1);
        Ok(bumped.expect("await_replies returned Ok only after the reply"))
    }

    /// Sends `cmd` under this controller's generation to every node and
    /// waits for all acks within the per-phase timeout. Returns the largest
    /// `moved` any ack carried.
    fn ctrl_round(
        &mut self,
        nodes: &[NodeId],
        cmd: CtrlCmd,
        phase: &'static str,
    ) -> Result<u64, CtrlError> {
        let deadline = Instant::now() + self.timeout;
        self.ctrl_round_until(&mut nodes.to_vec(), cmd, deadline, phase)
    }

    /// One fenced round against an explicit deadline: sends `cmd` to every
    /// node in `pending`, which is left naming the nodes that never acked.
    /// Returns the largest `moved` any ack carried (0 except for a
    /// catch-up or archive round).
    fn ctrl_round_until(
        &mut self,
        pending: &mut Vec<NodeId>,
        cmd: CtrlCmd,
        deadline: Instant,
        phase: &'static str,
    ) -> Result<u64, CtrlError> {
        let (gen, req) = (self.generation, self.next_req());
        let _ = self.ep.broadcast(pending, CtrlMsg::Cmd { gen, req, cmd }.into());
        let mut most = 0;
        self.await_replies(pending, deadline, phase, |_, m| match m {
            ClusterMsg::Data(DataMsg::Ctrl(CtrlMsg::Ack { req: r, moved })) if r == req => {
                most = moved.max(most);
                Ok(true)
            }
            // A replica has seen a higher controller generation: we are a
            // zombie. Stop immediately — the successor owns every
            // in-flight operation.
            ClusterMsg::Data(DataMsg::Ctrl(CtrlMsg::Nack { req: r, .. })) if r == req => {
                Err(CtrlError::Fenced)
            }
            _ => Ok(false),
        })?;
        Ok(most)
    }

    /// One replica's view of a color — (staged batches, committed records)
    /// — by one unfenced sync-plane query.
    fn color_status(
        &mut self,
        node: NodeId,
        color: ColorId,
        deadline: Instant,
    ) -> Result<(u64, u64), CtrlError> {
        let req = self.next_req();
        let _ = self.ep.send(node, SyncMsg::ColorStatus { color, req }.into());
        let mut reply = None;
        self.await_replies(&mut vec![node], deadline, "drain", |_, m| {
            if let Some(DataMsg::Sync(SyncMsg::ColorInfo { req: r, staged, count })) = m.into_data() {
                reply = (r == req).then_some((staged, count));
            }
            Ok(reply.is_some())
        })?;
        Ok(reply.expect("await_replies returned Ok only after the reply"))
    }

    /// Abort path: restore availability on the source shards. Retried
    /// with acks — the freeze marks are volatile but the replicas are
    /// alive, so a single dropped `Unfreeze` would leave the color frozen
    /// forever and every client append timing out. A node that never acks
    /// is dropped after the attempts are exhausted: a replica crashed
    /// mid-abort loses its freeze mark on restart anyway.
    fn abort_unfreeze(&mut self, src_nodes: &[NodeId], color: ColorId) {
        // A dead controller must not touch the cluster: its successor's
        // recovery scan owns the unfreeze now.
        if !self.alive() {
            return;
        }
        self.migration_aborts.add(1);
        let mut pending = src_nodes.to_vec();
        let attempt_window = (self.timeout / 4).max(Duration::from_millis(25));
        for attempt in 0..8 {
            if attempt > 0 {
                // Observable retry pressure: how many unfreeze sends went
                // out beyond the first attempt (ctrl.unfreeze_retries).
                self.unfreeze_retries.add(pending.len() as u64);
            }
            let deadline = Instant::now() + attempt_window;
            match self.ctrl_round_until(&mut pending, CtrlCmd::Unfreeze(color), deadline, "unfreeze") {
                Err(CtrlError::Timeout(_)) => {} // resend to the stragglers
                // Everyone acked — or we are fenced (the successor
                // controller unfreezes) or disconnected.
                Ok(_) | Err(_) => return,
            }
        }
    }
}
