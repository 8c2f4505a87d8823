//! The tiering loop: observe per-color state → evaluate the declarative
//! [`TieringPolicy`] → actuate archive/demote rounds through the
//! [`ControlPlane`].
//!
//! This replaces hand-tuning the storage layer's spill heuristics
//! (`pm_watermark`) per workload: the operator writes
//! *what* should move (span age, PM pressure, access recency thresholds)
//! and the engine compiles each tick's observations into move plans the
//! archiver executes on every hosting replica.
//!
//! Observation sources, mirroring the [`crate::Autoscaler`]:
//!
//! * `seq.color_sns.<id>` registry counters — per-color append activity
//!   (a delta since the last tick re-stamps the color's append time);
//! * `storage.color_reads.<id>` registry counters — per-color read
//!   activity (the recency signal behind the policy's `idle_ms`);
//! * direct per-replica storage probes — live record counts, SSD
//!   residency, and `pm_live_bytes / pm_capacity` pressure.
//!
//! Decisions surface in the registry under `ctrl.tiering.*`.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use flexlog_tier::{ColorObservation, TierAction, TierMove, TieringPolicy};
use flexlog_types::ColorId;

use crate::plane::{ControlPlane, CtrlError};

/// Knobs of the tiering loop (the policy itself decides *what* moves;
/// these bound *how often* and *how much* per tick).
#[derive(Clone, Debug)]
pub struct TieringConfig {
    /// The declarative policy evaluated each tick.
    pub policy: TieringPolicy,
    /// Minimum interval between decision ticks. A tick arriving sooner
    /// only refreshes the activity stamps — recency observed over a
    /// near-zero window is noise, not a signal.
    pub min_observation: Duration,
    /// At most this many moves actuated per tick: archive rounds hold
    /// the replicas' archive gates and upload through the (slow) object
    /// store, so the engine paces itself.
    pub max_moves_per_tick: usize,
}

impl Default for TieringConfig {
    fn default() -> Self {
        TieringConfig {
            policy: TieringPolicy::recommended(),
            min_observation: Duration::from_millis(10),
            max_moves_per_tick: 4,
        }
    }
}

/// See module docs. Drive it by calling [`TieringEngine::tick`]
/// periodically (synchronous, like the autoscaler — tests control time).
pub struct TieringEngine<'a> {
    plane: ControlPlane<'a>,
    config: TieringConfig,
    /// Per-color append counters at the previous tick.
    last_sns: HashMap<ColorId, u64>,
    /// Per-color read counters at the previous tick.
    last_reads: HashMap<ColorId, u64>,
    /// When each color last appended (drives the policy's `age_ms`).
    appended_at: HashMap<ColorId, Instant>,
    /// When each color was last read *or* appended (drives `idle_ms`).
    active_at: HashMap<ColorId, Instant>,
    /// Fallback stamp for colors never seen active: engine start. A
    /// restarting controller therefore re-ages colors from zero instead
    /// of reading inherited counter history as an eternity of idleness
    /// and archiving everything on its first tick.
    started: Instant,
    last_tick: Option<Instant>,
    history: Vec<TierMove>,
}

impl<'a> TieringEngine<'a> {
    pub fn new(plane: ControlPlane<'a>, config: TieringConfig) -> Self {
        // Prime the counter baselines NOW (same hysteresis guard as the
        // autoscaler): inherited counters carry the whole deployment
        // history, which must not read as first-tick activity deltas.
        let snap = plane.cluster().obs().snapshot();
        let by_color = |prefix| {
            snap.counters_by_id(prefix)
                .map(|(id, total)| (ColorId(id), total))
                .collect::<HashMap<_, _>>()
        };
        let last_sns = by_color("seq.color_sns.");
        let last_reads = by_color("storage.color_reads.");
        TieringEngine {
            plane,
            config,
            last_sns,
            last_reads,
            appended_at: HashMap::new(),
            active_at: HashMap::new(),
            started: Instant::now(),
            last_tick: None,
            history: Vec::new(),
        }
    }

    /// The control plane, for manual operations between ticks.
    pub fn plane(&mut self) -> &mut ControlPlane<'a> {
        &mut self.plane
    }

    /// Every move actuated so far, in order.
    pub fn history(&self) -> &[TierMove] {
        &self.history
    }

    /// The current per-color observations (what the policy would see if
    /// a tick ran now). Public so tests and operators can inspect the
    /// engine's view without actuating anything.
    pub fn observe(&mut self) -> Vec<ColorObservation> {
        let now = Instant::now();
        self.refresh_stamps(now);
        let cluster = self.plane.cluster();
        let data = cluster.data();
        let mut out = Vec::new();
        for color in cluster.catalog().colors() {
            let mut live_records = 0u64;
            let mut ssd_resident = 0u64;
            let mut pm_pressure = 0.0f64;
            for shard in cluster.catalog().shards_of(color) {
                for &node in shard.replicas.iter() {
                    let Some(s) = data.storage_of(node) else {
                        continue;
                    };
                    live_records = live_records.max(s.record_count(color) as u64);
                    ssd_resident = ssd_resident.max(s.ssd_resident(color) as u64);
                    let cap = s.config().pm_capacity.max(1);
                    pm_pressure = pm_pressure.max(s.pm_live_bytes() as f64 / cap as f64);
                }
            }
            let since = |at: Option<&Instant>| {
                now.duration_since(*at.unwrap_or(&self.started))
            };
            out.push(ColorObservation {
                color,
                live_records,
                ssd_resident,
                pm_pressure,
                idle: since(self.active_at.get(&color)),
                age: since(self.appended_at.get(&color)),
            });
        }
        out
    }

    /// One observe → evaluate → actuate round. Returns the moves taken
    /// this tick (at most `max_moves_per_tick`).
    pub fn tick(&mut self) -> Result<Vec<TierMove>, CtrlError> {
        let obs = self.plane.cluster().obs();
        obs.counter("ctrl.tiering.ticks").fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let now = Instant::now();
        if self
            .last_tick
            .is_some_and(|t| now.duration_since(t) < self.config.min_observation)
        {
            // Too soon to decide — but keep the activity stamps fresh so
            // the eventual decision tick sees true recency.
            self.refresh_stamps(now);
            return Ok(Vec::new());
        }
        self.last_tick = Some(now);
        let observations = self.observe();
        let moves = self.config.policy.evaluate(&observations);
        let mut taken = Vec::new();
        for mv in moves.into_iter().take(self.config.max_moves_per_tick) {
            match mv.action {
                TierAction::Archive { keep_tail, max_records } => {
                    self.plane.archive_color(mv.color, keep_tail, max_records, false)?;
                    obs.counter("ctrl.tiering.archive_moves")
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
                TierAction::Demote { max_records } => {
                    self.plane.archive_color(mv.color, 0, max_records, true)?;
                    obs.counter("ctrl.tiering.demote_moves")
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            }
            taken.push(mv);
        }
        self.history.extend(taken.iter().cloned());
        Ok(taken)
    }

    /// Re-reads the activity counters and re-stamps colors whose append
    /// or read counts advanced since the previous look.
    fn refresh_stamps(&mut self, now: Instant) {
        let snap = self.plane.cluster().obs().snapshot();
        for (id, total) in snap.counters_by_id("seq.color_sns.") {
            let color = ColorId(id);
            if self.last_sns.insert(color, total).is_none_or(|p| total > p) {
                self.appended_at.insert(color, now);
                self.active_at.insert(color, now);
            }
        }
        for (id, total) in snap.counters_by_id("storage.color_reads.") {
            let color = ColorId(id);
            if self.last_reads.insert(color, total).is_none_or(|p| total > p) {
                self.active_at.insert(color, now);
            }
        }
    }
}
