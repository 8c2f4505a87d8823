//! The policy loop: observe → decide → actuate.
//!
//! Reads the deployment-wide metrics registry (per-color append rates
//! from `seq.color_sns.*`, sequencer batching pressure from
//! `seq.batch_wait_ns` p99, per-shard PM residency) and triggers shard
//! scale-out, color migration, and leaf splits through the
//! [`ControlPlane`].

use std::collections::HashMap;
use std::time::{Duration, Instant};

use flexlog_ordering::RoleId;
use flexlog_types::{ColorId, ShardId};

use crate::plane::{ControlPlane, CtrlError};

/// Thresholds of the scaling policy.
#[derive(Clone, Debug)]
pub struct AutoscalerConfig {
    /// A color appending faster than this (records/second, averaged over
    /// the tick interval) is *hot*: it gets a dedicated shard.
    pub hot_color_rate: f64,
    /// A hot color is only migrated if its current shard also serves at
    /// least this many other colors (a lone color on its own shard cannot
    /// be relieved by migration).
    pub min_cohabitants: usize,
    /// Split a leaf when the sequencer batch-wait p99 exceeds this (ns)
    /// and the busiest leaf owns at least two colors.
    pub split_wait_p99_ns: u64,
    /// Scale a shard out when any of its replicas holds more than this
    /// many live PM bytes.
    pub pm_pressure_bytes: usize,
    /// At most one scaling action per tick (reconfigurations are fenced
    /// and relatively heavy; let the system settle between them).
    pub max_actions_per_tick: usize,
    /// Minimum interval a rate observation must span before it can drive
    /// an action. A tick arriving sooner only refreshes the baselines —
    /// dividing a counter delta by a near-zero elapsed time would turn a
    /// handful of appends into an apparent rate spike (the restart
    /// hysteresis guard).
    pub min_observation: Duration,
}

impl Default for AutoscalerConfig {
    fn default() -> Self {
        AutoscalerConfig {
            hot_color_rate: 5_000.0,
            min_cohabitants: 1,
            split_wait_p99_ns: 200_000,
            pm_pressure_bytes: usize::MAX,
            max_actions_per_tick: 1,
            min_observation: Duration::from_millis(50),
        }
    }
}

/// What the autoscaler did in a tick.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScalingAction {
    /// Spawned `shard` under `leaf` (scale-out).
    AddedShard { shard: ShardId, leaf: RoleId },
    /// Moved `color` onto `to`.
    MigratedColor { color: ColorId, to: ShardId },
    /// Split `from`, re-routing `moved` to the new leaf `to`.
    SplitLeaf {
        from: RoleId,
        to: RoleId,
        moved: Vec<ColorId>,
    },
}

/// See module docs. Drive it by calling [`Autoscaler::tick`] periodically
/// (it is deliberately synchronous — tests and benchmarks control time).
pub struct Autoscaler<'a> {
    plane: ControlPlane<'a>,
    config: AutoscalerConfig,
    /// Per-color SN counters at the previous tick, for rate computation.
    last_sns: HashMap<ColorId, u64>,
    last_tick: Option<Instant>,
    history: Vec<ScalingAction>,
}

impl<'a> Autoscaler<'a> {
    pub fn new(plane: ControlPlane<'a>, config: AutoscalerConfig) -> Self {
        // Prime the rate baselines from the metrics registry NOW: a
        // controller that restarts mid-deployment inherits counters with
        // the entire history in them, and without this priming the first
        // tick would read that history as one observation window's worth
        // of appends and fire a spurious scale-out.
        let snap = plane.cluster().obs().snapshot();
        let last_sns = snap
            .counters_by_id("seq.color_sns.")
            .map(|(id, total)| (ColorId(id), total))
            .collect();
        Autoscaler {
            plane,
            config,
            last_sns,
            last_tick: Some(Instant::now()),
            history: Vec::new(),
        }
    }

    /// The control plane, for manual operations between ticks.
    pub fn plane(&mut self) -> &mut ControlPlane<'a> {
        &mut self.plane
    }

    /// Every action taken so far, in order.
    pub fn history(&self) -> &[ScalingAction] {
        &self.history
    }

    /// One observe → decide → actuate round. Returns the actions taken
    /// this tick (at most `max_actions_per_tick`).
    pub fn tick(&mut self) -> Result<Vec<ScalingAction>, CtrlError> {
        let cluster = self.plane.cluster();
        let snap = cluster.obs().snapshot();

        // --- observe ----------------------------------------------------
        let now = Instant::now();
        let elapsed = self
            .last_tick
            .map(|t| now.duration_since(t))
            .unwrap_or(Duration::ZERO);
        if elapsed < self.config.min_observation {
            // Too short a window for a meaningful rate. Crucially the
            // baselines are NOT advanced: the pending counter delta stays
            // attributed to the full interval since the last real tick,
            // instead of being compressed into a near-zero window (which
            // would read as an enormous rate and fire a spurious action).
            return Ok(Vec::new());
        }
        self.last_tick = Some(now);
        let mut rates: HashMap<ColorId, f64> = HashMap::new();
        for (id, total) in snap.counters_by_id("seq.color_sns.") {
            let color = ColorId(id);
            let prev = self.last_sns.insert(color, total).unwrap_or(0);
            rates.insert(
                color,
                total.saturating_sub(prev) as f64 / elapsed.as_secs_f64(),
            );
        }
        let wait_p99 = snap
            .histogram("seq.batch_wait_ns")
            .map(|h| h.p99)
            .unwrap_or(0);

        // --- decide / actuate -------------------------------------------
        let mut actions = Vec::new();

        // 1. PM pressure: a shard over the residency budget gets a sibling
        //    and sheds its hottest color onto it.
        if actions.len() < self.config.max_actions_per_tick {
            if let Some(shard) = self.pressured_shard() {
                if let Some(color) = self.hottest_color_on(shard.id, &rates) {
                    let new = self.plane.add_shard(shard.leaf);
                    actions.push(ScalingAction::AddedShard {
                        shard: new.id,
                        leaf: new.leaf,
                    });
                    self.plane.migrate_color(color, new.id)?;
                    actions.push(ScalingAction::MigratedColor { color, to: new.id });
                }
            }
        }

        // 2. Hot color: give it a dedicated shard if it shares one.
        if actions.len() < self.config.max_actions_per_tick {
            let mut hot: Vec<(ColorId, f64)> = rates
                .iter()
                .filter(|&(_, &r)| r >= self.config.hot_color_rate)
                .map(|(&c, &r)| (c, r))
                .collect();
            hot.sort_by(|a, b| b.1.total_cmp(&a.1));
            for (color, _) in hot {
                let Some(shard) = self.crowded_shard_of(color) else {
                    continue;
                };
                let new = self.plane.add_shard(shard.1);
                actions.push(ScalingAction::AddedShard {
                    shard: new.id,
                    leaf: new.leaf,
                });
                self.plane.migrate_color(color, new.id)?;
                actions.push(ScalingAction::MigratedColor { color, to: new.id });
                break;
            }
        }

        // 3. Sequencer pressure: split the busiest leaf that owns at
        //    least two colors.
        if actions.len() < self.config.max_actions_per_tick
            && wait_p99 >= self.config.split_wait_p99_ns
        {
            if let Some(leaf) = self.busiest_splittable_leaf(&rates) {
                let donor_colors = self.plane.cluster().catalog().owned_by(leaf);
                let moved = donor_colors[donor_colors.len() / 2..].to_vec();
                let (new_role, _) = self.plane.split_leaf_moving(leaf, &moved)?;
                actions.push(ScalingAction::SplitLeaf {
                    from: leaf,
                    to: new_role,
                    moved,
                });
            }
        }

        self.history.extend(actions.iter().cloned());
        Ok(actions)
    }

    /// The first shard whose PM residency exceeds the budget, if any.
    fn pressured_shard(&mut self) -> Option<flexlog_replication::ShardInfo> {
        let cluster = self.plane.cluster();
        let data = cluster.data();
        for shard in cluster.catalog().all_shards() {
            let worst = shard
                .replicas
                .iter()
                .filter_map(|&n| data.storage_of(n))
                .map(|s| s.pm_live_bytes())
                .max()
                .unwrap_or(0);
            if worst > self.config.pm_pressure_bytes {
                return Some(shard);
            }
        }
        None
    }

    /// The highest-rate color currently mapped to `shard`.
    fn hottest_color_on(&mut self, shard: ShardId, rates: &HashMap<ColorId, f64>) -> Option<ColorId> {
        let colors = self.plane.cluster().catalog().colors_on(shard);
        colors.into_iter().max_by(|&a, &b| {
            let ra = rates.get(&a).copied().unwrap_or(0.0);
            let rb = rates.get(&b).copied().unwrap_or(0.0);
            ra.total_cmp(&rb)
        })
    }

    /// If `color` shares every one of its shards with at least
    /// `min_cohabitants` other colors, returns one such (shard, leaf).
    fn crowded_shard_of(&mut self, color: ColorId) -> Option<(ShardId, RoleId)> {
        let catalog = self.plane.cluster().catalog();
        for shard in catalog.shards_of(color) {
            // `colors_on` lists `color` itself too.
            let cohabitants = catalog.colors_on(shard.id).len().saturating_sub(1);
            if cohabitants >= self.config.min_cohabitants {
                return Some((shard.id, shard.leaf));
            }
        }
        None
    }

    /// The leaf with the highest summed color rate that owns ≥ 2 colors.
    fn busiest_splittable_leaf(&mut self, rates: &HashMap<ColorId, f64>) -> Option<RoleId> {
        let roles = self.plane.cluster().ordering().roles();
        let mut best: Option<(f64, RoleId)> = None;
        for role in roles {
            let owned = self.plane.cluster().catalog().owned_by(role);
            if owned.len() < 2 {
                continue;
            }
            let rate: f64 = owned
                .iter()
                .map(|c| rates.get(c).copied().unwrap_or(0.0))
                .sum();
            if best.is_none_or(|(r, _)| rate > r) {
                best = Some((rate, role));
            }
        }
        best.map(|(_, r)| r)
    }
}
