//! The control loop: observe → decide → actuate, for scaling and tiering
//! alike.
//!
//! Each decision tick diffs the registry once — `seq.color_sns.*` and
//! `storage.color_reads.*` against the previous decision tick — for every
//! color's append rate and its age and idle stamps, reads residency from
//! the replicas' storage, evaluates the [`Policy`] and actuates the matches
//! through the [`ControlPlane`]. Every actuation lands in one decision log
//! ([`ControlLoop::history`]) and in the `ctrl.loop.*` counters.
//!
//! The caller owns the clock: every entry point takes `now`.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::{Duration, Instant};

use flexlog_obs::{Counter, Snapshot};
use flexlog_ordering::{Catalog, RoleId};
use flexlog_types::{ColorId, ShardId};

use crate::plane::{ControlPlane, CtrlError};
use crate::policy::{Action, Observation, Policy, VERBS};

/// What the loop evaluates and how fast it may act.
#[derive(Clone, Debug)]
pub struct ControlConfig {
    /// The rules evaluated each decision tick.
    pub policy: Policy,
    /// Minimum interval between decision ticks. A tick arriving sooner does
    /// nothing: a counter delta over a near-zero window would read a handful
    /// of appends as a rate spike. Age and idle are exact to within it, so
    /// keep it at most a fifth of the policy's smallest `age_ms` / `idle_ms`.
    pub min_observation: Duration,
    /// At most this many decisions per tick: reconfigurations are fenced
    /// and archive rounds upload through the slow object store, so the
    /// loop paces itself.
    pub max_actions_per_tick: usize,
}

impl Default for ControlConfig {
    fn default() -> Self {
        ControlConfig {
            policy: Policy::recommended(),
            min_observation: Duration::from_millis(10),
            max_actions_per_tick: 4,
        }
    }
}

/// What an actuation did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// `scale_out`: the color was migrated onto the new `shard`.
    ScaledOut { shard: ShardId },
    /// `split`: leaf `from` handed `moved` to the new leaf `to`.
    Split {
        from: RoleId,
        to: RoleId,
        moved: Vec<ColorId>,
    },
    /// `archive` / `demote`: the most records any replica moved.
    Moved { records: u64 },
}

/// One actuation: the rule that matched, what it matched, and the outcome.
#[derive(Clone, Debug)]
pub struct Decision {
    /// The matching rule, in the policy grammar.
    pub rule: String,
    /// The color's observation that matched it.
    pub observation: Observation,
    /// What was done, or why it failed part-way: a `scale_out` whose
    /// migration fails leaves its new shard empty in the catalog.
    pub outcome: Result<Outcome, CtrlError>,
}

/// One color's registry counters and activity stamps as of a decision tick.
#[derive(Clone, Copy)]
struct Activity {
    appends: u64,
    reads: u64,
    appended_at: Instant,
    active_at: Instant,
}

/// See module docs. Drive it by calling [`ControlLoop::tick`] periodically.
pub struct ControlLoop<'a> {
    plane: ControlPlane<'a>,
    config: ControlConfig,
    /// Every cataloged color's activity as of `last`.
    activity: BTreeMap<ColorId, Activity>,
    /// The last decision tick, or construction.
    last: Instant,
    history: Vec<Decision>,
    ticks: Counter,
    /// Decisions per action, indexed by [`Action::kind`].
    decisions: [Counter; 4],
}

impl<'a> ControlLoop<'a> {
    /// Attaches the loop to `plane` and primes it from the registry at
    /// `now`: a controller that restarts mid-deployment inherits counters
    /// holding the whole history, which must read neither as one window's
    /// rate nor as an eternity of idleness. Every color starts active now.
    pub fn new(plane: ControlPlane<'a>, config: ControlConfig, now: Instant) -> Self {
        let obs = plane.cluster().obs();
        let mut control = ControlLoop {
            ticks: obs.counter("ctrl.loop.ticks"),
            decisions: VERBS.map(|verb| obs.counter(&format!("ctrl.loop.{verb}_decisions"))),
            plane,
            config,
            activity: BTreeMap::new(),
            last: now,
            history: Vec::new(),
        };
        control.activity = control.activity_at(now, &obs.snapshot());
        control
    }

    /// The control plane, for manual operations between ticks.
    pub fn plane(&mut self) -> &mut ControlPlane<'a> {
        &mut self.plane
    }

    /// Every decision so far, in order.
    pub fn history(&self) -> &[Decision] {
        &self.history
    }

    /// What the policy would see if a decision tick ran at `now`; changes
    /// nothing.
    pub fn observe(&self, now: Instant) -> Vec<Observation> {
        let snap = self.plane.cluster().obs().snapshot();
        self.observations(now, &self.activity_at(now, &snap), &snap)
    }

    /// One observe → decide → actuate round; returns this tick's decisions
    /// (at most `max_actions_per_tick`). A tick sooner than
    /// `min_observation` after the last decision tick does nothing. An
    /// actuation that fails is logged with its error, and the tick stops
    /// there and returns the error.
    pub fn tick(&mut self, now: Instant) -> Result<&[Decision], CtrlError> {
        if now.saturating_duration_since(self.last) < self.config.min_observation {
            return Ok(&[]);
        }
        self.ticks.inc();
        let snap = self.plane.cluster().obs().snapshot();
        let activity = self.activity_at(now, &snap);
        let observations = self.observations(now, &activity, &snap);
        (self.activity, self.last) = (activity, now);

        let start = self.history.len();
        for (rule, observation) in self.rank(&observations) {
            if self.history.len() - start >= self.config.max_actions_per_tick {
                break;
            }
            let rule = &self.config.policy.rules[rule];
            let Some(outcome) = actuate(&mut self.plane, rule.action, observation.color) else {
                continue;
            };
            self.decisions[rule.action.kind()].inc();
            let failed = outcome.as_ref().err().cloned();
            self.history.push(Decision { rule: rule.to_string(), observation, outcome });
            if let Some(e) = failed {
                return Err(e);
            }
        }
        Ok(&self.history[start..])
    }

    /// Every cataloged color's counters at `now`, re-stamping the colors
    /// whose appends or reads moved since the last decision tick.
    fn activity_at(&self, now: Instant, snap: &Snapshot) -> BTreeMap<ColorId, Activity> {
        let appends: HashMap<u32, u64> = snap.counters_by_id("seq.color_sns.").collect();
        let reads: HashMap<u32, u64> = snap.counters_by_id("storage.color_reads.").collect();
        let colors = self.plane.cluster().catalog().colors();
        colors
            .into_iter()
            .map(|color| {
                let appends = appends.get(&color.0).copied().unwrap_or(0);
                let reads = reads.get(&color.0).copied().unwrap_or(0);
                let mut a = Activity { appends, reads, appended_at: now, active_at: now };
                if let Some(prev) = self.activity.get(&color) {
                    if appends == prev.appends {
                        a.appended_at = prev.appended_at;
                        if reads == prev.reads {
                            a.active_at = prev.active_at;
                        }
                    }
                }
                (color, a)
            })
            .collect()
    }

    /// The policy's inputs at `now`, one per cataloged color in color
    /// order: rates and stamps from `activity`, residency from each replica
    /// of each shard.
    fn observations(
        &self,
        now: Instant,
        activity: &BTreeMap<ColorId, Activity>,
        snap: &Snapshot,
    ) -> Vec<Observation> {
        let cluster = self.plane.cluster();
        let catalog = cluster.catalog();
        // (live records, SSD-resident, PM pressure): the most any replica holds.
        let mut stored: HashMap<ColorId, (u64, u64, f64)> = HashMap::new();
        for shard in catalog.all_shards() {
            let residents = catalog.colors_on(shard.id);
            for s in shard.replicas.iter().filter_map(|&n| cluster.data().storage_of(n)) {
                let pressure = s.pm_live_bytes() as f64 / s.config().pm_capacity.max(1) as f64;
                for &color in &residents {
                    let e = stored.entry(color).or_default();
                    e.0 = e.0.max(s.record_count(color) as u64);
                    e.1 = e.1.max(s.ssd_resident(color) as u64);
                    e.2 = e.2.max(pressure);
                }
            }
        }
        let window = now.saturating_duration_since(self.last).as_secs_f64();
        let wait = snap.histogram("seq.batch_wait_ns").map_or(0, |h| h.p99);
        let mut out = Vec::with_capacity(activity.len());
        for (&color, a) in activity {
            let (live_records, ssd_resident, pm_pressure) =
                stored.get(&color).copied().unwrap_or_default();
            let delta = a.appends.saturating_sub(self.activity.get(&color).map_or(0, |p| p.appends));
            out.push(Observation {
                color,
                live_records,
                ssd_resident,
                pm_pressure,
                idle: now.saturating_duration_since(a.active_at),
                age: now.saturating_duration_since(a.appended_at),
                rate: if window > 0.0 { delta as f64 / window } else { 0.0 },
                batch_wait_p99: Duration::from_nanos(wait),
            });
        }
        out
    }

    /// The policy's matches in the order a tick takes them: rule order,
    /// then rate descending. A `split` ranks by its leaf's summed rate and
    /// stands for its leaf once.
    fn rank(&self, observations: &[Observation]) -> Vec<(usize, Observation)> {
        let rules = &self.config.policy.rules;
        let catalog = self.plane.cluster().catalog();
        let owner: HashMap<ColorId, RoleId> = observations
            .iter()
            .filter_map(|o| Some((o.color, catalog.owner(o.color)?)))
            .collect();
        let mut leaf_rate: HashMap<RoleId, f64> = HashMap::new();
        for o in observations {
            if let Some(leaf) = owner.get(&o.color) {
                *leaf_rate.entry(*leaf).or_default() += o.rate;
            }
        }
        let key = |&(rule, o): &(usize, &Observation)| match rules[rule].action {
            Action::Split => owner.get(&o.color).map_or(0.0, |leaf| leaf_rate[leaf]),
            _ => o.rate,
        };
        let mut matches = self.config.policy.evaluate(observations, |a, c| can_run(catalog, a, c));
        matches.sort_by(|a, b| {
            let by_key = key(b).total_cmp(&key(a));
            a.0.cmp(&b.0).then(by_key).then(b.1.rate.total_cmp(&a.1.rate))
        });
        let mut split = HashSet::new();
        matches.retain(|&(rule, o)| {
            rules[rule].action != Action::Split
                || owner.get(&o.color).is_some_and(|&leaf| split.insert(leaf))
        });
        matches.into_iter().map(|(rule, o)| (rule, *o)).collect()
    }
}

/// The leaf of a shard `color` shares with another color: where a
/// `scale_out` adds its shard.
fn shared_leaf(catalog: &Catalog, color: ColorId) -> Option<RoleId> {
    let mut shards = catalog.shards_of(color).into_iter();
    shards.find(|s| catalog.colors_on(s.id).len() > 1).map(|s| s.leaf)
}

/// `color`'s leaf, if it owns another color too: what a `split` splits.
fn splittable_leaf(catalog: &Catalog, color: ColorId) -> Option<RoleId> {
    catalog.owner(color).filter(|&leaf| catalog.owned_by(leaf).len() > 1)
}

/// Whether `action` can run on `color` in the catalog as it is now.
fn can_run(catalog: &Catalog, action: Action, color: ColorId) -> bool {
    match action {
        Action::ScaleOut => shared_leaf(catalog, color).is_some(),
        Action::Split => splittable_leaf(catalog, color).is_some(),
        Action::Archive { .. } | Action::Demote { .. } => true,
    }
}

/// Runs `action` on `color` if it can run in the catalog now (an earlier
/// decision of the same tick may have changed it); `None` if it cannot.
fn actuate(
    plane: &mut ControlPlane,
    action: Action,
    color: ColorId,
) -> Option<Result<Outcome, CtrlError>> {
    let catalog = plane.cluster().catalog();
    let moved = |records| Outcome::Moved { records };
    Some(match action {
        Action::Archive { keep_tail, max_records } => {
            plane.archive_color(color, keep_tail, max_records, false).map(moved)
        }
        Action::Demote { max_records } => plane.archive_color(color, 0, max_records, true).map(moved),
        Action::ScaleOut => {
            let shard = plane.add_shard(shared_leaf(catalog, color)?).id;
            plane.migrate_color(color, shard).map(|()| Outcome::ScaledOut { shard })
        }
        Action::Split => {
            let from = splittable_leaf(catalog, color)?;
            plane.split_leaf(from).map(|(to, moved)| Outcome::Split { from, to, moved })
        }
    })
}
