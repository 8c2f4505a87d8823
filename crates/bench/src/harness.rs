//! What the four feature benches share: a fixed number of paired trials,
//! metrics reported as median + quartiles + trial count + clock, gates
//! evaluated in-process on the median from one [`GATES`] table, and one
//! JSON shape for `BENCH_*.json` and `BENCH_history.jsonl`.

use flexlog_core::{ClusterSpec, FlexLogCluster};
use flexlog_obs::Json;
use flexlog_pm::ClockMode;

use crate::report::{Series, Table};

/// The clock a number was read on — every metric names one of the two.
/// Wall numbers measure this host's software overhead; modelled ones
/// divide the work by the busiest node's `node.busy_ns.*` (or read the
/// virtual device clock) and are what the scaling claims rest on. Counters
/// take the clock of the run they counted.
pub const WALL: &str = "wall";
pub const MODELLED: &str = "modelled";

/// Every bound the feature benches enforce, in one place:
/// `(bench, metric, operator, bound in a quick run, bound in a full run)`,
/// judged on the metric's **median** over the trials. A quick run is short
/// and noisy, so two bounds are looser there.
pub const GATES: &[(&str, &str, &str, f64, f64)] = &[
    // Modelled pipelined throughput at 4 shards over 1 shard.
    ("datapath", "scaling_4x_over_1x", ">=", 1.5, 2.0),
    // The longest ack gap overlapping the freeze window, which spans the
    // residual sliver — O(catch-up threshold), never O(span) (~90 ms even
    // in a quick run).
    ("elasticity", "cutover_stall_ms", "<", 60.0, 10.0),
    // A successor controller fences, scans the WAL and rolls back in a
    // handful of rounds.
    ("elasticity", "controller_recovery_ms", "<", 250.0, 250.0),
    // Reconfiguration may delay an append, never fail one.
    ("elasticity", "failed_appends", "==", 0.0, 0.0),
    // Throughput recovers on the new shard.
    ("elasticity", "after_over_before", ">=", 0.5, 0.5),
    // 100 push subscribers against one polling subscriber.
    ("fanout", "goodput_100x_over_poll", ">=", 20.0, 20.0),
    // A read replica absorbs read work; without one there is none to absorb.
    ("fanout", "rreplica_busy_ms_rr0", "==", 0.0, 0.0),
    ("fanout", "rreplica_busy_ms_rr1", ">", 0.0, 0.0),
    // An archive segment fetch costs more than an SSD block read.
    ("tiering", "cold_over_ssd_get", ">", 1.0, 1.0),
    // Archiving costs the hot append path at most 10 % — measured at twice
    // the steady-state archiving load (see `features::tiering`), so 20 %
    // here. Restated from best-of-three >= 0.9 with the data behind it in
    // EXPERIMENTS.md "Hot-append interference".
    ("tiering", "hot_append_ratio", ">=", 0.8, 0.8),
];

/// The outcome of one gate.
pub struct Verdict {
    pub metric: &'static str,
    pub op: &'static str,
    pub bound: f64,
    pub median: f64,
    pub pass: bool,
}

/// Judges `median(trials) <op> bound`. An empty series fails every gate
/// (its median is NaN).
pub fn judge(metric: &'static str, op: &'static str, bound: f64, trials: &Series) -> Verdict {
    let median = trials.median();
    let pass = match op {
        ">=" => median >= bound,
        ">" => median > bound,
        "<" => median < bound,
        "==" => median == bound,
        other => panic!("unknown gate operator `{other}`"),
    };
    Verdict { metric, op, bound, median, pass }
}

/// Process exit code for a set of verdicts: 0 when every gate held.
pub fn exit_code(verdicts: &[Verdict]) -> u8 {
    u8::from(verdicts.iter().any(|v| !v.pass))
}

/// One reported metric: a value per trial.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub clock: &'static str,
    pub trials: Series,
}

impl Metric {
    /// What both tracked files say about a metric, in their field order.
    fn stats(&self) -> Vec<(&'static str, Json)> {
        let (q1, q3) = self.trials.quartiles();
        vec![
            ("clock", self.clock.into()),
            ("unit", self.unit.into()),
            ("trials", (self.trials.samples.len() as u64).into()),
            ("median", num(self.trials.median())),
            ("q1", num(q1)),
            ("q3", num(q3)),
        ]
    }
}

/// A number as the tracked files carry it: three decimals are below every
/// metric's trial-to-trial spread.
fn num(v: f64) -> Json {
    ((v * 1e3).round() / 1e3).into()
}

/// What one feature bench measured.
pub struct Report {
    pub bench: &'static str,
    pub quick: bool,
    /// Paired trials the bench runs: a constant per mode, not a flag.
    pub trials: usize,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn new(bench: &'static str, quick: bool) -> Self {
        let trials = if quick { 3 } else { 5 };
        Report { bench, quick, trials, metrics: Vec::new() }
    }

    fn mode(&self) -> &'static str {
        if self.quick { "quick" } else { "full" }
    }

    /// Adds one trial's value of metric `name`.
    pub fn record(&mut self, name: &str, unit: &'static str, clock: &'static str, value: f64) {
        let at = self.metrics.iter().position(|m| m.name == name).unwrap_or_else(|| {
            let (name, trials) = (name.to_string(), Series::new());
            self.metrics.push(Metric { name, unit, clock, trials });
            self.metrics.len() - 1
        });
        self.metrics[at].trials.push(value);
    }

    /// Every [`GATES`] row of this bench, judged.
    pub fn verdicts(&self) -> Vec<Verdict> {
        let empty = Series::new();
        let rows = GATES.iter().filter(|gate| gate.0 == self.bench);
        rows.map(|&(_, metric, op, quick, full)| {
            let trials = self.metrics.iter().find(|m| m.name == metric).map(|m| &m.trials);
            judge(metric, op, if self.quick { quick } else { full }, trials.unwrap_or(&empty))
        })
        .collect()
    }

    /// The `BENCH_<name>.json` document.
    pub fn to_json(&self, commit: Option<&str>) -> Json {
        let metrics = self.metrics.iter().map(|m| {
            let mut stats = m.stats();
            stats.push(("values", Json::arr(m.trials.samples.iter().map(|&v| num(v)))));
            (m.name.as_str(), Json::obj(stats))
        });
        let gates = self.verdicts().into_iter().map(|v| {
            Json::obj([
                ("metric", v.metric.into()),
                ("op", v.op.into()),
                ("bound", v.bound.into()),
                ("median", num(v.median)),
                ("pass", v.pass.into()),
            ])
        });
        Json::obj([
            ("bench", self.bench.into()),
            ("commit", commit.map_or(Json::Null, Json::from)),
            ("mode", self.mode().into()),
            ("trials", (self.trials as u64).into()),
            ("metrics", Json::obj(metrics)),
            ("gates", Json::Arr(gates.collect())),
        ])
    }

    /// One `BENCH_history.jsonl` line per metric.
    pub fn history_lines(&self, commit: Option<&str>) -> Vec<String> {
        let line = |m: &Metric| {
            let mut fields = vec![
                ("commit", commit.map_or(Json::Null, Json::from)),
                ("source", "flexlog-bench".into()),
                ("bench", self.bench.into()),
                ("metric", m.name.as_str().into()),
            ];
            fields.extend(m.stats());
            Json::obj(fields).render()
        };
        self.metrics.iter().map(line).collect()
    }

    /// The summary table: every metric with its spread, and its gate.
    pub fn summary(&self) -> Table {
        let verdicts = self.verdicts();
        let mut t = Table::new(
            &format!("{} ({}, {} trials)", self.bench, self.mode(), self.trials),
            &["metric", "clock", "unit", "trials", "median", "q1", "q3", "gate"],
        );
        for m in &self.metrics {
            // The same fields, in the same order and rounding, as the files.
            let mut row = vec![m.name.clone()];
            row.extend(m.stats().iter().map(|(_, v)| v.render().trim_matches('"').to_string()));
            row.push(verdicts.iter().find(|v| v.metric == m.name).map_or(String::new(), |v| {
                format!("{} {} {}", v.op, v.bound, if v.pass { "ok" } else { "FAILED" })
            }));
            t.row(row);
        }
        t
    }
}

/// The spec the modelled benches share: one leaf sequencer and one shard of
/// three replicas per `shards` — scale-out in FlexLog adds ordering
/// capacity together with data-layer shards (§5.2); a fixed root sequencer
/// would cap the modelled curve at every shard count — on the instant
/// network, with the virtual device clock: PM latencies are charged to the
/// per-node `node.busy_ns.*` counters instead of spin-waited, feeding the
/// modelled rates without distorting the wall-clock ones.
pub fn modelled_spec(shards: usize) -> ClusterSpec {
    let mut spec = ClusterSpec::tree(shards, 1);
    spec.storage.clock = ClockMode::Virtual;
    spec
}

/// The node with the most modelled busy time (`node.busy_ns.*` counter
/// name, nanoseconds): the bottleneck stage every modelled rate divides by.
pub fn busiest_node(cluster: &FlexLogCluster) -> (String, u64) {
    let snap = cluster.obs().snapshot();
    let nodes = snap.counters.iter().filter(|(name, _)| name.starts_with("node.busy_ns."));
    let (name, &busy_ns) = nodes.max_by_key(|&(_, &v)| v).expect("a cluster has nodes");
    assert!(busy_ns > 0, "{name} accrued no modelled time");
    (name.clone(), busy_ns)
}
