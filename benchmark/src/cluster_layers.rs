//! Kind-(a) per-layer metrics: what the cluster's own registry, sequencer
//! stats and flight recorder say about the timed window of a traced run.
//!
//! Counters and histogram counts are diffed around the window. Histogram
//! percentiles cannot be diffed from summaries, so the `*_p50_us` values
//! cover the cluster's lifetime (set-up and warm-up included). The
//! `*_busy_us_*` values are the modelled per-message clock
//! (`node.busy_ns.*`) and are never mixed with wall time.

use flexlog_core::{FlexLogCluster, Snapshot, Stage, Token};
use std::sync::atomic::Ordering;

use crate::report::Metric;
use crate::stats::{median_us, ratio};

/// Registry snapshot plus summed sequencer stats at one instant.
pub struct Probe {
    snap: Snapshot,
    oreqs: u64,
    batches: u64,
}

impl Probe {
    pub fn take(cluster: &FlexLogCluster) -> Probe {
        let (mut oreqs, mut batches) = (0, 0);
        for role in cluster.ordering().roles() {
            let s = cluster.ordering().stats(role);
            oreqs += s.oreqs.load(Ordering::Relaxed);
            batches += s.batches.load(Ordering::Relaxed);
        }
        Probe {
            snap: cluster.obs().snapshot(),
            oreqs,
            batches,
        }
    }

    fn hist_count(&self, name: &str) -> u64 {
        self.snap.histogram(name).map_or(0, |h| h.count)
    }

    fn hist_p50_us(&self, name: &str) -> f64 {
        self.snap
            .histogram(name)
            .map_or(0.0, |h| h.p50 as f64 / 1e3)
    }
}

/// Metrics of the window between two probes. `appends` and `client_reads`
/// are the operations the generator saw complete inside it.
pub fn diff(
    before: &Probe,
    after: &Probe,
    appends: u64,
    client_reads: u64,
    user_bytes: u64,
) -> Vec<Metric> {
    let counter = |name: &str| (after.snap.counter(name) - before.snap.counter(name)) as f64;
    let hist_count = |name: &str| (after.hist_count(name) - before.hist_count(name)) as f64;
    // Busiest node of a class over the window, in modelled µs.
    let busiest_us = |prefix: &str| {
        after
            .snap
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(name, &v)| v - before.snap.counter(name))
            .max()
            .unwrap_or(0) as f64
            / 1e3
    };
    let appends = appends as f64;
    let tier_hits =
        counter("storage.cache_hits") + counter("storage.pm_hits") + counter("storage.ssd_hits");
    let oreqs = (after.oreqs - before.oreqs) as f64;

    [
        (
            "simnet.msgs_per_append",
            ratio(counter("net.sent"), appends),
        ),
        (
            "replication.records_per_commit_batch",
            ratio(
                counter("storage.commits"),
                hist_count("replica.commit_batch_ns"),
            ),
        ),
        (
            "replication.replica_busy_us_per_append",
            ratio(busiest_us("node.busy_ns.replica."), appends),
        ),
        (
            "replication.push_records_per_batch",
            ratio(counter("sub.push_records"), counter("sub.push_batches")),
        ),
        (
            "replication.push_service_p50_us",
            after.hist_p50_us("sub.push_ns"),
        ),
        ("ordering.oreqs_per_append", ratio(oreqs, appends)),
        (
            "ordering.oreqs_per_batch",
            ratio(oreqs, (after.batches - before.batches) as f64),
        ),
        (
            "ordering.batch_wait_p50_us",
            after.hist_p50_us("seq.batch_wait_ns"),
        ),
        (
            "ordering.seq_busy_us_per_append",
            ratio(busiest_us("node.busy_ns.seq."), appends),
        ),
        (
            "storage.commit_p50_us",
            after.hist_p50_us("storage.commit_ns"),
        ),
        (
            "storage.spilled_records_per_append",
            ratio(counter("storage.spilled_records"), appends),
        ),
        (
            "storage.bytes_appended_per_user_byte",
            ratio(counter("storage.bytes_appended"), user_bytes as f64),
        ),
        (
            "storage.cache_hit_pct",
            ratio(100.0 * counter("storage.cache_hits"), tier_hits),
        ),
        (
            "storage.pm_hit_pct",
            ratio(100.0 * counter("storage.pm_hits"), tier_hits),
        ),
        (
            "storage.ssd_hit_pct",
            ratio(100.0 * counter("storage.ssd_hits"), tier_hits),
        ),
        (
            "storage.reads_per_client_read",
            ratio(counter("storage.reads"), client_reads as f64),
        ),
    ]
    .into_iter()
    .map(|(name, value)| Metric::new(name, value))
    .collect()
}

/// The four gaps of one acked append's flight-recorder chain, and the
/// latency the generator observed for the same append.
#[derive(Clone, Copy)]
pub struct Gaps {
    send_to_staged: u64,
    staged_to_assign: u64,
    assign_to_commit: u64,
    commit_to_ack: u64,
    client_ns: u64,
}

/// Reads `token`'s chain back from the flight recorder. `None` when a stage
/// is missing (already evicted from the ring, or stages out of order).
pub fn gaps_of(cluster: &FlexLogCluster, token: Token, client_ns: u64) -> Option<Gaps> {
    let t = cluster.trace(token);
    let send = t.first_ns(Stage::ClientSend)?;
    let staged = t.first_ns(Stage::ReplicaStaged)?;
    let assign = t.first_ns(Stage::SeqAssign)?;
    let commit = t.last_ns(Stage::ReplicaCommit)?;
    let ack = t.last_ns(Stage::ClientAck)?;
    Some(Gaps {
        send_to_staged: staged.checked_sub(send)?,
        staged_to_assign: assign.checked_sub(staged)?,
        assign_to_commit: commit.checked_sub(assign)?,
        commit_to_ack: ack.checked_sub(commit)?,
        client_ns,
    })
}

/// Median of each gap, and how much of the client-observed latency of the
/// same appends the four gaps tile.
pub fn gap_metrics(gaps: &[Gaps]) -> Vec<Metric> {
    let med = |f: fn(&Gaps) -> u64| median_us(&mut gaps.iter().map(f).collect::<Vec<_>>());
    let tiled: u64 = gaps
        .iter()
        .map(|g| g.send_to_staged + g.staged_to_assign + g.assign_to_commit + g.commit_to_ack)
        .sum();
    let observed: u64 = gaps.iter().map(|g| g.client_ns).sum();
    [
        ("replication.send_to_staged_us", med(|g| g.send_to_staged)),
        (
            "replication.staged_to_assign_us",
            med(|g| g.staged_to_assign),
        ),
        (
            "replication.assign_to_commit_us",
            med(|g| g.assign_to_commit),
        ),
        ("replication.commit_to_ack_us", med(|g| g.commit_to_ack)),
        (
            "replication.gap_cover_pct",
            ratio(100.0 * tiled as f64, observed as f64),
        ),
        ("replication.gap_samples", gaps.len() as f64),
    ]
    .into_iter()
    .map(|(name, value)| Metric::new(name, value))
    .collect()
}
