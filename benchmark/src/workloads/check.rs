//! The output check every workload ends with: the quiescent log holds
//! exactly what was acknowledged, where it was acknowledged.

use std::collections::HashMap;
use std::time::Duration;

use flexlog_core::{ColorId, FlexLogCluster, SeqNum};
use flexlog_replication::{ClientConfig, FlexLogClient};
use flexlog_simnet::NodeId;

use super::callers::Appender;
use crate::record;

/// A client for bulk scans of a whole run. It has to be patient: every
/// retransmit restarts the replica's full-log scan (as in the elasticity
/// bench), so a handle with the cluster's retry timer can storm itself.
pub fn patient_reader(cluster: &FlexLogCluster) -> FlexLogClient {
    let ep = cluster
        .network()
        .register(NodeId::named(NodeId::CLASS_CLIENT, 999_999));
    FlexLogClient::new(
        ep,
        cluster.data().topology.clone(),
        ClientConfig {
            retry: Duration::from_secs(5),
            max_retry: Duration::from_secs(10),
            ..Default::default()
        },
    )
}

/// Full `subscribe(color)` scan of every color: the record count equals the
/// acked count, SNs are strictly increasing, every checksum holds, and every
/// acked `(color, SN)` holds the op that was acked there. Returns the number
/// of violations.
pub fn log_holds_every_ack(
    cluster: &FlexLogCluster,
    colors: &[ColorId],
    appenders: &[&Appender],
) -> u64 {
    let mut reader = patient_reader(cluster);
    let mut violations = 0u64;
    for &color in colors {
        let acked: Vec<_> = appenders
            .iter()
            .flat_map(|a| a.acked.iter())
            .filter(|a| a.color == color)
            .collect();
        let Ok(log) = reader.subscribe(color) else {
            violations += acked.len() as u64;
            continue;
        };
        violations += (log.len() as u64).abs_diff(acked.len() as u64);
        violations += log.windows(2).filter(|w| w[0].sn >= w[1].sn).count() as u64;
        let mut op_at: HashMap<SeqNum, u64> = HashMap::with_capacity(log.len());
        for r in &log {
            match record::parse(r.payload.as_slice()) {
                Some((_, op)) => {
                    op_at.insert(r.sn, op);
                }
                None => violations += 1,
            }
        }
        violations += acked
            .iter()
            .filter(|a| op_at.get(&a.sn) != Some(&a.op))
            .count() as u64;
    }
    violations
}
