//! Sequencer backup nodes and the election/promotion protocol (§5.2
//! "Sequencer replication", §6.3 "Sequencer failures").
//!
//! Backups are **stateless** with respect to ordering: they replicate only
//! the current epoch, never see OReqs, and add zero latency in normal
//! operation. When heartbeats stop for Δ:
//!
//! 1. every live backup broadcasts a candidacy carrying its known epoch;
//! 2. after an election window the highest (epoch, node-id) wins;
//! 3. the winner bumps the epoch, replicates it to a majority of backups,
//! 4. initializes all data-layer replicas of its region and waits for every
//!    ack (guaranteeing the old leader's interrupted broadcasts are resolved
//!    by the replicas' sync-phase before new SNs appear), and
//! 5. installs itself in the directory and runs the sequencer loop.
//!
//! Losers go back to monitoring; if the winner dies mid-promotion the next
//! timeout triggers a fresh election at a higher epoch.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use flexlog_simnet::{Endpoint, NodeId, RecvError};
use flexlog_types::Epoch;

use crate::msg::{OrderMsg, OrderWire};
use crate::sequencer::{majority, SequencerNode};
use crate::{Directory, PositionSpec, TreeSpec};

/// See module docs.
pub struct BackupNode {
    /// The sequencer position this backup protects — assumed on promotion —
    /// and the tree it belongs to.
    pos: PositionSpec,
    spec: TreeSpec,
    directory: Directory,
    known_epoch: Epoch,
    /// Live peer backups. A peer that becomes the leader (observed through
    /// its heartbeats / epoch replication) leaves this set — it is no longer
    /// part of the backup group, so later elections do not wait for it.
    peers: Vec<NodeId>,
    /// Data-layer replicas that must acknowledge a new sequencer before it
    /// serves (all replicas of the shards attached to this position).
    replicas_to_init: Vec<NodeId>,
}

enum Phase {
    Monitoring,
    Electing { bids: Vec<(Epoch, NodeId)>, deadline: Instant },
}

impl BackupNode {
    /// A backup of position `pos` beside the *other* backups `peers`.
    pub(crate) fn new(
        pos: &PositionSpec,
        peers: Vec<NodeId>,
        replicas_to_init: Vec<NodeId>,
        spec: &TreeSpec,
        directory: Directory,
    ) -> Self {
        BackupNode {
            pos: pos.clone(),
            spec: spec.clone(),
            directory,
            known_epoch: Epoch(1),
            peers,
            replicas_to_init,
        }
    }

    fn note_leader(&mut self, leader: NodeId) {
        self.peers.retain(|&p| p != leader);
    }

    /// Announces this node's candidacy to its peers and opens the election
    /// window with its own bid.
    fn stand<W: OrderWire>(&self, ep: &Endpoint<W>) -> Phase {
        let (epoch, id) = (self.known_epoch, ep.id());
        let _ = ep.broadcast(&self.peers, W::from_order(OrderMsg::Candidacy { epoch, id }));
        Phase::Electing {
            bids: vec![(epoch, id)],
            deadline: Instant::now() + self.spec.election_window,
        }
    }

    /// Runs the backup loop. If this node wins an election it *becomes* the
    /// sequencer on the same endpoint and only returns when that sequencer
    /// stops.
    pub(crate) fn run<W: OrderWire>(mut self, ep: Endpoint<W>) {
        let delta = self.spec.delta;
        let mut last_leader_sign = Instant::now();
        let mut phase = Phase::Monitoring;

        loop {
            match ep.recv_timeout(delta / 4) {
                Ok((from, wire)) => {
                    let Some(msg) = wire.into_order() else { continue };
                    match msg {
                        OrderMsg::Shutdown => return,
                        OrderMsg::Heartbeat { epoch } if epoch >= self.known_epoch => {
                            self.note_leader(from);
                            self.known_epoch = epoch;
                            last_leader_sign = Instant::now();
                            phase = Phase::Monitoring;
                            let _ = ep.send(
                                from,
                                W::from_order(OrderMsg::HeartbeatAck { epoch }),
                            );
                        }
                        // Stale-epoch heartbeats get no ack: the old
                        // leader starves of majorities and self-demotes.
                        OrderMsg::Heartbeat { .. } => {}
                        OrderMsg::ReplicateEpoch { epoch } => {
                            if epoch > self.known_epoch {
                                self.known_epoch = epoch;
                            }
                            self.note_leader(from);
                            last_leader_sign = Instant::now();
                            let _ = ep.send(from, W::from_order(OrderMsg::EpochAck { epoch }));
                        }
                        OrderMsg::Candidacy { epoch, id } => {
                            if let Phase::Monitoring = phase {
                                // A peer detected the failure first: join
                                // the election immediately.
                                phase = self.stand(&ep);
                            }
                            if let Phase::Electing { bids, .. } = &mut phase {
                                bids.push((epoch, id));
                            }
                        }
                        _ => {}
                    }
                }
                Err(RecvError::Timeout) => {}
                Err(RecvError::Disconnected) => return,
            }

            match &mut phase {
                Phase::Monitoring => {
                    if Instant::now() - last_leader_sign > delta {
                        // Leader presumed dead: open an election.
                        phase = self.stand(&ep);
                    }
                }
                Phase::Electing { bids, deadline } => {
                    if Instant::now() >= *deadline {
                        // Highest (epoch, node-id) wins (§5.2).
                        let (max_epoch, winner) =
                            bids.iter().max().copied().expect("own bid present");
                        self.known_epoch = self.known_epoch.max(max_epoch);
                        if winner == ep.id() {
                            match self.promote(&ep) {
                                Promotion::Became(mut seq) => {
                                    // Transition in place: same node id, new
                                    // role. Returns when the sequencer stops.
                                    return seq.run(ep);
                                }
                                Promotion::Aborted => {
                                    // Could not reach a majority: back to
                                    // monitoring (maybe partitioned away).
                                    last_leader_sign = Instant::now();
                                    phase = Phase::Monitoring;
                                }
                                Promotion::Stop => return,
                            }
                        } else {
                            // Give the winner time to promote; re-elect on
                            // silence.
                            last_leader_sign = Instant::now();
                            phase = Phase::Monitoring;
                        }
                    }
                }
            }
        }
    }

    /// Promotion: epoch bump → replicate to majority → init replicas →
    /// serve. Returns `Aborted` if a majority of backups is unreachable.
    fn promote<W: OrderWire>(&mut self, ep: &Endpoint<W>) -> Promotion {
        let new_epoch = self.known_epoch.next();
        let delta = self.spec.delta;
        // Phase 1: replicate the epoch to a majority of the backup group
        // (the peers and this node, which counts).
        let replicate = OrderMsg::ReplicateEpoch { epoch: new_epoch };
        let ack = OrderMsg::EpochAck { epoch: new_epoch };
        match gather(ep, &self.peers, replicate, ack, majority(self.peers.len()), delta, 5) {
            Some(true) => self.known_epoch = new_epoch,
            Some(false) => return Promotion::Aborted,
            None => return Promotion::Stop,
        }
        // Phase 2: initialize the data-layer replicas and wait for *all*
        // acks (§6.3 — guarantees a single active sequencer and that the
        // replicas have completed the previous epoch's messages). Replica
        // failures block the new sequencer — availability is sacrificed for
        // consistency (§4 fault model) — so this retries without bound.
        let replicas = &self.replicas_to_init;
        let init = OrderMsg::InitSequencer { role: self.pos.role, epoch: new_epoch };
        let ack = OrderMsg::InitAck { epoch: new_epoch };
        if gather(ep, replicas, init, ack, replicas.len(), delta * 2, usize::MAX).is_none() {
            return Promotion::Stop;
        }
        // The promoted node leaves the backup group: the remaining peers are
        // the new backup set it heartbeats.
        Promotion::Became(Box::new(SequencerNode::new(
            &self.pos,
            self.peers.clone(),
            &self.spec,
            self.directory.clone(),
            new_epoch,
        )))
    }
}

/// The one "broadcast, gather acks until the window closes, retry" loop of a
/// promotion: `Some(true)` once `want` of `to` have answered `msg` with
/// `ack`, `Some(false)` after `attempts` windows without that, `None` if this
/// node was shut down or crashed meanwhile.
fn gather<W: OrderWire>(
    ep: &Endpoint<W>,
    to: &[NodeId],
    msg: OrderMsg,
    ack: OrderMsg,
    want: usize,
    window: Duration,
    attempts: usize,
) -> Option<bool> {
    let mut acked: HashSet<NodeId> = HashSet::new();
    for _ in 0..attempts {
        if acked.len() >= want {
            break;
        }
        let _ = ep.broadcast(to, W::from_order(msg.clone()));
        let deadline = Instant::now() + window;
        while acked.len() < want {
            match ep.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                Ok((from, wire)) => match wire.into_order() {
                    Some(OrderMsg::Shutdown) => return None,
                    // Anything else — a competing candidacy, say — is settled
                    // by the broadcast above; ignore it.
                    Some(m) if m == ack => {
                        acked.insert(from);
                    }
                    _ => {}
                },
                Err(RecvError::Timeout) => break,
                Err(RecvError::Disconnected) => return None,
            }
        }
    }
    Some(acked.len() >= want)
}

enum Promotion {
    Became(Box<SequencerNode>),
    Aborted,
    Stop,
}
