use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{Receiver, RecvTimeoutError, TryRecvError};

use crate::network::Inner;
use crate::{NodeId, RecvError, SendError};

/// A node's attachment to the simulated network: an inbox plus the ability
/// to send to any registered peer.
///
/// Endpoints are `Send` and are normally owned by the thread running that
/// node's protocol loop.
pub struct Endpoint<M: Send + 'static> {
    id: NodeId,
    rx: Receiver<(NodeId, M)>,
    net: Arc<Inner<M>>,
}

impl<M: Send + 'static> Endpoint<M> {
    pub(crate) fn new(id: NodeId, rx: Receiver<(NodeId, M)>, net: Arc<Inner<M>>) -> Self {
        Endpoint { id, rx, net }
    }

    /// This endpoint's node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Sends `msg` to `to` over the reliable FIFO link. Returns immediately;
    /// delivery happens after the link delay. See [`SendError`] for the
    /// (rare) hard failure cases.
    pub fn send(&self, to: NodeId, msg: M) -> Result<(), SendError> {
        self.net.send(self.id, to, msg)
    }

    /// Sends a clone of `msg` to every node in `peers` (the paper's
    /// broadcast primitive, §4). Unknown peers are reported in the result
    /// but do not stop the remaining sends. The final peer receives `msg`
    /// itself — an N-peer broadcast performs N-1 clones, so cheaply-clonable
    /// messages (refcounted payloads) make the whole fan-out zero-copy.
    pub fn broadcast(&self, peers: &[NodeId], msg: M) -> Result<(), SendError>
    where
        M: Clone,
    {
        let mut first_err = None;
        let serialize = self.net.link.serialize;
        let mut msg = Some(msg);
        let last = peers.len().saturating_sub(1);
        for (i, &p) in peers.iter().enumerate() {
            let extra = serialize * i as u32;
            let m = if i == last {
                msg.take().expect("moved only once, on the last peer")
            } else {
                msg.as_ref().expect("present until the last peer").clone()
            };
            if let Err(e) = self.net.send_with_extra(self.id, p, m, extra) {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Blocks until a message arrives. Every receive waits the channel's
    /// one way: it polls the inbox for up to 80 µs, or to a deadline nearer
    /// than the sleep floor, then parks (see [`crate::SLEEP_FLOOR`]).
    pub fn recv(&self) -> Result<(NodeId, M), RecvError> {
        self.rx.recv().map_err(|_| RecvError::Disconnected)
    }

    /// Blocks until a message arrives or `timeout` elapses. Timeouts are how
    /// nodes detect failures (message delay > Δ, §4).
    pub fn recv_timeout(&self, timeout: Duration) -> Result<(NodeId, M), RecvError> {
        self.rx.recv_timeout(timeout).map_err(recv_error)
    }

    /// Blocks until at least one message arrives (or `timeout` elapses),
    /// then drains up to `max` queued messages into `out` under a single
    /// inbox lock acquisition, preserving arrival order. Returns how many
    /// were appended. This is the consumption half of the batched data
    /// plane: node run loops wake once per burst instead of once per
    /// message.
    pub fn recv_batch(
        &self,
        timeout: Duration,
        max: usize,
        out: &mut Vec<(NodeId, M)>,
    ) -> Result<usize, RecvError> {
        self.rx.recv_batch_timeout(timeout, max, out).map_err(recv_error)
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<(NodeId, M), RecvError> {
        self.rx.try_recv().map_err(|e| match e {
            TryRecvError::Empty => RecvError::Timeout,
            TryRecvError::Disconnected => RecvError::Disconnected,
        })
    }

    /// Number of messages waiting in the inbox.
    pub fn pending(&self) -> usize {
        self.rx.len()
    }
}

fn recv_error(e: RecvTimeoutError) -> RecvError {
    match e {
        RecvTimeoutError::Timeout => RecvError::Timeout,
        RecvTimeoutError::Disconnected => RecvError::Disconnected,
    }
}
