//! # flexlog-obs
//!
//! Cross-layer observability for FlexLog: a lock-cheap metrics
//! [`Registry`] (atomic counters, gauges, log-bucketed histograms with
//! p50/p90/p99/max) and a bounded in-memory event [`Tracer`] (ring buffer
//! of typed spans keyed by record [`Token`]).
//!
//! One [`ObsHandle`] is created per cluster and cloned into every layer —
//! client, sequencer tree, replicas, storage engines and the simnet — so
//! a single surface answers both "how fast is each stage?" (registry
//! histograms, `metrics_report`) and "what happened to this record?"
//! (`trace(token)`).
//!
//! The handle is deliberately cheap to default-construct: a subsystem
//! built standalone (unit tests, benches of one component) gets its own
//! private registry and tracer and pays the same negligible overhead.

mod json;
mod registry;
mod trace;

pub use json::Json;
pub use registry::{
    bucket_bounds, Counter, Gauge, Histogram, HistogramSummary, Registry, Snapshot, NUM_BUCKETS,
};
pub use trace::{
    Stage, Trace, TraceEvent, Tracer, CTRL_TOKEN, DEFAULT_TRACE_CAPACITY, SUB_TOKEN, SYNC_TOKEN,
};

use flexlog_types::Token;

/// Shared observability surface: one registry + one tracer. `Clone` is
/// two `Arc` bumps; `Default` builds a fresh, private surface.
#[derive(Clone, Default)]
pub struct ObsHandle {
    registry: Registry,
    tracer: Tracer,
}

impl std::fmt::Debug for ObsHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ObsHandle")
    }
}

impl ObsHandle {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Shorthand for `registry().counter(name)`.
    pub fn counter(&self, name: &str) -> Counter {
        self.registry.counter(name)
    }

    /// Shorthand for `registry().gauge(name)`.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.registry.gauge(name)
    }

    /// Shorthand for `registry().histogram(name)`.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.registry.histogram(name)
    }

    /// Record one trace event.
    #[inline]
    pub fn trace_event(&self, token: Token, stage: Stage, node: u64, detail: u64) {
        self.tracer.record(token, stage, node, detail);
    }

    /// Reconstruct one record's journey.
    pub fn trace(&self, token: Token) -> Trace {
        self.tracer.trace(token)
    }

    /// Aggregated metrics snapshot.
    pub fn snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }

    /// Human-readable metrics report.
    pub fn report_text(&self) -> String {
        self.snapshot().render_text()
    }

    /// JSON metrics report.
    pub fn report_json(&self) -> String {
        self.snapshot().render_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexlog_types::FunctionId;

    #[test]
    fn handle_clones_share_state() {
        let obs = ObsHandle::new();
        let other = obs.clone();
        obs.counter("c").add(2);
        other.counter("c").add(3);
        assert_eq!(obs.snapshot().counter("c"), 5);
        let tok = Token::new(FunctionId(1), 1);
        other.trace_event(tok, Stage::ClientSend, 9, 0);
        assert_eq!(obs.trace(tok).events.len(), 1);
    }

    #[test]
    fn defaults_are_independent() {
        let a = ObsHandle::default();
        let b = ObsHandle::default();
        a.counter("c").add(1);
        assert_eq!(b.snapshot().counter("c"), 0);
    }
}
