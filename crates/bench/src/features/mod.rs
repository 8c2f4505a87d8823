//! The four feature benches `benchmark/` cannot express, because each needs
//! a bespoke topology: a shard-scaling curve, a live migration with a
//! controller-recovery drill, 100 push subscribers against one poller, and
//! an archiver beside a hot appender. Each exposes `run(quick) -> Report`
//! and reports only the rows behind its gates; what `benchmark/` measures
//! (append latency and its stages, single-subscriber push, archive and
//! cold-read cost per layer) is measured there.

pub mod datapath;
pub mod elasticity;
pub mod fanout;
pub mod tiering;
