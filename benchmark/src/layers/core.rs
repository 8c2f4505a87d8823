//! flexlog-core: deployment assembly — the part of `setup_s` that is not
//! preload or warm-up.

use flexlog_core::{ColorId, FlexLogCluster};

use super::{median_call_us, Drivers};
use crate::workloads::cluster_spec;

const STARTS: usize = 5;
const COLORS: usize = 200;

pub fn run(_seed: u64, out: &mut Drivers) {
    let start_us = median_call_us(STARTS, |_| FlexLogCluster::start(cluster_spec()).shutdown());
    out.put("core.cluster_start_ms", start_us / 1e3);

    let cluster = FlexLogCluster::start(cluster_spec());
    out.put(
        "core.add_color_us",
        median_call_us(COLORS, |i| {
            cluster
                .add_color(ColorId(i as u32 + 1))
                .expect("fresh color")
        }),
    );
    cluster.shutdown();
}
