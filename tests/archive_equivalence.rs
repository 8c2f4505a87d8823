//! Property: archiving is invisible to readers. A log whose prefix has
//! been sealed into object-store segments and dropped from the live tiers
//! must read and scan byte-identically to a log that never archived —
//! over seeded, jittered datacenter links, mixed colors, and policy rounds
//! fired at arbitrary points in the append stream.

use std::sync::Arc;

use flexlog::core::{ClusterSpec, ColorId, FlexLogCluster};
use flexlog::ctrl::ControlPlane;
use flexlog::pm::{ClockMode, DeviceClock};
use flexlog::simnet::NetConfig;
use flexlog::storage::TierConfig;
use flexlog::tier::SimObjectStore;
use proptest::prelude::*;

const COLORS: [ColorId; 2] = [ColorId(1), ColorId(2)];

fn spec(seed: u64) -> ClusterSpec {
    ClusterSpec {
        net: NetConfig {
            seed: Some(seed),
            ..NetConfig::datacenter()
        },
        ..ClusterSpec::single_shard()
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6,
        max_shrink_iters: 16,
    })]

    #[test]
    fn archived_log_reads_like_an_unarchived_one(
        seed in 0u64..1024,
        ops in proptest::collection::vec((0usize..2, any::<u8>()), 8..40),
        archive_every in 4usize..10,
    ) {
        let store = Arc::new(SimObjectStore::new(DeviceClock::new(ClockMode::Off)));
        let mut tiered_spec = spec(seed);
        let mut tier = TierConfig::new(store);
        tier.segment_records = 3; // several segments per round
        tiered_spec.storage.tier = Some(tier);

        let plain = FlexLogCluster::start(spec(seed));
        let tiered = FlexLogCluster::start(tiered_spec);
        for color in COLORS {
            plain.add_color(color).unwrap();
            tiered.add_color(color).unwrap();
        }
        let mut hp = plain.handle();
        let mut ht = tiered.handle();
        let mut plane = ControlPlane::new(&tiered);

        // Same append stream into both clusters; the tiered one also runs
        // policy archive rounds (all but the newest record) mid-stream.
        let mut sns_p: [Vec<_>; 2] = [Vec::new(), Vec::new()];
        let mut sns_t: [Vec<_>; 2] = [Vec::new(), Vec::new()];
        let mut bytes: [Vec<Vec<u8>>; 2] = [Vec::new(), Vec::new()];
        for (i, &(ci, byte)) in ops.iter().enumerate() {
            let payload = vec![byte; 24];
            sns_p[ci].push(hp.append(&payload, COLORS[ci]).unwrap());
            sns_t[ci].push(ht.append(&payload, COLORS[ci]).unwrap());
            bytes[ci].push(payload);
            if (i + 1) % archive_every == 0 {
                plane.archive_color(COLORS[ci], 1, u64::MAX, false).unwrap();
            }
        }

        for (ci, &color) in COLORS.iter().enumerate() {
            // Point reads: byte-equal on both clusters, archived or not.
            for ((sp, st), want) in sns_p[ci].iter().zip(&sns_t[ci]).zip(&bytes[ci]) {
                prop_assert_eq!(hp.read(*sp, color).unwrap().as_deref(), Some(&want[..]));
                prop_assert_eq!(ht.read(*st, color).unwrap().as_deref(), Some(&want[..]));
            }
            // Scans: same length, same SNs, same bytes.
            let rp = hp.subscribe(color).unwrap();
            let rt = ht.subscribe(color).unwrap();
            prop_assert_eq!(rp.len(), bytes[ci].len(), "plain scan length");
            prop_assert_eq!(rt.len(), bytes[ci].len(), "tiered scan length");
            for ((a, b), want) in rp.iter().zip(&rt).zip(&bytes[ci]) {
                prop_assert_eq!(a.sn, b.sn, "scan SN order diverged");
                prop_assert_eq!(a.payload.as_slice(), &want[..]);
                prop_assert_eq!(b.payload.as_slice(), &want[..]);
            }
        }
        plain.shutdown();
        tiered.shutdown();
    }
}
