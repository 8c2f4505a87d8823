//! The catalog's unit tests: what each change writes, and what it refuses.

use super::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const RED: ColorId = ColorId(1);
const GREEN: ColorId = ColorId(2);
const BLUE: ColorId = ColorId(7);

/// Two shards under leaves 1 and 2, the master region at the root.
fn two_leaves() -> Catalog {
    let c = Catalog::uniform(2, 2, 0, &[RoleId(1), RoleId(2)]);
    c.apply(Change::PlaceColor { color: ColorId::MASTER, role: ROOT }).unwrap();
    c
}

#[test]
fn read_targets_prefer_read_replicas() {
    let c = Catalog::uniform(1, 2, 0, &[ROOT]);
    let s = c.shard(ShardId(0)).unwrap();
    assert_eq!(s.read_targets(), &s.replicas[..]);
    let node = NodeId(900);
    c.apply(Change::AddReadReplica { shard: ShardId(0), node }).unwrap();
    c.apply(Change::AddReadReplica { shard: ShardId(0), node }).unwrap(); // idempotent
    assert_eq!(c.shard(ShardId(0)).unwrap().read_targets(), &[node]);
    c.apply(Change::RemoveReadReplica { shard: ShardId(0), node }).unwrap();
    let s = c.shard(ShardId(0)).unwrap();
    assert_eq!(s.read_targets(), &s.replicas[..]);
    let unknown = Change::AddReadReplica { shard: ShardId(9), node };
    assert_eq!(c.apply(unknown), Err(ColorError::UnknownShard(ShardId(9))));
}

/// Shards and their nodes take consecutive ids, whether laid out at
/// start or added at runtime, and every node finds its shard.
#[test]
fn a_layout_numbers_its_nodes_and_each_node_finds_its_shard() {
    let c = Catalog::uniform(2, 3, 1, &[RoleId(1), RoleId(2)]);
    let added = c.add_shard(2, RoleId(1));
    let replica = |i| NodeId::named(NodeId::CLASS_REPLICA, i);
    let read_replica = |i| NodeId::named(NodeId::CLASS_READ_REPLICA, i);
    let shards = c.all_shards();
    assert_eq!(shards.len(), 3);
    assert_eq!(shards[1].replicas[..], [replica(3), replica(4), replica(5)]);
    assert_eq!(shards[1].leaf, RoleId(2));
    assert_eq!(shards[1].read_replicas, [read_replica(1)]);
    assert_eq!(added, shards[2]);
    assert_eq!(added.id, ShardId(2));
    assert_eq!(added.replicas[..], [replica(6), replica(7)]);
    assert_eq!(c.shard_of(replica(4)).map(|s| s.id), Some(ShardId(1)));
    assert_eq!(c.shard_of(read_replica(0)).map(|s| s.id), Some(ShardId(0)));
    assert_eq!(c.shard_of(replica(8)), None);
}

/// A color lands on its owner's region: a leaf's own shards, every
/// shard at the root; a sub-color inherits its parent's home.
#[test]
fn a_color_is_stored_on_its_owners_region() {
    let c = two_leaves();
    c.apply(Change::PlaceColor { color: RED, role: RoleId(2) }).unwrap();
    c.apply(Change::AddColor { color: GREEN, parent: ColorId::MASTER }).unwrap();
    let child = ColorId(3);
    c.apply(Change::AddColor { color: child, parent: RED }).unwrap();
    let ids = |color| c.shards_of(color).iter().map(|s| s.id).collect::<Vec<_>>();
    assert_eq!(ids(RED), [ShardId(1)]);
    assert_eq!(ids(GREEN), [ShardId(0), ShardId(1)]);
    assert_eq!((c.home(child), ids(child)), (Some((RoleId(2), None)), vec![ShardId(1)]));
    assert_eq!(c.parent(child), Some(RED));
    assert_eq!(c.parent(ColorId::MASTER), None);
    assert_eq!(c.colors_on(ShardId(1)), [ColorId::MASTER, RED, GREEN, child]);
    assert_eq!(c.colors_on(ShardId(0)), [ColorId::MASTER, GREEN]);
    assert_eq!(c.owned_by(RoleId(2)), [RED, child]);
    assert!(c.knows_color(RED) && !c.knows_color(ColorId(9)));
}

#[test]
fn a_refused_change_writes_nothing() {
    let c = two_leaves();
    c.apply(Change::PlaceColor { color: RED, role: RoleId(1) }).unwrap();
    let before = c.version();
    let refused = [
        (Change::AddColor { color: RED, parent: ColorId::MASTER }, ColorError::AlreadyExists(RED)),
        (Change::AddColor { color: GREEN, parent: BLUE }, ColorError::UnknownParent(BLUE)),
        (Change::PlaceColor { color: GREEN, role: RoleId(7) }, ColorError::EmptyRegion(RoleId(7))),
        (Change::DropColor { color: ColorId::MASTER }, ColorError::UnknownColor(ColorId::MASTER)),
        (Change::DropColor { color: GREEN }, ColorError::UnknownColor(GREEN)),
        (Change::MoveColor { color: RED, dest: ShardId(9) }, ColorError::UnknownShard(ShardId(9))),
        (Change::MoveColor { color: GREEN, dest: ShardId(0) }, ColorError::UnknownColor(GREEN)),
    ];
    for (change, error) in refused {
        assert_eq!(c.apply(change.clone()), Err(error), "{change:?}");
    }
    assert_eq!(c.version(), before);
    assert_eq!(c.colors(), [ColorId::MASTER, RED]);
    assert_eq!(c.shards_of(RED).len(), 1);
}

/// An ordering-only tree has no shards: a placed color gets none, and
/// is still ordered by its role.
#[test]
fn a_catalog_without_shards_places_colors_without_shards() {
    let c = Catalog::new();
    c.apply(Change::PlaceColor { color: RED, role: RoleId(1) }).unwrap();
    assert_eq!(c.owner(RED), Some(RoleId(1)));
    assert!(c.shards_of(RED).is_empty() && !c.knows_color(RED));
}

/// A dropped color is gone from every reader, and its children move up
/// to its parent.
#[test]
fn a_dropped_color_leaves_every_view() {
    let c = two_leaves();
    c.apply(Change::AddColor { color: RED, parent: ColorId::MASTER }).unwrap();
    c.apply(Change::AddColor { color: GREEN, parent: RED }).unwrap();
    c.apply(Change::DropColor { color: RED }).unwrap();
    assert!(!c.contains(RED) && c.home(RED).is_none() && c.shards_of(RED).is_empty());
    assert!(!c.colors().contains(&RED) && !c.colors_on(ShardId(0)).contains(&RED));
    assert!(!c.owned_by(ROOT).contains(&RED));
    assert_eq!(c.parent(GREEN), Some(ColorId::MASTER));
}

#[test]
fn a_move_routes_a_color_to_one_shard() {
    let c = two_leaves();
    c.apply(Change::AddColor { color: RED, parent: ColorId::MASTER }).unwrap();
    c.apply(Change::MoveColor { color: RED, dest: ShardId(1) }).unwrap();
    assert_eq!(c.colors_on(ShardId(0)), [ColorId::MASTER]);
    let mut rng = StdRng::seed_from_u64(3);
    for _ in 0..20 {
        let shard = c.random_shard_of(RED, |n| rng.gen_range(0..n));
        assert_eq!(shard.map(|s| s.id), Some(ShardId(1)));
    }
}

#[test]
fn random_shard_is_member() {
    let c = two_leaves();
    let mut rng = StdRng::seed_from_u64(3);
    let mut seen = std::collections::HashSet::new();
    for _ in 0..50 {
        seen.insert(c.random_shard_of(ColorId::MASTER, |n| rng.gen_range(0..n)).unwrap().id);
    }
    assert_eq!(seen.len(), 2, "both shards should be picked eventually");
    assert!(c.random_shard_of(ColorId(9), |n| rng.gen_range(0..n)).is_none());
}

/// A split re-homes only what the donor owns, copies its region, and
/// the swapped split takes it back.
#[test]
fn a_split_and_its_roll_back() {
    let c = two_leaves();
    let (donor, new_role) = (RoleId(1), RoleId(3));
    c.apply(Change::PlaceColor { color: RED, role: donor }).unwrap();
    c.apply(Change::PlaceColor { color: GREEN, role: RoleId(2) }).unwrap();
    let moved = vec![RED, GREEN];
    c.apply(Change::Split { donor, new_role, moved: moved.clone() }).unwrap();
    assert_eq!(c.home(RED), Some((new_role, Some(new_role))));
    assert_eq!(c.home(GREEN), Some((RoleId(2), None)), "not the donor's");
    let child = ColorId(3);
    c.apply(Change::PlaceColor { color: child, role: new_role }).unwrap();
    assert_eq!(c.shards_of(child), c.shards_of(RED), "the donor's region");
    c.apply(Change::Split { donor: new_role, new_role: donor, moved }).unwrap();
    assert_eq!(c.home(RED), Some((donor, Some(donor))));
    assert_eq!(c.owned_by(new_role), [child]);
}
