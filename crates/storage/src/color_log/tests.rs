use super::*;

fn sn(c: u64) -> SeqNum {
    SeqNum(c)
}

/// A log with PM-resident records at SNs `1..=n`.
fn pm_log(n: u64) -> ColorLog {
    let mut log = ColorLog::default();
    for c in 1..=n {
        log.insert(sn(c), Placement::Pm);
    }
    log
}

fn recount(log: &ColorLog) -> usize {
    log.range(..).filter(|&(_, at)| at == Placement::Ssd).count()
}

/// The floor's contract: nothing below it is PM-resident.
fn assert_floor_holds(log: &ColorLog) {
    assert!(
        log.range(..log.pm_floor).all(|(_, at)| at == Placement::Ssd),
        "a PM-resident record sits below the floor {:?}",
        log.pm_floor
    );
}

#[test]
fn victim_selection_starts_at_the_floor() {
    let mut log = pm_log(100);
    for c in 1..=40 {
        log.mark_spilled(sn(c));
    }
    // The floor followed the spills, so the selector's range starts past
    // every record already moved instead of filtering them out again.
    assert_eq!(log.pm_floor, sn(41));
    let victims: Vec<SeqNum> = log.oldest_pm(8).collect();
    assert_eq!(victims, (41..=48).map(sn).collect::<Vec<_>>());
    assert_eq!(log.range(log.pm_floor..).next(), Some((sn(41), Placement::Pm)));
    assert_eq!(log.ssd_resident(), 40);
}

#[test]
fn floor_passes_ssd_records_and_the_end_of_the_log() {
    let mut log = pm_log(3);
    log.insert(sn(4), Placement::Ssd);
    log.insert(sn(5), Placement::Ssd);
    log.insert(sn(6), Placement::Pm);
    for c in 1..=3 {
        log.mark_spilled(sn(c));
    }
    assert_eq!(log.pm_floor, sn(6), "cold-imported records are skipped once");
    log.mark_spilled(sn(6));
    assert_eq!(log.pm_floor, sn(7), "nothing left in PM: the floor is past the tail");
    assert_eq!(log.oldest_pm(usize::MAX).count(), 0);
    assert_floor_holds(&log);
}

#[test]
fn late_pm_insert_below_the_floor_lowers_it() {
    let mut log = ColorLog::default();
    for c in 10..=20 {
        log.insert(sn(c), Placement::Pm);
    }
    for c in 10..=15 {
        log.mark_spilled(sn(c));
    }
    assert_eq!(log.pm_floor, sn(16));
    // A hole below the spilled prefix fills late (sync-phase import).
    log.insert(sn(7), Placement::Pm);
    assert_eq!(log.pm_floor, sn(7));
    assert_floor_holds(&log);
    assert_eq!(log.oldest_pm(2).collect::<Vec<_>>(), vec![sn(7), sn(16)]);
    // Spilling it again lets the floor jump back over the spilled run.
    log.mark_spilled(sn(7));
    assert_eq!(log.pm_floor, sn(16));
}

#[test]
fn floor_survives_the_removal_of_the_record_it_named() {
    let mut log = pm_log(10);
    log.mark_spilled(sn(1));
    log.mark_spilled(sn(2));
    assert_eq!(log.pm_floor, sn(3));
    // A trim takes the prefix, the floor's record included.
    for c in 1..=5 {
        log.remove(sn(c));
    }
    assert_floor_holds(&log);
    assert_eq!(log.oldest_pm(1).next(), Some(sn(6)));
    log.mark_spilled(sn(6));
    assert_eq!(log.pm_floor, sn(7), "the floor catches up past the removed records");
}

#[test]
fn first_pm_record_above_cold_history_sets_the_floor() {
    let mut log = ColorLog::default();
    for c in 1..=50 {
        log.insert(sn(c), Placement::Ssd);
    }
    log.insert(sn(51), Placement::Pm);
    assert_eq!(log.pm_floor, sn(51), "the selector must not walk the cold span");
    assert_floor_holds(&log);
}

#[test]
fn ssd_count_matches_a_recount_through_every_update() {
    let mut log = pm_log(30);
    for c in 31..=40 {
        log.insert(sn(c), Placement::Ssd);
    }
    assert_eq!(log.ssd_resident(), recount(&log));
    for c in (1..=30).step_by(3) {
        log.mark_spilled(sn(c));
        assert_eq!(log.ssd_resident(), recount(&log));
        assert_floor_holds(&log);
    }
    // Marking twice, or marking a record that is not indexed, changes nothing.
    log.mark_spilled(sn(1));
    log.mark_spilled(sn(99));
    assert_eq!(log.ssd_resident(), recount(&log));
    for c in (1..=40).step_by(2) {
        log.remove(sn(c));
        assert_eq!(log.ssd_resident(), recount(&log));
    }
    log.remove(sn(1)); // already gone
    // Re-indexing a record at the other tier replaces, never double counts.
    log.insert(sn(2), Placement::Ssd);
    log.insert(sn(4), Placement::Pm);
    assert_eq!(log.ssd_resident(), recount(&log));
    assert_eq!(log.len(), log.range(..).count());
    assert_floor_holds(&log);
}

#[test]
fn head_only_advances_and_gates_admission_not_indexing() {
    let mut log = pm_log(5);
    log.advance_head(sn(3));
    log.advance_head(sn(2));
    assert_eq!(log.head(), Some(sn(3)));
    assert!(log.trimmed(sn(3)) && !log.trimmed(sn(4)));
    // Records under an installed head stay indexed (a later trim frees
    // them); foreign records at or below it are refused.
    assert_eq!(log.placement(sn(2)), Some(Placement::Pm));
    assert!(!log.admits(sn(2)) && !log.admits(sn(4)) && log.admits(sn(6)));
    assert_eq!(log.tail(), Some(sn(5)));
    assert_eq!(log.range(above(sn(3))).map(|(s, _)| s).collect::<Vec<_>>(), vec![sn(4), sn(5)]);
}
