use super::*;
use flexlog_types::FunctionId;

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

#[test]
fn spill_victims_are_the_oldest_pm_records() {
    let mut log = pm_log(100);
    for c in 1..=40 {
        log.mark_spilled(sn(c));
    }
    // The PM set holds PM records only, so the selector starts at the
    // oldest one without walking what already moved.
    let victims: Vec<SeqNum> = log.pm_range(..).take(8).collect();
    assert_eq!(victims, (41..=48).map(sn).collect::<Vec<_>>());
    assert_eq!(log.ssd_resident(), 40);
    assert_eq!(log.len(), 100);
    assert_eq!(log.tail(), Some(sn(100)));
}

#[test]
fn a_late_pm_record_below_the_spilled_prefix_is_the_next_victim() {
    let mut log = ColorLog::default();
    for c in 10..=20 {
        log.insert(sn(c), Placement::Pm);
    }
    for c in 10..=15 {
        log.mark_spilled(sn(c));
    }
    // A hole below the spilled prefix fills late (sync-phase import).
    log.insert(sn(7), Placement::Pm);
    assert_eq!(log.pm_range(..).take(2).collect::<Vec<_>>(), vec![sn(7), sn(16)]);
    log.mark_spilled(sn(7));
    assert_eq!(log.pm_range(..).next(), Some(sn(16)));
    assert_eq!((log.len(), log.ssd_resident(), log.tail()), (12, 7, Some(sn(20))));
}

#[test]
fn spilling_twice_or_an_unknown_record_changes_nothing() {
    let mut log = pm_log(3);
    log.insert(sn(4), Placement::Ssd);
    log.mark_spilled(sn(1));
    log.mark_spilled(sn(1));
    log.mark_spilled(sn(4)); // already on the SSD
    log.mark_spilled(sn(99));
    assert_eq!((log.len(), log.ssd_resident()), (4, 2));
    assert!(!log.in_pm(sn(1)) && log.in_pm(sn(2)) && !log.in_pm(sn(4)));
}

#[test]
fn dropping_a_prefix_keeps_the_rest_and_the_tail() {
    let mut log = pm_log(10);
    for c in 11..=15 {
        log.insert(sn(c), Placement::Ssd);
    }
    for c in 1..=3 {
        log.mark_spilled(sn(c));
    }
    // A trim through 5: three SSD and two PM records go.
    log.drop_records(Some(sn(5)), 3);
    assert_eq!(log.pm_range(..).collect::<Vec<_>>(), (6..=10).map(sn).collect::<Vec<_>>());
    assert_eq!((log.len(), log.ssd_resident(), log.tail()), (10, 5, Some(sn(15))));
    // Through the tail: nothing is left, so there is no tail either.
    log.drop_records(Some(sn(15)), 5);
    assert_eq!((log.len(), log.ssd_resident(), log.tail()), (0, 0, None));
    // A new record after that sets it again.
    log.insert(sn(20), Placement::Pm);
    assert_eq!(log.tail(), Some(sn(20)));
    log.drop_records(None, 0);
    assert_eq!((log.len(), log.tail()), (0, None));
    log.drop_records(Some(sn(u64::MAX)), 0);
    assert_eq!(log.len(), 0);
}

#[test]
fn tokens_keep_the_last_sn_and_go_with_the_prefix() {
    let tok = |i: u32| Token::new(FunctionId(1), i);
    let mut log = ColorLog::default();
    // A batch's records arrive out of order (recovery's unordered scan).
    log.note_token(tok(1), sn(3));
    log.note_token(tok(1), sn(1));
    log.note_token(tok(2), sn(5));
    assert_eq!(log.committed(tok(1)), Some(sn(3)));
    log.drop_tokens(Some(sn(2)));
    assert_eq!(log.committed(tok(1)), Some(sn(3)), "batch tail still live");
    log.drop_tokens(Some(sn(3)));
    assert_eq!((log.committed(tok(1)), log.token_count()), (None, 1));
    log.drop_tokens(None);
    assert_eq!(log.token_count(), 0);
}

#[test]
fn head_only_advances_and_gates_reads_not_holding() {
    let mut log = pm_log(5);
    log.advance_head(sn(3));
    log.advance_head(sn(2));
    assert_eq!(log.head(), Some(sn(3)));
    assert!(log.trimmed(sn(3)) && !log.trimmed(sn(4)));
    // Records under an installed head stay held (a later trim frees them).
    assert!(log.in_pm(sn(2)));
    assert_eq!(log.tail(), Some(sn(5)));
    assert_eq!(log.pm_range(above(sn(3))).collect::<Vec<_>>(), vec![sn(4), sn(5)]);
}
