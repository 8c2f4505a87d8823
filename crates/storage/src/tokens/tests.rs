use super::*;
use flexlog_types::FunctionId;

fn tok(fid: u32, counter: u32) -> Token {
    Token::new(FunctionId(fid), counter)
}

fn sn(epoch: u32, counter: u32) -> SeqNum {
    SeqNum::new(Epoch(epoch), counter)
}

#[test]
fn tokens_of_several_functions_and_epochs_read_back() {
    let mut tokens = Tokens::default();
    for c in 1..=1000u32 {
        tokens.note(tok(1, c), sn(1, 2 * c));
        tokens.note(tok(2, c), sn(2, 2 * c + 1));
    }
    assert_eq!(tokens.len(), 2000);
    for c in 1..=1000u32 {
        assert_eq!(tokens.get(tok(1, c)), Some(sn(1, 2 * c)));
        assert_eq!(tokens.get(tok(2, c)), Some(sn(2, 2 * c + 1)));
    }
    assert_eq!(tokens.get(tok(1, 1001)), None);
    assert_eq!(tokens.get(tok(3, 1)), None);
}

#[test]
fn many_functions_with_one_token_each_read_back() {
    let mut tokens = Tokens::default();
    for fid in 1..=5000u32 {
        tokens.note(tok(fid, 1), sn(1, fid));
    }
    assert_eq!(tokens.len(), 5000);
    for fid in 1..=5000u32 {
        assert_eq!(tokens.get(tok(fid, 1)), Some(sn(1, fid)));
        assert_eq!(tokens.get(tok(fid, 2)), None);
    }
    assert_eq!(tokens.epochs.len(), 1, "one table for all of them");
}

#[test]
fn a_batch_noted_record_by_record_keeps_its_last_sn() {
    let mut tokens = Tokens::default();
    tokens.note(tok(1, 7), sn(1, 9));
    tokens.note(tok(1, 7), sn(1, 8));
    tokens.note(tok(1, 7), sn(1, 10));
    assert_eq!((tokens.get(tok(1, 7)), tokens.len()), (Some(sn(1, 10)), 1));
}

#[test]
fn the_extreme_counters_are_ordinary_entries() {
    // Token `u64::MAX` packs to the empty slot marker.
    let mut tokens = Tokens::default();
    for (fid, c, last) in [
        (0, 0, 0),
        (u32::MAX, u32::MAX, u32::MAX),
        (u32::MAX, u32::MAX - 1, u32::MAX),
        (0, 5, 0),
    ] {
        tokens.note(tok(fid, c), sn(1, last));
    }
    assert_eq!(tokens.len(), 4);
    assert_eq!(tokens.get(tok(0, 0)), Some(sn(1, 0)));
    assert_eq!(tokens.get(tok(u32::MAX, u32::MAX)), Some(sn(1, u32::MAX)));
    assert_eq!(tokens.get(tok(u32::MAX, u32::MAX - 1)), Some(sn(1, u32::MAX)));
    tokens.drop_through(sn(1, u32::MAX - 1));
    assert_eq!(tokens.len(), 2);
    assert_eq!(tokens.get(tok(0, 0)), None);
    assert_eq!(tokens.get(tok(u32::MAX, u32::MAX)), Some(sn(1, u32::MAX)));
}

#[test]
fn a_trim_drops_older_epochs_whole_and_splits_its_own() {
    let mut tokens = Tokens::default();
    for c in 1..=100u32 {
        tokens.note(tok(1, c), sn(1, c));
        tokens.note(tok(1, 1000 + c), sn(2, c));
        tokens.note(tok(2, c), sn(3, c));
    }
    tokens.drop_through(sn(2, 40));
    assert_eq!(tokens.len(), 160);
    assert_eq!(
        tokens.get(tok(1, 100)),
        None,
        "epoch 1 is wholly below the head"
    );
    assert_eq!(tokens.get(tok(1, 1040)), None);
    assert_eq!(tokens.get(tok(1, 1041)), Some(sn(2, 41)));
    assert_eq!(
        tokens.get(tok(2, 1)),
        Some(sn(3, 1)),
        "a later epoch is wholly above it"
    );
    let epochs: Vec<Epoch> = tokens.epochs.iter().map(|(e, _)| *e).collect();
    assert_eq!(epochs, [Epoch(3), Epoch(2)]);
    tokens.drop_through(sn(3, 100));
    assert_eq!((tokens.len(), tokens.epochs.len()), (0, 0));
    // Empty again, and usable.
    tokens.note(tok(1, 1), sn(4, 1));
    assert_eq!(tokens.get(tok(1, 1)), Some(sn(4, 1)));
}

#[test]
fn events_in_epoch_order_or_not_keep_the_epochs_sorted() {
    let mut tokens = Tokens::default();
    for e in [2, 5, 1, 3, 5, 4] {
        tokens.note(tok(1, e), sn(e, 1));
    }
    let epochs: Vec<u32> = tokens.epochs.iter().map(|(e, _)| e.0).collect();
    assert_eq!(epochs, [5, 4, 3, 2, 1]);
    assert_eq!(tokens.get(tok(1, 3)), Some(sn(3, 1)));
}

#[test]
fn a_retain_shrinks_the_table_to_its_survivors() {
    let mut table = Table::default();
    for c in 0..10_000u64 {
        table.insert_max(c << 32 | c, c as u32);
    }
    assert_eq!(table.slots.len(), slots_for(10_000));
    table.retain(|v| v >= 9_990);
    assert_eq!((table.len(), table.slots.len()), (10, 12));
    for c in 9_990..10_000u64 {
        assert_eq!(table.get(c << 32 | c), Some(c as u32));
    }
    table.retain(|_| false);
    assert_eq!((table.len(), table.slots.len()), (0, 0));
    assert_eq!(table.get(1), None);
}

#[test]
fn the_table_fills_to_seven_eighths_and_grows_by_half() {
    let mut table = Table::default();
    for t in 1..=7u64 {
        table.insert_max(t, 0);
    }
    assert_eq!(table.slots.len(), 8);
    table.insert_max(8, 0);
    assert_eq!(table.slots.len(), 12);
    let mut t = 8;
    while table.slots.len() < 10_000 {
        let before = table.slots.len();
        while table.slots.len() == before {
            t += 1;
            table.insert_max(t, 0);
        }
        assert_eq!(table.slots.len(), before + before / 2);
        assert_eq!(t as usize - 1, before * 7 / 8, "it grew at the first entry past 7/8");
    }
}

/// Mean slots a lookup of each missing token looks at, over every epoch
/// table.
fn mean_miss_probe(tokens: &Tokens, missing: impl Iterator<Item = Token>) -> f64 {
    let (mut probed, mut n) = (0, 0);
    for token in missing {
        assert_eq!(tokens.get(token), None);
        for (_, table) in &tokens.epochs {
            probed += table.seek(token.0).expect_err("missing");
            n += 1;
        }
    }
    probed as f64 / n as f64
}

#[test]
fn a_missing_token_is_answered_without_a_long_probe() {
    // The tokens fresh appends bring: the next counter of one function
    // counting up, the first of many one-append functions, and 64
    // functions counting up in turn. Checked at the load each table size
    // fills to before it grows (7/8, where plain linear probing walks ~32
    // slots on a miss), then after trims rebuild the table smaller.
    let shapes: [fn(u32) -> Token; 3] = [|i| tok(1, i), |i| tok(i, 1), |i| tok(i % 64, i / 64)];
    for (shape, token) in shapes.into_iter().enumerate() {
        let mut tokens = Tokens::default();
        let mut worst = 0f64;
        for i in 1..=50_000u32 {
            tokens.note(token(i), sn(1, i));
            let slots = tokens.epochs[0].1.slots.len();
            if (i as usize + 1) * 8 > slots * 7 {
                worst = worst.max(mean_miss_probe(&tokens, (i + 1..i + 2_001).map(token)));
            }
        }
        assert!(worst <= 4.0, "shape {shape}: a miss probes {worst:.1} slots on average at 7/8");
        for through in [10_000, 30_000, 49_000] {
            tokens.drop_through(sn(1, through));
            let mean = mean_miss_probe(&tokens, (50_001..52_001).map(token));
            assert!(mean <= 4.0, "shape {shape}: {mean:.1} slots after a trim through {through}");
            for i in [through + 1, 50_000] {
                assert_eq!(tokens.get(token(i)), Some(sn(1, i)));
            }
        }
    }
}
