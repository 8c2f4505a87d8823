//! The contract of [`BoundedMap`]: the newest `cap` keys stay, in insertion
//! order, and overwriting a key neither ages nor renews it.

use flexlog_types::BoundedMap;

#[test]
fn the_oldest_key_leaves_when_a_new_one_exceeds_the_cap() {
    let mut m = BoundedMap::new(3);
    for k in 1..=3u32 {
        m.insert(k, k * 10);
    }
    assert!(!m.is_empty());
    m.insert(4, 40);
    assert_eq!(m.len(), 3);
    assert_eq!(m.get(&1), None, "1 was the oldest");
    assert_eq!(m.get(&2), Some(&20));
    assert_eq!(m.get(&4), Some(&40));
}

#[test]
fn overwriting_keeps_the_keys_age_and_evicts_nothing() {
    let mut m = BoundedMap::new(2);
    m.insert('a', 1);
    m.insert('b', 2);
    m.insert('a', 3);
    assert_eq!((m.len(), m.get(&'a'), m.get(&'b')), (2, Some(&3), Some(&2)));
    // 'a' is still the oldest, although it was written last.
    m.insert('c', 4);
    assert_eq!((m.get(&'a'), m.get(&'b'), m.get(&'c')), (None, Some(&2), Some(&4)));
}
