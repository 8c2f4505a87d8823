//! [`FastState`], the seeded multiply hash of the append path's maps: it is
//! a function within a process, it spreads the structured keys the data
//! path uses — sequential tokens, `(color, SN)` pairs — over a table's
//! buckets, and [`BoundedMap`] built on it behaves like a plain model.

use std::collections::VecDeque;
use std::hash::{BuildHasher, Hash};

use flexlog_types::{BoundedMap, ColorId, Epoch, FastState, FunctionId, SeqNum, Token};
use proptest::prelude::*;

fn hash_of<T: Hash>(state: &FastState, key: &T) -> u64 {
    state.hash_one(key)
}

#[test]
fn hashing_is_deterministic_within_a_process() {
    let (a, b) = (FastState::new(), FastState::default());
    for n in 0..1_000u32 {
        let token = Token::new(FunctionId(7), n);
        assert_eq!(hash_of(&a, &token), hash_of(&a, &token));
        assert_eq!(hash_of(&a, &token), hash_of(&b, &token), "one seed per process");
        let key = (ColorId(n % 5), SeqNum::new(Epoch(1), n));
        assert_eq!(hash_of(&a, &key), hash_of(&b, &key));
    }
    assert_ne!(hash_of(&a, &Token(1)), hash_of(&a, &Token(2)));
}

/// The fullest bucket when `keys` go into a table of 2^`bits` buckets by
/// the low bits of their hash, as a `HashMap` places them.
fn fullest_bucket(keys: impl Iterator<Item = u64>, bits: u32) -> usize {
    let mut buckets = vec![0usize; 1 << bits];
    for hash in keys {
        buckets[(hash & ((1 << bits) - 1)) as usize] += 1;
    }
    buckets.into_iter().max().unwrap_or(0)
}

#[test]
fn structured_keys_spread_over_the_buckets() {
    const BITS: u32 = 17;
    let state = FastState::new();
    let tokens = (0..1u32 << BITS).map(|n| hash_of(&state, &Token::new(FunctionId(3), n)));
    let fullest = fullest_bucket(tokens, BITS);
    assert!(fullest <= 8, "2^17 sequential tokens: {fullest} in one bucket");
    // Four colors, SNs counting up in each, as a storage server's keys go.
    let records = (0..1u32 << BITS)
        .map(|n| hash_of(&state, &(ColorId(1 + n % 4), SeqNum::new(Epoch(1), n / 4))));
    let fullest = fullest_bucket(records, BITS);
    assert!(fullest <= 8, "2^17 (color, SN) keys: {fullest} in one bucket");
}

/// What a [`BoundedMap`] must hold: its newest `cap` keys in insertion
/// order, an overwrite keeping the key's age.
struct Model {
    entries: VecDeque<(u8, u32)>,
    cap: usize,
}

impl Model {
    fn insert(&mut self, key: u8, value: u32) {
        match self.entries.iter_mut().find(|(k, _)| *k == key) {
            Some(entry) => entry.1 = value,
            None => {
                self.entries.push_back((key, value));
                if self.entries.len() > self.cap {
                    self.entries.pop_front();
                }
            }
        }
    }

    fn get(&self, key: u8) -> Option<u32> {
        self.entries.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }
}

proptest! {
    #[test]
    fn bounded_map_matches_a_model(
        cap in 1usize..12,
        ops in proptest::collection::vec((any::<bool>(), 0u8..24, any::<u32>()), 0..200),
    ) {
        let mut map = BoundedMap::new(cap);
        let mut model = Model { entries: VecDeque::new(), cap };
        for (insert, key, value) in ops {
            if insert {
                map.insert(key, value);
                model.insert(key, value);
            }
            prop_assert_eq!(map.get(&key).copied(), model.get(key));
            prop_assert_eq!(map.len(), model.entries.len());
        }
        for key in 0..24u8 {
            prop_assert_eq!(map.get(&key).copied(), model.get(key));
        }
    }
}
