//! Byte-bounded LRU cache — the DRAM tier of a replica's storage stack.
//!
//! The paper's read path consults this volatile cache before PM and SSD
//! (§5.2). Eviction is strict LRU on access order; capacity is counted in
//! payload bytes so large records displace proportionally more entries,
//! matching a real DRAM budget. A DRAM access cost (~80 ns) is charged via
//! the owning server's clock by the caller; the cache itself is pure data
//! structure.
//!
//! Values are zero-copy [`Payload`]s: a cache fill stores an `Arc` clone of
//! the committed record's buffer and a hit hands the same buffer back, so
//! the DRAM tier never duplicates record bytes (the byte budget counts the
//! shared buffer once per entry).

use std::hash::Hash;

use flexlog_obs::Counter;
use flexlog_types::{FastMap, Payload};

/// No entry: the end of the recency list or of the free list.
const NIL: u32 = u32::MAX;

/// A strict-LRU cache bounded by total value bytes: a slab of entries
/// linked in recency order, most recent first, and a map from each key to
/// its entry. A hit, a fill and an eviction each relink one entry and cost
/// O(1) map operations.
pub struct LruCache<K> {
    capacity_bytes: usize,
    used_bytes: usize,
    /// key → its entry in `entries`.
    index: FastMap<K, u32>,
    /// The entries, live and free alike.
    entries: Vec<Entry<K>>,
    /// Most recently used entry.
    newest: u32,
    /// Least recently used entry: the next to go.
    oldest: u32,
    /// Free entries, linked through `next`.
    free: u32,
    /// Counts evictions, so eviction pressure shows up on the cluster
    /// metrics surface (hits and misses are counted by the owning server).
    evictions: Counter,
}

struct Entry<K> {
    /// A free entry keeps the key it last held until it is reused.
    key: K,
    /// `None` in a free entry.
    value: Option<Payload>,
    /// The next more recently used entry.
    prev: u32,
    /// The next less recently used entry, or the next free one.
    next: u32,
}

impl<K: Eq + Hash + Clone> LruCache<K> {
    /// Creates a cache bounded to `capacity_bytes` of values, counting its
    /// evictions into `evictions`.
    pub fn new(capacity_bytes: usize, evictions: Counter) -> Self {
        LruCache {
            capacity_bytes,
            used_bytes: 0,
            index: FastMap::default(),
            entries: Vec::new(),
            newest: NIL,
            oldest: NIL,
            free: NIL,
            evictions,
        }
    }

    /// Inserts (or refreshes) `key`, evicting LRU entries as needed. Values
    /// larger than the whole capacity are not cached at all.
    pub fn put(&mut self, key: K, value: impl Into<Payload>) {
        let value = value.into();
        if value.len() > self.capacity_bytes {
            // Would immediately evict everything for a single uncacheable
            // record; skip (mirrors real caches bypassing huge objects).
            return;
        }
        self.remove(&key);
        while self.used_bytes + value.len() > self.capacity_bytes && self.oldest != NIL {
            let oldest = self.oldest;
            self.index.remove(&self.entries[oldest as usize].key);
            self.release(oldest);
            self.evictions.inc();
        }
        self.used_bytes += value.len();
        let entry = Entry { key: key.clone(), value: Some(value), prev: NIL, next: NIL };
        let i = match self.free {
            NIL => {
                let i = u32::try_from(self.entries.len()).ok().filter(|&i| i != NIL);
                self.entries.push(entry);
                i.expect("fewer than 2^32 - 1 cached entries")
            }
            i => {
                self.free = self.entries[i as usize].next;
                self.entries[i as usize] = entry;
                i
            }
        };
        self.push_newest(i);
        self.index.insert(key, i);
    }

    /// Looks up `key`, refreshing its recency on hit. A hit returns an `Arc`
    /// clone of the cached buffer — no byte copy.
    pub fn get(&mut self, key: &K) -> Option<Payload> {
        let i = *self.index.get(key)?;
        if i != self.newest {
            self.unlink(i);
            self.push_newest(i);
        }
        self.entries[i as usize].value.clone()
    }

    /// Removes `key` if present.
    pub fn remove(&mut self, key: &K) {
        if let Some(i) = self.index.remove(key) {
            self.release(i);
        }
    }

    /// Drops every entry.
    pub fn clear(&mut self) {
        self.index.clear();
        self.entries.clear();
        (self.newest, self.oldest, self.free) = (NIL, NIL, NIL);
        self.used_bytes = 0;
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Bytes of cached values.
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    /// Unlinks live entry `i`, drops its value and frees it; the caller
    /// has taken its key out of the index.
    fn release(&mut self, i: u32) {
        self.unlink(i);
        let entry = &mut self.entries[i as usize];
        let value = entry.value.take().expect("a live entry holds a value");
        self.used_bytes -= value.len();
        entry.next = self.free;
        self.free = i;
    }

    /// Takes entry `i` out of the recency list.
    fn unlink(&mut self, i: u32) {
        let Entry { prev, next, .. } = self.entries[i as usize];
        match prev {
            NIL => self.newest = next,
            p => self.entries[p as usize].next = next,
        }
        match next {
            NIL => self.oldest = prev,
            n => self.entries[n as usize].prev = prev,
        }
    }

    /// Puts unlinked entry `i` at the recent end of the list.
    fn push_newest(&mut self, i: u32) {
        let old = self.newest;
        let entry = &mut self.entries[i as usize];
        (entry.prev, entry.next) = (NIL, old);
        match old {
            NIL => self.oldest = i,
            o => self.entries[o as usize].prev = i,
        }
        self.newest = i;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache<K: Eq + Hash + Clone>(capacity_bytes: usize) -> LruCache<K> {
        LruCache::new(capacity_bytes, Counter::default())
    }

    #[test]
    fn put_get_roundtrip() {
        let mut c = cache(1024);
        c.put("a", b"alpha".to_vec());
        assert_eq!(c.get(&"a").unwrap(), b"alpha");
        assert_eq!(c.get(&"b"), None);
        assert_eq!(c.evictions.get(), 0);
    }

    #[test]
    fn hit_shares_the_cached_buffer() {
        let mut c = cache(1024);
        c.put(1, Payload::from(vec![9u8; 16]));
        let a = c.get(&1).unwrap();
        let b = c.get(&1).unwrap();
        assert!(
            std::ptr::eq(a.as_slice(), b.as_slice()),
            "hits must return the same shared buffer"
        );
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = cache(10);
        c.put(1, vec![0; 4]);
        c.put(2, vec![0; 4]);
        // Touch 1 so 2 becomes LRU.
        c.get(&1);
        c.put(3, vec![0; 4]); // forces eviction of 2
        assert!(c.get(&1).is_some());
        assert!(c.get(&2).is_none());
        assert!(c.get(&3).is_some());
        assert_eq!(c.evictions.get(), 1);
    }

    #[test]
    fn eviction_respects_byte_budget() {
        let mut c = cache(100);
        for i in 0..20u32 {
            c.put(i, vec![0; 30]);
        }
        assert!(c.used_bytes() <= 100);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn oversized_value_is_not_cached() {
        let mut c = cache(10);
        c.put(1, vec![0; 5]);
        c.put(2, vec![0; 100]);
        assert!(c.get(&2).is_none());
        assert!(c.get(&1).is_some(), "existing entries must survive");
    }

    #[test]
    fn overwrite_updates_bytes() {
        let mut c = cache(100);
        c.put(1, vec![0; 50]);
        c.put(1, vec![0; 20]);
        assert_eq!(c.used_bytes(), 20);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn remove_and_clear() {
        let mut c = cache(100);
        c.put(1, vec![0; 10]);
        c.put(2, vec![0; 10]);
        c.remove(&1);
        assert_eq!(c.len(), 1);
        assert_eq!(c.used_bytes(), 10);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.used_bytes(), 0);
    }

    #[test]
    fn lru_order_many_operations() {
        let mut c = cache(5 * 8);
        for i in 0..5u32 {
            c.put(i, vec![0; 8]);
        }
        // Refresh 0 and 1; inserting two more must evict 2 and 3.
        c.get(&0);
        c.get(&1);
        c.put(5, vec![0; 8]);
        c.put(6, vec![0; 8]);
        assert!(c.get(&0).is_some());
        assert!(c.get(&1).is_some());
        assert!(c.get(&2).is_none());
        assert!(c.get(&3).is_none());
        assert!(c.get(&4).is_some());
    }

    mod model {
        use std::collections::{BTreeMap, HashMap};

        use proptest::prelude::*;

        use super::*;

        #[derive(Clone, Debug)]
        enum Op {
            Put { key: u8, len: u8 },
            Get { key: u8 },
            Remove { key: u8 },
            Clear,
        }

        fn op() -> impl Strategy<Value = Op> {
            prop_oneof![
                6 => (0u8..24, 0u8..130).prop_map(|(key, len)| Op::Put { key, len }),
                4 => (0u8..24).prop_map(|key| Op::Get { key }),
                1 => (0u8..24).prop_map(|key| Op::Remove { key }),
                1 => Just(Op::Clear),
            ]
        }

        /// The reference: a recency stamp per key and the keys by stamp.
        #[derive(Default)]
        struct Reference {
            map: HashMap<u8, (Vec<u8>, u64)>,
            order: BTreeMap<u64, u8>,
            stamp: u64,
            used: usize,
            evictions: u64,
        }

        impl Reference {
            const CAPACITY: usize = 120;

            fn bump(&mut self) -> u64 {
                self.stamp += 1;
                self.stamp
            }

            fn put(&mut self, key: u8, value: Vec<u8>) {
                if value.len() > Self::CAPACITY {
                    return;
                }
                self.remove(key);
                while self.used + value.len() > Self::CAPACITY {
                    let Some((_, old)) = self.order.pop_first() else { break };
                    self.used -= self.map.remove(&old).expect("ordered key present").0.len();
                    self.evictions += 1;
                }
                let stamp = self.bump();
                self.used += value.len();
                self.order.insert(stamp, key);
                self.map.insert(key, (value, stamp));
            }

            fn get(&mut self, key: u8) -> Option<Vec<u8>> {
                let stamp = self.bump();
                let (value, old) = self.map.get_mut(&key)?;
                self.order.remove(old);
                self.order.insert(stamp, key);
                *old = stamp;
                Some(value.clone())
            }

            fn remove(&mut self, key: u8) {
                if let Some((value, stamp)) = self.map.remove(&key) {
                    self.order.remove(&stamp);
                    self.used -= value.len();
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

            #[test]
            fn the_cache_matches_a_stamped_reference(ops in proptest::collection::vec(op(), 1..400)) {
                let mut cache = cache(Reference::CAPACITY);
                let mut reference = Reference::default();
                let mut version = 0u8;
                for op in ops {
                    match op {
                        Op::Put { key, len } => {
                            // Distinct bytes per put, so a stale value shows.
                            version = version.wrapping_add(1);
                            let value = vec![version; len as usize];
                            cache.put(key, value.clone());
                            reference.put(key, value);
                        }
                        Op::Get { key } => {
                            let got = cache.get(&key).map(|p| p.as_slice().to_vec());
                            prop_assert_eq!(got, reference.get(key));
                        }
                        Op::Remove { key } => {
                            cache.remove(&key);
                            reference.remove(key);
                        }
                        Op::Clear => {
                            cache.clear();
                            reference.map.clear();
                            reference.order.clear();
                            reference.used = 0;
                        }
                    }
                    prop_assert_eq!(cache.len(), reference.map.len());
                    prop_assert_eq!(cache.used_bytes(), reference.used);
                    prop_assert_eq!(cache.evictions.get(), reference.evictions);
                }
                // The survivors, least recently used first, are the same.
                let mut survivors = Vec::new();
                let mut i = cache.oldest;
                while i != NIL {
                    let entry = &cache.entries[i as usize];
                    survivors.push(entry.key);
                    i = entry.prev;
                }
                prop_assert_eq!(survivors, reference.order.values().copied().collect::<Vec<u8>>());
            }
        }
    }
}
