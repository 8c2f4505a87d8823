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

use std::collections::BTreeMap;
use std::hash::Hash;

use flexlog_obs::Counter;
use flexlog_types::{FastMap, Payload};

/// A strict-LRU cache bounded by total value bytes.
pub struct LruCache<K> {
    capacity_bytes: usize,
    used_bytes: usize,
    /// key → (value, lru stamp)
    map: FastMap<K, (Payload, u64)>,
    /// lru stamp → key (oldest first)
    order: BTreeMap<u64, K>,
    next_stamp: u64,
    /// Counts evictions, so eviction pressure shows up on the cluster
    /// metrics surface (hits and misses are counted by the owning server).
    evictions: Counter,
}

impl<K: Eq + Hash + Clone> LruCache<K> {
    /// Creates a cache bounded to `capacity_bytes` of values, counting its
    /// evictions into `evictions`.
    pub fn new(capacity_bytes: usize, evictions: Counter) -> Self {
        LruCache {
            capacity_bytes,
            used_bytes: 0,
            map: FastMap::default(),
            order: BTreeMap::new(),
            next_stamp: 0,
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
        while self.used_bytes + value.len() > self.capacity_bytes {
            let Some((&stamp, _)) = self.order.iter().next() else {
                break;
            };
            let old_key = self.order.remove(&stamp).expect("stamp present");
            if let Some((old_val, _)) = self.map.remove(&old_key) {
                self.used_bytes -= old_val.len();
                self.evictions.inc();
            }
        }
        let stamp = self.bump();
        self.used_bytes += value.len();
        self.order.insert(stamp, key.clone());
        self.map.insert(key, (value, stamp));
    }

    /// Looks up `key`, refreshing its recency on hit. A hit returns an `Arc`
    /// clone of the cached buffer — no byte copy.
    pub fn get(&mut self, key: &K) -> Option<Payload> {
        let stamp = self.bump();
        let (value, old_stamp) = self.map.get_mut(key)?;
        self.order.remove(old_stamp);
        self.order.insert(stamp, key.clone());
        *old_stamp = stamp;
        Some(value.clone())
    }

    /// Removes `key` if present.
    pub fn remove(&mut self, key: &K) {
        if let Some((value, stamp)) = self.map.remove(key) {
            self.order.remove(&stamp);
            self.used_bytes -= value.len();
        }
    }

    /// Drops every entry.
    pub fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
        self.used_bytes = 0;
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Bytes of cached values.
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    fn bump(&mut self) -> u64 {
        let s = self.next_stamp;
        self.next_stamp += 1;
        s
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
}
