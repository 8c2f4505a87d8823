//! A private copy of `flexlog_types::FastState` (this crate depends on no
//! other of the workspace) for the pool's index and the SSD's page cache.
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

pub(crate) type FastMap<K, V> = std::collections::HashMap<K, V, FastState>;
#[derive(Clone, Copy)]
pub(crate) struct FastState(u64);
pub(crate) struct FastHasher(u64);

impl Default for FastState {
    fn default() -> Self {
        static SEED: OnceLock<u64> = OnceLock::new();
        FastState(*SEED.get_or_init(|| RandomState::new().hash_one(0x5EED_u64)))
    }
}
impl BuildHasher for FastState {
    type Hasher = FastHasher;
    fn build_hasher(&self) -> FastHasher {
        FastHasher(self.0)
    }
}
impl Hasher for FastHasher {
    fn write_u64(&mut self, word: u64) {
        let full = (self.0 ^ word) as u128 * 0x9E37_79B9_7F4A_7C15;
        self.0 = full as u64 ^ ((full >> 64) as u64).rotate_left(32);
    }
    fn write(&mut self, bytes: &[u8]) {
        bytes.chunks(8).for_each(|c| self.write_u64(c.iter().rev().fold(0, |w, &b| w << 8 | b as u64)));
        self.write_u64(bytes.len() as u64);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}
