//! # flexlog-types
//!
//! Shared vocabulary of the FlexLog system (paper §4 "FlexLog's abstraction
//! and system model"):
//!
//! * a [`ColorId`] names a *color* — a region of the log with its own total
//!   order; colors form a tree rooted at the master region;
//! * a [`SeqNum`] is the 64-bit sequence number a sequencer assigns to a
//!   record: the most-significant 32 bits carry the sequencer [`Epoch`], the
//!   least-significant 32 bits a per-epoch counter (§5.2 "Safety"), so SNs
//!   keep increasing across sequencer fail-overs;
//! * a [`Token`] uniquely identifies an append request: the caller's
//!   [`FunctionId`] in the high 32 bits and a per-caller counter in the low
//!   32 bits (Algorithm 1, line 6) — the basis of append idempotence;
//! * a [`Payload`] is the zero-copy record body shared by the whole data
//!   path: `Arc<[u8]>`-backed, so broadcasting an append to every replica of
//!   a shard, retransmitting it, and inserting it into the DRAM cache are
//!   all reference-count bumps instead of byte copies;
//! * a [`Batch`] is the records of one append, shared the same way: the
//!   client builds it once and every replica's message, retransmit and
//!   staging area holds the same slice;
//! * a [`CommittedRecord`] is a payload together with its assigned SN;
//! * [`FastState`] is the hasher of every map an append touches.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// Identifier of a color (log region). Color 0 is the master region — the
/// root of the color tree, also used as the *special color* brokering
/// multi-color appends (§6.4).
#[derive(
    Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default,
)]
pub struct ColorId(pub u32);

impl ColorId {
    /// The master region / special color.
    pub const MASTER: ColorId = ColorId(0);
}

impl fmt::Debug for ColorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == ColorId::MASTER {
            write!(f, "color[master]")
        } else {
            write!(f, "color[{}]", self.0)
        }
    }
}

impl fmt::Display for ColorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Sequencer epoch, incremented on every leader fail-over (§5.2).
#[derive(
    Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Debug,
)]
pub struct Epoch(pub u32);

impl Epoch {
    pub fn next(self) -> Epoch {
        Epoch(self.0 + 1)
    }
}

/// A 64-bit FlexLog sequence number: `epoch << 32 | counter`.
///
/// The epoch in the high bits guarantees that SNs issued by a new sequencer
/// are strictly greater than every SN of the previous one even though the
/// new leader does not know the old counter — the paper's correctness
/// criterion for the ordering layer ("the SNs are increasing", §5.2).
#[derive(
    Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default,
)]
pub struct SeqNum(pub u64);

impl SeqNum {
    /// Builds an SN from its epoch and counter halves.
    pub fn new(epoch: Epoch, counter: u32) -> Self {
        SeqNum(((epoch.0 as u64) << 32) | counter as u64)
    }

    /// The epoch half.
    pub fn epoch(self) -> Epoch {
        Epoch((self.0 >> 32) as u32)
    }

    /// The counter half.
    pub fn counter(self) -> u32 {
        self.0 as u32
    }

    /// The smallest possible SN (epoch 0, counter 0) — used as "before
    /// everything" in range scans.
    pub const ZERO: SeqNum = SeqNum(0);
}

impl fmt::Debug for SeqNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sn[{}:{}]", self.epoch().0, self.counter())
    }
}

impl fmt::Display for SeqNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sn[{}:{}]", self.epoch().0, self.counter())
    }
}

/// Identifier of a serverless function instance appending to the log.
#[derive(
    Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Debug,
)]
pub struct FunctionId(pub u32);

/// Unique append token: `fid << 32 | counter` (Algorithm 1). Replicas and
/// sequencers deduplicate by token, making appends idempotent.
#[derive(
    Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default,
)]
pub struct Token(pub u64);

impl Token {
    pub fn new(fid: FunctionId, counter: u32) -> Self {
        Token(((fid.0 as u64) << 32) | counter as u64)
    }

    pub fn fid(self) -> FunctionId {
        FunctionId((self.0 >> 32) as u32)
    }

    pub fn counter(self) -> u32 {
        self.0 as u32
    }
}

impl fmt::Debug for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tok[f{}:{}]", self.fid().0, self.counter())
    }
}

/// Identifier of a shard (replica group) within the data layer.
#[derive(
    Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Debug,
)]
pub struct ShardId(pub u32);

/// The body of a log record, shared zero-copy across the data path.
///
/// Backed by an `Arc<[u8]>`: cloning a `Payload` — for the per-replica
/// broadcast of an append, a retransmission, a DRAM-cache fill, or a read
/// response — bumps a reference count instead of copying the record bytes.
/// The bytes are immutable for the payload's whole life, which is what makes
/// the sharing sound: every tier and every in-flight message observes the
/// same frozen buffer.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Payload(Arc<[u8]>);

impl Payload {
    /// Wraps a buffer. An `Arc<[u8]>` is taken as is; a `Vec` is copied
    /// once into a new allocation that also holds the reference counts
    /// (`Arc<[u8]>::from(Vec)` cannot reuse the vector's).
    pub fn new(bytes: impl Into<Arc<[u8]>>) -> Self {
        Payload(bytes.into())
    }

    /// Copies a borrowed slice into a fresh payload — the single ingress
    /// copy of the data path (client API boundary).
    pub fn copy_from_slice(bytes: &[u8]) -> Self {
        Payload(Arc::from(bytes))
    }

    /// An empty payload.
    pub fn empty() -> Self {
        Payload(Arc::from(&[][..]))
    }

    /// The record bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }

    /// Byte length.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True for zero-length payloads.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// An owned copy of the bytes (leaves the shared buffer intact).
    pub fn to_vec(&self) -> Vec<u8> {
        self.0.to_vec()
    }
}

impl Deref for Payload {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for Payload {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Self {
        Payload(v.into())
    }
}

impl From<&[u8]> for Payload {
    fn from(v: &[u8]) -> Self {
        Payload::copy_from_slice(v)
    }
}

impl From<String> for Payload {
    fn from(v: String) -> Self {
        Payload(v.into_bytes().into())
    }
}

impl<const N: usize> From<&[u8; N]> for Payload {
    fn from(v: &[u8; N]) -> Self {
        Payload::copy_from_slice(v)
    }
}

impl PartialEq<[u8]> for Payload {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Payload {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Payload {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Payload> for Vec<u8> {
    fn eq(&self, other: &Payload) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Payload {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Payload {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == *other
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "payload[{}B", self.0.len())?;
        if let Ok(s) = std::str::from_utf8(&self.0) {
            if s.len() <= 24 && s.chars().all(|c| !c.is_control()) {
                write!(f, " \"{s}\"")?;
            }
        }
        write!(f, "]")
    }
}

/// The records of one append, in order: built once by the client and shared
/// by the in-flight entry, the shard-wide broadcast, every retransmit and
/// each replica's staging area — cloning one is a reference-count bump.
pub type Batch = Arc<[Payload]>;

/// A record that has been assigned its place in a colored log.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CommittedRecord {
    pub sn: SeqNum,
    pub payload: Payload,
}

impl CommittedRecord {
    pub fn new(sn: SeqNum, payload: impl Into<Payload>) -> Self {
        CommittedRecord {
            sn,
            payload: payload.into(),
        }
    }
}

/// The hasher of the maps on the append path: one folded multiply per
/// 8-byte word, where SipHash-1-3 runs its rounds per word and again to
/// finish. The keys there are tokens, SNs and node ids — a word or two —
/// and a client chooses its tokens, so the function is seeded: once per
/// process, from [`RandomState`], so no fixed set of keys collides in
/// every run.
#[derive(Clone, Copy, Debug)]
pub struct FastState {
    seed: u64,
}

impl FastState {
    /// The process's seeded state.
    pub fn new() -> Self {
        static SEED: OnceLock<u64> = OnceLock::new();
        let seed = *SEED.get_or_init(|| RandomState::new().hash_one(0x5EED_u64));
        FastState { seed }
    }
}

impl Default for FastState {
    fn default() -> Self {
        FastState::new()
    }
}

impl BuildHasher for FastState {
    type Hasher = FastHasher;

    fn build_hasher(&self) -> FastHasher {
        FastHasher(self.seed)
    }
}

/// The hasher [`FastState`] builds.
#[derive(Clone, Copy, Debug)]
pub struct FastHasher(u64);

/// The 128-bit product of `a` and `b`, folded to 64 bits: the low half
/// XOR the high half turned by 32. The low half's low bits are a bijection
/// of the input's low bits, so keys that count up fill a table's buckets
/// one by one; the high half's top bits depend on every input bit and land
/// on the output's low ones, so keys that differ only high up still part.
#[inline]
fn folded_multiply(a: u64, b: u64) -> u64 {
    let full = a as u128 * b as u128;
    full as u64 ^ ((full >> 64) as u64).rotate_left(32)
}

/// 2⁶⁴/φ, odd.
const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for FastHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = folded_multiply(self.0 ^ word, MULTIPLIER);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
        self.write_u64(bytes.len() as u64);
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.write_u64(v as u64)
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.write_u64(v as u64)
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64)
    }

    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.write_u64(v as u64);
        self.write_u64((v >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64)
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` under [`FastState`].
pub type FastMap<K, V> = HashMap<K, V, FastState>;

/// A map that remembers its newest `cap` keys: inserting a new key beyond
/// that forgets the oldest. The one replay memory of the system — a
/// sequencer's answered tokens and child batches, a replica's recently
/// landed tokens.
pub struct BoundedMap<K, V> {
    map: FastMap<K, V>,
    order: VecDeque<K>,
    cap: usize,
}

impl<K: Copy + Eq + Hash, V> BoundedMap<K, V> {
    pub fn new(cap: usize) -> Self {
        BoundedMap { map: FastMap::default(), order: VecDeque::new(), cap }
    }

    /// Inserts or overwrites; an overwritten key keeps its age.
    pub fn insert(&mut self, key: K, value: V) {
        if self.map.insert(key, value).is_none() {
            self.order.push_back(key);
            if self.order.len() > self.cap {
                let oldest = self.order.pop_front().expect("just pushed");
                self.map.remove(&oldest);
            }
        }
    }

    pub fn get(&self, key: &K) -> Option<&V> {
        self.map.get(key)
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn seqnum_packs_epoch_and_counter() {
        let sn = SeqNum::new(Epoch(3), 77);
        assert_eq!(sn.epoch(), Epoch(3));
        assert_eq!(sn.counter(), 77);
        assert_eq!(sn.0, (3u64 << 32) | 77);
    }

    #[test]
    fn seqnum_ordering_respects_epoch_first() {
        // Any SN of a later epoch exceeds every SN of earlier epochs —
        // the paper's monotonicity-across-failover argument.
        let old_max = SeqNum::new(Epoch(1), u32::MAX);
        let new_min = SeqNum::new(Epoch(2), 0);
        assert!(new_min > old_max);
    }

    #[test]
    fn token_packs_fid_and_counter() {
        let t = Token::new(FunctionId(9), 1234);
        assert_eq!(t.fid(), FunctionId(9));
        assert_eq!(t.counter(), 1234);
    }

    #[test]
    fn master_color_is_zero() {
        assert_eq!(ColorId::MASTER, ColorId(0));
        assert_eq!(format!("{:?}", ColorId::MASTER), "color[master]");
        assert_eq!(format!("{:?}", ColorId(4)), "color[4]");
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SeqNum::new(Epoch(1), 5)), "sn[1:5]");
        assert_eq!(format!("{:?}", Token::new(FunctionId(2), 3)), "tok[f2:3]");
    }

    #[test]
    fn payload_clone_shares_bytes() {
        let p = Payload::from(vec![1u8, 2, 3]);
        let q = p.clone();
        // Same allocation: zero-copy sharing, not a byte copy.
        assert!(std::ptr::eq(p.as_slice(), q.as_slice()));
        assert_eq!(p, q);
    }

    #[test]
    fn payload_from_vec_does_not_copy_contents() {
        let v = vec![7u8; 64];
        let p = Payload::from(v.clone());
        assert_eq!(p, v);
        assert_eq!(p.len(), 64);
        assert!(!p.is_empty());
        assert!(Payload::empty().is_empty());
    }

    #[test]
    fn payload_compares_with_byte_types() {
        let p = Payload::from(&b"abc"[..]);
        assert_eq!(p, b"abc");
        assert_eq!(p, *b"abc");
        assert_eq!(p, b"abc".to_vec());
        assert_eq!(p, &b"abc"[..]);
        assert_eq!(p[..2], b"ab"[..]);
    }

    #[test]
    fn payload_debug_previews_utf8() {
        assert_eq!(format!("{:?}", Payload::from(&b"hi"[..])), "payload[2B \"hi\"]");
        assert_eq!(format!("{:?}", Payload::from(vec![0xFF, 0xFE])), "payload[2B]");
    }

    proptest! {
        #[test]
        fn payload_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let p = Payload::from(bytes.clone());
            prop_assert_eq!(p.to_vec(), bytes);
        }

        #[test]
        fn seqnum_roundtrip(e in any::<u32>(), c in any::<u32>()) {
            let sn = SeqNum::new(Epoch(e), c);
            prop_assert_eq!(sn.epoch(), Epoch(e));
            prop_assert_eq!(sn.counter(), c);
        }

        #[test]
        fn seqnum_order_matches_tuple_order(
            e1 in any::<u32>(), c1 in any::<u32>(),
            e2 in any::<u32>(), c2 in any::<u32>(),
        ) {
            let a = SeqNum::new(Epoch(e1), c1);
            let b = SeqNum::new(Epoch(e2), c2);
            prop_assert_eq!(a.cmp(&b), (e1, c1).cmp(&(e2, c2)));
        }

        #[test]
        fn token_roundtrip(f in any::<u32>(), c in any::<u32>()) {
            let t = Token::new(FunctionId(f), c);
            prop_assert_eq!(t.fid(), FunctionId(f));
            prop_assert_eq!(t.counter(), c);
        }
    }
}
