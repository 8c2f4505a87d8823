//! The idempotence map of one color: each committed batch's token → the
//! last SN of its batch, so that a retransmitted append re-acks instead of
//! appending twice.
//!
//! It holds an entry for every batch above the trim head — one per append
//! a replica takes, so it is the largest thing in a replica's heap that
//! grows with every append. An SN is `epoch ‖ counter` and a color's
//! batches fall in a few epochs, so there is one table per epoch and an
//! entry is the whole token and the SN's counter: 12 bytes, where a
//! `HashMap<Token, SeqNum>` slot takes 17. A lookup tries the epochs newest
//! first. Nothing about the tokens is assumed: a thousand functions with
//! one append each cost what one function with a thousand does.

use flexlog_types::{Epoch, SeqNum, Token};

#[derive(Default)]
pub(crate) struct Tokens {
    /// A table per epoch with entries, newest first.
    epochs: Vec<(Epoch, Table)>,
}

impl Tokens {
    /// The last SN of `token`'s batch, if it committed here.
    pub(crate) fn get(&self, token: Token) -> Option<SeqNum> {
        self.epochs
            .iter()
            .find_map(|(epoch, table)| Some(SeqNum::new(*epoch, table.get(token.0)?)))
    }

    /// Notes that `token`'s batch holds `sn`. Records of a batch may arrive
    /// one by one (recovery scan, peer imports); the map keeps the *last*.
    pub(crate) fn note(&mut self, token: Token, sn: SeqNum) {
        let epoch = sn.epoch();
        let at = self.epochs.iter().position(|(e, _)| *e <= epoch).unwrap_or(self.epochs.len());
        if self.epochs.get(at).map(|(e, _)| *e) != Some(epoch) {
            self.epochs.insert(at, (epoch, Table::default()));
        }
        self.epochs[at].1.insert_max(token.0, sn.counter());
    }

    /// Forgets the tokens whose batch ended at or below `through`.
    pub(crate) fn drop_through(&mut self, through: SeqNum) {
        let (epoch, counter) = (through.epoch(), through.counter());
        self.epochs.retain_mut(|(e, table)| {
            if *e == epoch {
                table.retain(|last| last > counter);
            }
            *e > epoch || (*e == epoch && table.len() > 0)
        });
    }

    pub(crate) fn len(&self) -> usize {
        self.epochs.iter().map(|(_, table)| table.len()).sum()
    }
}

/// A token and the counter of its batch's last SN, in 4-byte words so the
/// slot is 12 bytes.
#[derive(Clone, Copy)]
struct Slot([u32; 3]);

impl Slot {
    /// Token `u64::MAX`, which therefore lives beside the slots.
    const EMPTY: Slot = Slot([u32::MAX; 3]);

    fn new(token: u64, last: u32) -> Self {
        Slot([(token >> 32) as u32, token as u32, last])
    }

    fn token(self) -> u64 {
        (self.0[0] as u64) << 32 | self.0[1] as u64
    }

    fn last(self) -> u32 {
        self.0[2]
    }

    fn occupied(&self) -> bool {
        self.token() != u64::MAX
    }
}

/// A `u64 → u32` map in one `Vec<Slot>`, found by linear probing from the
/// key's home slot (`Table::home`), in Robin Hood order: an insert takes
/// the slot of any entry nearer its home than the new one would be, and
/// moves that entry on. Each run of occupied slots therefore lists its
/// entries by home, so a lookup stops at the first entry whose home lies
/// past the key's — a miss costs about what a hit does, instead of a walk
/// to the end of the run (5 to 38 slots at 7/8 full, by token shape). It
/// holds at most 7/8 of its slots, as a `HashMap` does, but grows by half
/// rather than doubling; a retain rebuilds it at the size its survivors
/// need.
#[derive(Default)]
struct Table {
    /// Empty, or at least `MIN_SLOTS` long.
    slots: Vec<Slot>,
    len: usize,
    /// The value under token `u64::MAX`, which packs to `Slot::EMPTY`.
    top: Option<u32>,
}

const MIN_SLOTS: usize = 8;

/// The table length `n` entries grow into, from `MIN_SLOTS` up.
fn slots_for(n: usize) -> usize {
    let mut slots = MIN_SLOTS;
    while n * 8 > slots * 7 {
        slots += slots / 2;
    }
    slots
}

impl Table {
    fn len(&self) -> usize {
        self.len + usize::from(self.top.is_some())
    }

    /// Where `token`'s probe starts: the top bits of its counter times
    /// 2⁶⁴/φ plus its function id times 2⁶⁴/ρ (ρ the plastic number, whose
    /// multiples stay clear of φ's), scaled to the table's length. A
    /// function counting up, many functions appending once and many
    /// functions counting up in turn all spread evenly. (One product of
    /// the whole token, by 2⁶⁴/φ, steps a function id by 0.497 of the
    /// table, and a miss among many one-append functions probed 10 slots
    /// even in Robin Hood order.)
    fn home(&self, token: u64) -> usize {
        let (function, counter) = (token >> 32, token & u64::from(u32::MAX));
        let hash = counter
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(function.wrapping_mul(0xC13F_A9A9_02A6_328F));
        ((hash as u128 * self.slots.len() as u128) >> 64) as usize
    }

    /// How many slots past its home the entry `slot` at `i` sits.
    fn distance(&self, slot: Slot, i: usize) -> usize {
        let home = self.home(slot.token());
        if i >= home {
            i - home
        } else {
            i + self.slots.len() - home
        }
    }

    /// The slot holding `token`, or else how many slots the probe looked
    /// at before it knew `token` is absent.
    fn seek(&self, token: u64) -> Result<usize, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let mut i = self.home(token);
        for probed in 0.. {
            let slot = self.slots[i];
            if !slot.occupied() || self.distance(slot, i) < probed {
                return Err(probed + 1);
            }
            if slot.token() == token {
                return Ok(i);
            }
            i += 1;
            if i == self.slots.len() {
                i = 0;
            }
        }
        unreachable!("a table below 7/8 full has an empty slot")
    }

    fn get(&self, token: u64) -> Option<u32> {
        if token == u64::MAX {
            return self.top;
        }
        self.seek(token).ok().map(|i| self.slots[i].last())
    }

    /// Sets `token` to `last`, or keeps the larger of the two if `token`
    /// is already there.
    fn insert_max(&mut self, token: u64, last: u32) {
        if token == u64::MAX {
            self.top = self.top.max(Some(last));
            return;
        }
        if let Ok(i) = self.seek(token) {
            if self.slots[i].last() < last {
                self.slots[i] = Slot::new(token, last);
            }
            return;
        }
        if (self.len + 1) * 8 > self.slots.len() * 7 {
            let old = std::mem::take(&mut self.slots);
            self.refill(slots_for(self.len + 1), old.into_iter().filter(Slot::occupied));
        }
        self.place(Slot::new(token, last));
    }

    /// Keeps the entries whose value passes `keep`.
    fn retain(&mut self, keep: impl Fn(u32) -> bool) {
        self.top = self.top.filter(|&v| keep(v));
        let old = std::mem::take(&mut self.slots);
        let kept = |s: &Slot| s.occupied() && keep(s.last());
        match old.iter().filter(|&s| kept(s)).count() {
            0 => self.len = 0,
            n => self.refill(slots_for(n), old.into_iter().filter(kept)),
        }
    }

    /// Replaces the slots with `slots` empty ones and inserts `entries`,
    /// which hold distinct tokens.
    fn refill(&mut self, slots: usize, entries: impl Iterator<Item = Slot>) {
        self.slots = vec![Slot::EMPTY; slots];
        self.len = 0;
        for entry in entries {
            self.place(entry);
        }
    }

    /// Inserts `entry`, whose token is not in the table, which has room.
    fn place(&mut self, mut entry: Slot) {
        let mut i = self.home(entry.token());
        let mut distance = 0;
        loop {
            let slot = self.slots[i];
            if !slot.occupied() {
                self.slots[i] = entry;
                self.len += 1;
                return;
            }
            let theirs = self.distance(slot, i);
            if theirs < distance {
                // Robin Hood: the entry nearer its home moves on.
                self.slots[i] = entry;
                (entry, distance) = (slot, theirs);
            }
            distance += 1;
            i += 1;
            if i == self.slots.len() {
                i = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests;
