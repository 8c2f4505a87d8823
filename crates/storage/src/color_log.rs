//! The committed log of one color (§5.2), as far as the server keeps it in
//! memory: the set of PM-resident SNs, how many records sit on the SSD, the
//! tail, the trim head below which nothing is served, and the tokens of the
//! committed batches (`tokens.rs`).
//!
//! The SSD tier has no entries here. An SSD block's id is `(color, SN)` in
//! key order, so the device's own block index already lists a color's
//! SSD-resident SNs in order (`SsdDevice::block_ids`), and the server merges
//! that list with the PM set. A spilled record — the one kind that
//! accumulates, one per append — thus costs the heap one index entry, not
//! two. The PM set stays as small as the PM tier; its first element is the
//! color's lowest PM-resident SN, where a `demote` starts. (The watermark
//! spill goes by commit order across colors instead, see `server.rs`.)
//!
//! `ColorLog` is pure bookkeeping: the server moves the bytes (PM
//! transactions, SSD writes) and then records the outcome here, under the
//! server's one lock.

use std::collections::BTreeSet;
use std::ops::{Bound, RangeBounds};

use flexlog_obs::Counter;
use flexlog_types::{SeqNum, Token};

use crate::tokens::Tokens;

/// Which device tier holds a committed record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Placement {
    Pm,
    Ssd,
}

/// The range "strictly above `sn`".
pub(crate) fn above(sn: SeqNum) -> (Bound<SeqNum>, Bound<SeqNum>) {
    (Bound::Excluded(sn), Bound::Unbounded)
}

#[derive(Default)]
pub(crate) struct ColorLog {
    /// The PM-resident records, oldest first.
    pm: BTreeSet<SeqNum>,
    /// How many records are SSD-resident (the SSD's block index names them).
    ssd_resident: usize,
    /// Highest SN held in either tier. Exact, because records only ever
    /// leave as a prefix (trim) or all at once (discard).
    tail: Option<SeqNum>,
    /// Highest trimmed SN (inclusive); only ever advances.
    head: Option<SeqNum>,
    /// The idempotence map: each committed batch's token → its last SN.
    tokens: Tokens,
    /// `storage.color_reads.<id>` — the access-recency signal the tiering
    /// policy's `idle_ms` condition observes; registered on the first read.
    reads: Option<Counter>,
}

impl ColorLog {
    pub(crate) fn head(&self) -> Option<SeqNum> {
        self.head
    }

    pub(crate) fn tail(&self) -> Option<SeqNum> {
        self.tail
    }

    pub(crate) fn len(&self) -> usize {
        self.pm.len() + self.ssd_resident
    }

    pub(crate) fn ssd_resident(&self) -> usize {
        self.ssd_resident
    }

    /// True when `sn` is at or below the trim head: live reads refuse it
    /// even if the bytes are still held (the `install_head` contract).
    pub(crate) fn trimmed(&self, sn: SeqNum) -> bool {
        self.head.is_some_and(|h| sn <= h)
    }

    /// True when `sn` is PM-resident.
    pub(crate) fn in_pm(&self, sn: SeqNum) -> bool {
        self.pm.contains(&sn)
    }

    /// The PM-resident records inside `range`, lowest SN first.
    pub(crate) fn pm_range(
        &self,
        range: impl RangeBounds<SeqNum>,
    ) -> impl Iterator<Item = SeqNum> + '_ {
        self.pm.range(range).copied()
    }

    /// Counts one read of this color.
    pub(crate) fn count_read(&mut self, register: impl FnOnce() -> Counter) {
        self.reads.get_or_insert_with(register).inc();
    }

    /// Notes a record newly held at `at` (the caller checked it is not
    /// held already).
    pub(crate) fn insert(&mut self, sn: SeqNum, at: Placement) {
        match at {
            Placement::Pm => {
                self.pm.insert(sn);
            }
            Placement::Ssd => self.ssd_resident += 1,
        }
        self.tail = self.tail.max(Some(sn));
    }

    /// Records that the PM-resident `sn` now lives on the SSD.
    pub(crate) fn mark_spilled(&mut self, sn: SeqNum) {
        if self.pm.remove(&sn) {
            self.ssd_resident += 1;
        }
    }

    /// Forgets every record at or below `through` — every record, with
    /// `None` — of which `ssd` were SSD-resident; the server has deleted
    /// them from their tiers.
    pub(crate) fn drop_records(&mut self, through: Option<SeqNum>, ssd: usize) {
        let kept = through.and_then(|h| h.0.checked_add(1)).map(SeqNum);
        self.pm = kept.map_or_else(BTreeSet::new, |from| self.pm.split_off(&from));
        self.ssd_resident -= ssd;
        if through.is_none_or(|h| self.tail <= Some(h)) {
            self.tail = None;
        }
    }

    /// Moves the trim head up to `head`; never backwards.
    pub(crate) fn advance_head(&mut self, head: SeqNum) {
        self.head = self.head.max(Some(head));
    }

    /// The last SN of `token`'s batch, if it committed here.
    pub(crate) fn committed(&self, token: Token) -> Option<SeqNum> {
        self.tokens.get(token)
    }

    /// Notes that `token`'s batch holds `sn`. Records of a batch may arrive
    /// one by one (recovery scan, peer imports); the map keeps the *last*.
    pub(crate) fn note_token(&mut self, token: Token, sn: SeqNum) {
        self.tokens.note(token, sn);
    }

    /// Forgets the tokens whose batch ended at or below `through` — every
    /// token, with `None`.
    pub(crate) fn drop_tokens(&mut self, through: Option<SeqNum>) {
        match through {
            Some(h) => self.tokens.drop_through(h),
            None => self.tokens = Tokens::default(),
        }
    }

    pub(crate) fn token_count(&self) -> usize {
        self.tokens.len()
    }
}

#[cfg(test)]
mod tests;
