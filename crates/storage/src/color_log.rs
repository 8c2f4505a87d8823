//! The committed log of one color (§5.2): an SN-ordered index saying which
//! device tier holds each record, the trim head below which nothing is
//! served, and the PM/SSD boundary — "a contiguous portion from the start
//! of the log is flushed to SSD and removed from PM".
//!
//! `ColorLog` owns that state and is the only code that touches the index
//! map. It is pure bookkeeping: the server moves the bytes (PM
//! transactions, SSD writes) and then records the outcome here, under the
//! server's one lock.

use std::collections::BTreeMap;
use std::ops::{Bound, RangeBounds};

use flexlog_obs::Counter;
use flexlog_types::SeqNum;

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
    index: BTreeMap<SeqNum, Placement>,
    /// Highest trimmed SN (inclusive); only ever advances.
    head: Option<SeqNum>,
    /// How many index entries are SSD-resident.
    ssd_resident: usize,
    /// Every index entry below this SN is SSD-resident, so the spill victim
    /// selector starts here instead of re-walking what it already moved.
    pm_floor: SeqNum,
    /// `storage.color_reads.<id>` — the access-recency signal the tiering
    /// policy's `idle_ms` condition observes; registered on the first read.
    reads: Option<Counter>,
}

impl ColorLog {
    pub(crate) fn head(&self) -> Option<SeqNum> {
        self.head
    }

    pub(crate) fn tail(&self) -> Option<SeqNum> {
        self.index.keys().next_back().copied()
    }

    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    pub(crate) fn ssd_resident(&self) -> usize {
        self.ssd_resident
    }

    /// True when `sn` is at or below the trim head: live reads refuse it
    /// even if the bytes are still indexed (the `install_head` contract).
    pub(crate) fn trimmed(&self, sn: SeqNum) -> bool {
        self.head.is_some_and(|h| sn <= h)
    }

    /// Where `sn` lives, if it is indexed.
    pub(crate) fn placement(&self, sn: SeqNum) -> Option<Placement> {
        self.index.get(&sn).copied()
    }

    /// The indexed records inside `range`, oldest first.
    pub(crate) fn range(
        &self,
        range: impl RangeBounds<SeqNum>,
    ) -> impl Iterator<Item = (SeqNum, Placement)> + '_ {
        self.index.range(range).map(|(&sn, &at)| (sn, at))
    }

    /// The spill victim selector: up to `max` of the oldest PM-resident
    /// records.
    pub(crate) fn oldest_pm(&self, max: usize) -> impl Iterator<Item = SeqNum> + '_ {
        self.range(self.pm_floor..)
            .filter(|&(_, at)| at == Placement::Pm)
            .map(|(sn, _)| sn)
            .take(max)
    }

    /// Counts one read of this color.
    pub(crate) fn count_read(&mut self, register: impl FnOnce() -> Counter) {
        self.reads.get_or_insert_with(register).inc();
    }

    /// True when a record fetched from a peer at `sn` is news here: not
    /// trimmed and not already indexed.
    pub(crate) fn admits(&self, sn: SeqNum) -> bool {
        !self.trimmed(sn) && !self.index.contains_key(&sn)
    }

    /// Indexes `sn` at `at`.
    pub(crate) fn insert(&mut self, sn: SeqNum, at: Placement) {
        if at == Placement::Pm && (self.index.len() == self.ssd_resident || sn < self.pm_floor) {
            self.pm_floor = sn;
        }
        let prev = self.index.insert(sn, at);
        self.ssd_resident += usize::from(at == Placement::Ssd);
        self.ssd_resident -= usize::from(prev == Some(Placement::Ssd));
    }

    /// Records that the PM-resident `sn` now lives on the SSD. Spills go
    /// oldest first, so the floor follows them to the next PM-resident
    /// record.
    pub(crate) fn mark_spilled(&mut self, sn: SeqNum) {
        match self.index.get_mut(&sn) {
            Some(at) if *at == Placement::Pm => *at = Placement::Ssd,
            _ => return,
        }
        self.ssd_resident += 1;
        if self.range(self.pm_floor..).next().is_some_and(|(first, _)| first == sn) {
            let next_pm = self.range(above(sn)).find(|&(_, at)| at == Placement::Pm);
            self.pm_floor = next_pm.map_or(SeqNum(sn.0.saturating_add(1)), |(next, _)| next);
        }
    }

    pub(crate) fn remove(&mut self, sn: SeqNum) {
        if self.index.remove(&sn) == Some(Placement::Ssd) {
            self.ssd_resident -= 1;
        }
    }

    /// Moves the trim head up to `head`; never backwards.
    pub(crate) fn advance_head(&mut self, head: SeqNum) {
        self.head = self.head.max(Some(head));
    }
}

#[cfg(test)]
mod tests;
