//! Model-based property tests of the tiered storage server: random
//! stage / commit / write (both at once) / import / get / scan / fetch /
//! trim / install-head / demote / discard sequences with power failures,
//! against a simple
//! in-memory model of one color's log — with and without a cold tier. Uses
//! a tiny configuration so the SSD spill path is constantly exercised.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use proptest::prelude::*;

use flexlog_pm::{ClockMode, DeviceClock};
use flexlog_storage::{FetchSelect, StorageConfig, StorageServer, TierConfig};
use flexlog_tier::SimObjectStore;
use flexlog_types::{ColorId, Epoch, FunctionId, Payload, SeqNum, Token};

const COLORS: [ColorId; 2] = [ColorId(1), ColorId(2)];

#[derive(Clone, Debug)]
enum Op {
    /// Stage a batch of `n` records under a fresh token for color c.
    Stage { color: u8, n: u8 },
    /// Commit the oldest staged token at the next counters of its color.
    CommitOldest,
    /// One `write` call, as a replica wake makes it: stage a batch of `n`
    /// records of color c per `stage` entry, commit the `commit` oldest
    /// staged tokens, and — with `both` — stage a batch and commit it in
    /// the same call.
    Write { stage: Vec<(u8, u8)>, commit: u8, both: Option<(u8, u8)> },
    /// Install `n` foreign records at the next counters: one by one on PM
    /// (`import`) or in bulk on the SSD (`import_cold`).
    Import { color: u8, n: u8, cold: bool },
    Get { color: u8, counter: u16 },
    Scan { color: u8, from: u16 },
    /// `fetch` `Above` from at or above the head (the replica's handler
    /// clamps it there) and `Exact` over every other counter.
    Fetch { color: u8, from: u16 },
    Trim { color: u8, upto: u16 },
    /// Install a head up to two counters above the tail.
    InstallHead { color: u8, head: u16 },
    Demote { color: u8, n: u8 },
    Discard { color: u8 },
    CrashRecover,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u8..2, 1u8..4).prop_map(|(color, n)| Op::Stage { color, n }),
        4 => Just(Op::CommitOldest),
        3 => (
            proptest::collection::vec((0u8..2, 1u8..4), 0..3),
            0u8..3,
            (any::<bool>(), 0u8..2, 1u8..4),
        )
            .prop_map(|(stage, commit, (b, c, n))| {
                Op::Write { stage, commit, both: b.then_some((c, n)) }
            }),
        2 => (0u8..2, 1u8..4, any::<bool>()).prop_map(|(color, n, cold)| Op::Import { color, n, cold }),
        3 => (0u8..2, any::<u16>()).prop_map(|(color, counter)| Op::Get { color, counter }),
        1 => (0u8..2, any::<u16>()).prop_map(|(color, from)| Op::Scan { color, from }),
        2 => (0u8..2, any::<u16>()).prop_map(|(color, from)| Op::Fetch { color, from }),
        1 => (0u8..2, any::<u16>()).prop_map(|(color, upto)| Op::Trim { color, upto }),
        1 => (0u8..2, any::<u16>()).prop_map(|(color, head)| Op::InstallHead { color, head }),
        1 => (0u8..2, 1u8..6).prop_map(|(color, n)| Op::Demote { color, n }),
        1 => (0u8..2).prop_map(|color| Op::Discard { color }),
        1 => Just(Op::CrashRecover),
    ]
}

/// A few records fit under the watermark, so commits and imports spill.
fn tiny(tier: &Option<TierConfig>) -> StorageConfig {
    StorageConfig {
        pm_capacity: 512 << 10,
        cache_capacity: 2 << 10,
        pm_watermark: 256,
        tier: tier.clone(),
        ..Default::default()
    }
}

fn sn(counter: u32) -> SeqNum {
    SeqNum::new(Epoch(1), counter)
}

fn payload_of(tok: Token, i: u8) -> Vec<u8> {
    format!("{:x}-{i}", tok.0).into_bytes()
}

fn payloads_of(tok: Token, n: u8) -> Vec<Payload> {
    (0..n).map(|i| Payload::from(payload_of(tok, i))).collect()
}

/// One color's log as the server must present it.
#[derive(Default)]
struct ColorModel {
    /// Records held in PM/SSD: counter → (token, payload). Trim and discard
    /// remove them; an installed head only hides them.
    indexed: BTreeMap<u32, (Token, Vec<u8>)>,
    /// Records sealed into the cold tier (tiered runs only).
    archived: BTreeMap<u32, Vec<u8>>,
    head: Option<u32>,
    next_counter: u32,
}

impl ColorModel {
    /// Assigns the next `n` counters to `tok`'s batch and returns its last
    /// SN. They may sit under an installed head: indexed, but not visible.
    fn commit(&mut self, tok: Token, n: u8) -> SeqNum {
        self.next_counter += n as u32;
        for i in 0..n {
            let counter = self.next_counter - (n - 1 - i) as u32;
            self.indexed.insert(counter, (tok, payload_of(tok, i)));
        }
        sn(self.next_counter)
    }

    fn head_or_zero(&self) -> u32 {
        self.head.unwrap_or(0)
    }

    /// What `get` must return: the archive at or below the head, the live
    /// tiers above it.
    fn visible(&self, counter: u32) -> Option<&Vec<u8>> {
        if counter <= self.head_or_zero() {
            self.archived.get(&counter)
        } else {
            self.indexed.get(&counter).map(|(_, p)| p)
        }
    }

    /// What `scan(from)` must return.
    fn scan(&self, from: u32) -> Vec<(u32, &Vec<u8>)> {
        let head = self.head_or_zero();
        let cold = self.archived.iter().filter(|(&k, _)| from < k && k <= head);
        let live = self.indexed.range(from.max(head) + 1..).map(|(k, (_, p))| (k, p));
        cold.chain(live).map(|(&k, p)| (k, p)).collect()
    }

    /// Mirrors `trim`: with a tier the records above the archive boundary
    /// are sealed first, then everything at or below `upto` is dropped.
    fn trim(&mut self, upto: u32, tiered: bool) {
        if self.indexed.is_empty() && self.head.is_none() {
            return; // never appended to: the server fabricates no head
        }
        if tiered {
            let boundary = self.archived.keys().next_back().copied().unwrap_or(0);
            for (&k, (_, p)) in self.indexed.iter().filter(|(&k, _)| boundary < k && k <= upto) {
                self.archived.insert(k, p.clone());
            }
        }
        self.indexed.retain(|&k, _| k > upto);
        self.head = self.head.max(Some(upto));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    #[test]
    fn storage_matches_model_across_crashes(
        tiered in any::<bool>(),
        ops in proptest::collection::vec(op_strategy(), 1..80)
    ) {
        let tier = tiered.then(|| {
            let store = Arc::new(SimObjectStore::new(DeviceClock::new(ClockMode::Off)));
            let mut tier = TierConfig::new(store);
            tier.segment_records = 3; // several segments per trim
            tier
        });
        let mut server = StorageServer::new(tiny(&tier));
        let mut model = [ColorModel::default(), ColorModel::default()];
        // Staged tokens in order: (token, color idx, payload count).
        let mut staged: Vec<(Token, usize, u8)> = Vec::new();
        let mut token_counter = 0u32;

        for op in ops {
            match op {
                Op::Stage { color, n } => {
                    token_counter += 1;
                    let tok = Token::new(FunctionId(1), token_counter);
                    assert!(server.stage(tok, COLORS[color as usize], &payloads_of(tok, n)).unwrap());
                    staged.push((tok, color as usize, n));
                }
                Op::CommitOldest => {
                    if staged.is_empty() {
                        continue;
                    }
                    let (tok, c, n) = staged.remove(0);
                    server.commit(tok, model[c].commit(tok, n)).unwrap();
                }
                Op::Write { stage, commit, both } => {
                    let mut fresh = |color: u8, n: u8| {
                        token_counter += 1;
                        let tok = Token::new(FunctionId(1), token_counter);
                        (tok, color as usize, n)
                    };
                    let admitted: Vec<_> = stage.into_iter().map(|(c, n)| fresh(c, n)).collect();
                    let both = both.map(|(c, n)| fresh(c, n));
                    let ordered: Vec<_> =
                        staged.drain(..(commit as usize).min(staged.len())).chain(both).collect();
                    let items = admitted.iter().chain(&both);
                    let items: Vec<_> =
                        items.map(|&(tok, c, n)| (tok, COLORS[c], payloads_of(tok, n).into())).collect();
                    let commits: Vec<(Token, SeqNum)> =
                        ordered.iter().map(|&(tok, c, n)| (tok, model[c].commit(tok, n))).collect();
                    let written = server.write(&items, &commits);
                    prop_assert!(written.staged.iter().all(|r| *r == Ok(true)), "{:?}", written);
                    let colors: Vec<_> = ordered.iter().map(|&(_, c, _)| Ok(Some(COLORS[c]))).collect();
                    prop_assert_eq!(written.committed, colors);
                    staged.extend(admitted);
                }
                Op::Import { color, n, cold } => {
                    let c = color as usize;
                    let m = &mut model[c];
                    let records: Vec<(Token, SeqNum, Payload)> = (0..n)
                        .map(|i| {
                            token_counter += 1;
                            m.next_counter += 1;
                            let tok = Token::new(FunctionId(2), token_counter);
                            (tok, sn(m.next_counter), Payload::from(payload_of(tok, i)))
                        })
                        .collect();
                    // Records at or below the head are refused.
                    let admitted: Vec<_> = records
                        .iter()
                        .filter(|(_, s, _)| s.counter() > m.head_or_zero())
                        .collect();
                    if cold {
                        let installed = server.import_cold(COLORS[c], &records).unwrap();
                        prop_assert_eq!(installed, admitted.len() as u64);
                        // Idempotent per (color, sn).
                        prop_assert_eq!(server.import_cold(COLORS[c], &records).unwrap(), 0);
                    } else {
                        for (tok, s, p) in &records {
                            let fresh = server.import(COLORS[c], *s, *tok, p).unwrap();
                            prop_assert_eq!(fresh, s.counter() > m.head_or_zero());
                            prop_assert!(!server.import(COLORS[c], *s, *tok, p).unwrap());
                        }
                    }
                    for (tok, s, p) in admitted {
                        m.indexed.insert(s.counter(), (*tok, p.to_vec()));
                    }
                }
                Op::Get { color, counter } => {
                    let c = color as usize;
                    let counter = (counter as u32 % (model[c].next_counter + 2)).max(1);
                    let got = server.get(COLORS[c], sn(counter)).map(|p| p.to_vec());
                    prop_assert_eq!(got.as_ref(), model[c].visible(counter),
                        "get({}, {}) diverged", c, counter);
                }
                Op::Scan { color, from } => {
                    let c = color as usize;
                    let from = from as u32 % (model[c].next_counter + 2);
                    let got = server.scan(COLORS[c], sn(from)).unwrap();
                    let want = model[c].scan(from);
                    prop_assert_eq!(got.len(), want.len(), "scan({}) length diverged", from);
                    for (g, (k, v)) in got.iter().zip(&want) {
                        prop_assert_eq!(g.sn.counter(), *k);
                        prop_assert_eq!(g.payload.as_slice(), v.as_slice());
                    }
                }
                Op::Fetch { color, from } => {
                    let c = color as usize;
                    let m = &model[c];
                    let from = (from as u32 % (m.next_counter + 2)).max(m.head_or_zero());
                    let select = FetchSelect::Above { sn: sn(from), limit: u64::MAX };
                    let above = server.fetch(COLORS[c], &select);
                    let want: Vec<_> = m.indexed.range(from + 1..).collect();
                    prop_assert_eq!(above.len(), want.len(), "fetch above {} diverged", from);
                    // The token-carrying reader, the payload reader and the
                    // point read are three views of the same records.
                    let scanned = server.scan(COLORS[c], sn(from)).unwrap();
                    prop_assert_eq!(scanned.len(), above.len());
                    for (((tok, s, p), (k, (wtok, wp))), rec) in above.iter().zip(want).zip(&scanned) {
                        prop_assert_eq!((s.counter(), tok, p.as_slice()), (*k, wtok, wp.as_slice()));
                        prop_assert_eq!((rec.sn, &rec.payload), (*s, p));
                        prop_assert_eq!(server.get(COLORS[c], *s).as_ref(), Some(p));
                    }
                    // Exact selection reads the index, hidden records too.
                    let picks: Vec<u32> = (1..=m.next_counter + 1).step_by(2).collect();
                    let exact = server.fetch(
                        COLORS[c],
                        &FetchSelect::Exact(picks.iter().map(|&k| sn(k)).collect()),
                    );
                    let want: Vec<_> =
                        picks.iter().filter_map(|k| Some((k, m.indexed.get(k)?))).collect();
                    prop_assert_eq!(exact.len(), want.len(), "fetch exact diverged");
                    for ((tok, s, p), (k, (wtok, wp))) in exact.iter().zip(want) {
                        prop_assert_eq!((s.counter(), tok, p.as_slice()), (*k, wtok, wp.as_slice()));
                    }
                }
                Op::Trim { color, upto } => {
                    let c = color as usize;
                    if model[c].next_counter == 0 {
                        continue;
                    }
                    let upto = (upto as u32 % model[c].next_counter).max(1);
                    server.trim(COLORS[c], sn(upto)).unwrap();
                    model[c].trim(upto, tiered);
                }
                Op::InstallHead { color, head } => {
                    let c = color as usize;
                    let head = (head as u32 % (model[c].next_counter + 3)).max(1);
                    server.install_head(COLORS[c], sn(head)).unwrap();
                    model[c].head = model[c].head.max(Some(head));
                }
                Op::Demote { color, n } => {
                    let c = color as usize;
                    let before = server.ssd_resident(COLORS[c]);
                    let moved = server.demote_color(COLORS[c], n as u64).unwrap() as usize;
                    prop_assert!(moved <= n as usize);
                    prop_assert_eq!(server.ssd_resident(COLORS[c]), before + moved);
                }
                Op::Discard { color } => {
                    let c = color as usize;
                    let removed = server.discard_color(COLORS[c]).unwrap();
                    prop_assert_eq!(removed, model[c].indexed.len() as u64);
                    model[c].indexed.clear();
                    prop_assert_eq!(server.discard_color(COLORS[c]).unwrap(), 0);
                }
                Op::CrashRecover => {
                    let (pm, ssd) = server.devices();
                    pm.crash();
                    ssd.crash();
                    drop(server);
                    server = StorageServer::recover(pm, ssd, tiny(&tier));
                    // Committed + staged state must have survived.
                    let staged_now: HashMap<Token, (ColorId, usize)> = server
                        .staged_tokens()
                        .into_iter()
                        .map(|(t, c, n)| (t, (c, n)))
                        .collect();
                    prop_assert_eq!(staged_now.len(), staged.len(),
                        "staged set diverged after crash");
                    for (tok, c, n) in &staged {
                        prop_assert_eq!(
                            staged_now.get(tok).copied(),
                            Some((COLORS[*c], *n as usize)),
                            "staged token {:?} diverged", tok
                        );
                    }
                }
            }
            // The per-color bookkeeping agrees with the model after every op.
            for (m, &color) in model.iter().zip(&COLORS) {
                prop_assert_eq!(server.record_count(color), m.indexed.len());
                prop_assert_eq!(server.head(color), m.head.map(sn));
                prop_assert_eq!(server.tail(color), m.indexed.keys().next_back().map(|&k| sn(k)));
                prop_assert!(server.ssd_resident(color) <= m.indexed.len());
            }
        }

        // Final sweep: every record ever committed reads as the model says
        // (live, archived, or gone).
        for (m, &color) in model.iter().zip(&COLORS) {
            for counter in 1..=m.next_counter {
                let got = server.get(color, sn(counter)).map(|p| p.to_vec());
                prop_assert_eq!(got.as_ref(), m.visible(counter), "final get({}) diverged", counter);
            }
        }
    }
}
