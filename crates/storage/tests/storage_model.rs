//! Model-based property tests of the tiered storage server: random
//! stage/commit/get/scan/trim sequences with power failures, against a
//! simple in-memory model of the committed log. Uses a tiny configuration
//! so the SSD spill path is constantly exercised.

use std::collections::{BTreeMap, HashMap};

use proptest::prelude::*;

use flexlog_storage::{StorageConfig, StorageServer};
use flexlog_types::{ColorId, Epoch, FunctionId, Payload, SeqNum, Token};

const COLORS: [ColorId; 2] = [ColorId(1), ColorId(2)];

#[derive(Clone, Debug)]
enum Op {
    /// Stage a batch of `n` records under a fresh token for color c.
    Stage { color: u8, n: u8 },
    /// Commit the i-th oldest staged token at the next counter.
    CommitOldest,
    Get { color: u8, counter: u16 },
    Scan { color: u8 },
    Trim { color: u8, upto: u16 },
    CrashRecover,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u8..2, 1u8..4).prop_map(|(color, n)| Op::Stage { color, n }),
        4 => Just(Op::CommitOldest),
        3 => (0u8..2, any::<u16>()).prop_map(|(color, counter)| Op::Get { color, counter }),
        1 => (0u8..2).prop_map(|color| Op::Scan { color }),
        1 => (0u8..2, any::<u16>()).prop_map(|(color, upto)| Op::Trim { color, upto }),
        1 => Just(Op::CrashRecover),
    ]
}

fn tiny() -> StorageConfig {
    StorageConfig {
        pm_capacity: 512 << 10,
        cache_capacity: 2 << 10,
        pm_watermark: 24 << 10,
        ..Default::default()
    }
}

struct Model {
    /// Committed: (color idx) → counter → payload.
    committed: [BTreeMap<u32, Vec<u8>>; 2],
    heads: [u32; 2],
    /// Staged tokens in order: (token, color idx, payload count).
    staged: Vec<(Token, usize, u8)>,
    next_counter: [u32; 2],
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    #[test]
    fn storage_matches_model_across_crashes(
        ops in proptest::collection::vec(op_strategy(), 1..60)
    ) {
        let mut server = StorageServer::new(tiny());
        let mut model = Model {
            committed: [BTreeMap::new(), BTreeMap::new()],
            heads: [0, 0],
            staged: Vec::new(),
            next_counter: [0, 0],
        };
        let mut token_counter = 0u32;
        let payload_of = |tok: Token, i: u8| format!("{:x}-{i}", tok.0).into_bytes();

        for op in ops {
            match op {
                Op::Stage { color, n } => {
                    token_counter += 1;
                    let tok = Token::new(FunctionId(1), token_counter);
                    let payloads: Vec<Payload> =
                        (0..n).map(|i| Payload::from(payload_of(tok, i))).collect();
                    assert!(server.stage(tok, COLORS[color as usize], &payloads).unwrap());
                    model.staged.push((tok, color as usize, n));
                }
                Op::CommitOldest => {
                    let Some((tok, c, n)) = model.staged.first().copied() else { continue };
                    model.staged.remove(0);
                    // Assign the next n counters of the color.
                    let last = model.next_counter[c] + n as u32;
                    model.next_counter[c] = last;
                    server.commit(tok, SeqNum::new(Epoch(1), last)).unwrap();
                    for i in 0..n {
                        model.committed[c]
                            .insert(last - (n - 1 - i) as u32, payload_of(tok, i));
                    }
                }
                Op::Get { color, counter } => {
                    let c = color as usize;
                    let counter = if model.next_counter[c] == 0 {
                        1
                    } else {
                        (counter as u32 % (model.next_counter[c] + 2)).max(1)
                    };
                    let got = server
                        .get(COLORS[c], SeqNum::new(Epoch(1), counter))
                        .map(|p| p.to_vec());
                    let want = if counter <= model.heads[c] {
                        None
                    } else {
                        model.committed[c].get(&counter).cloned()
                    };
                    prop_assert_eq!(got, want, "get({}, {}) diverged", c, counter);
                }
                Op::Scan { color } => {
                    let c = color as usize;
                    let got = server.scan(COLORS[c], SeqNum::ZERO).unwrap();
                    let want: Vec<(u32, &Vec<u8>)> = model.committed[c]
                        .iter()
                        .filter(|(&k, _)| k > model.heads[c])
                        .map(|(&k, v)| (k, v))
                        .collect();
                    prop_assert_eq!(got.len(), want.len(), "scan length diverged");
                    for (g, (k, v)) in got.iter().zip(&want) {
                        prop_assert_eq!(g.sn.counter(), *k);
                        prop_assert_eq!(g.payload.as_slice(), v.as_slice());
                    }
                }
                Op::Trim { color, upto } => {
                    let c = color as usize;
                    if model.next_counter[c] == 0 {
                        continue;
                    }
                    let upto = (upto as u32 % model.next_counter[c]).max(1);
                    server.trim(COLORS[c], SeqNum::new(Epoch(1), upto)).unwrap();
                    model.heads[c] = model.heads[c].max(upto);
                }
                Op::CrashRecover => {
                    let (pm, ssd) = server.devices();
                    pm.crash();
                    ssd.crash();
                    drop(server);
                    server = StorageServer::recover(pm, ssd, tiny());
                    // Committed + staged state must have survived.
                    let staged_now: HashMap<Token, (ColorId, usize)> = server
                        .staged_tokens()
                        .into_iter()
                        .map(|(t, c, n)| (t, (c, n)))
                        .collect();
                    prop_assert_eq!(staged_now.len(), model.staged.len(),
                        "staged set diverged after crash");
                    for (tok, c, n) in &model.staged {
                        prop_assert_eq!(
                            staged_now.get(tok).copied(),
                            Some((COLORS[*c], *n as usize)),
                            "staged token {:?} diverged", tok
                        );
                    }
                }
            }
        }

        // Final sweep: every committed live record readable, trimmed gone.
        for (c, &color) in COLORS.iter().enumerate() {
            for (&k, v) in &model.committed[c] {
                let got = server
                    .get(color, SeqNum::new(Epoch(1), k))
                    .map(|p| p.to_vec());
                if k <= model.heads[c] {
                    prop_assert_eq!(got, None, "trimmed {} visible", k);
                } else {
                    prop_assert_eq!(got.as_ref(), Some(v), "final get({}) diverged", k);
                }
            }
        }
    }
}
