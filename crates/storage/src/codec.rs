//! The one place that knows how the storage server lays records out on its
//! devices: PM pool keys, SSD block ids, and the value formats behind them.
//!
//! * a **committed record** is stored as `token ‖ payload` (8-byte LE token
//!   prefix) under [`committed_key`] in PM or [`ssd_block_id`] on the SSD —
//!   the same bytes in both tiers, so a spill is a plain copy;
//! * a **staged batch** is `color ‖ count ‖ (len ‖ payload)*` under
//!   [`staged_key`];
//! * a **trim head** is the 8-byte LE SN under [`head_key`].
//!
//! The key's top byte tags the kind; a committed key is the SSD block id
//! with the tag on top, so [`color_sn_of`] inverts both.

use std::ops::{Bound, RangeBounds};

use flexlog_types::{Batch, ColorId, Payload, SeqNum, Token};

pub(crate) const TAG_MASK: u128 = 0xFF << 120;
pub(crate) const TAG_COMMITTED: u128 = 1 << 120;
pub(crate) const TAG_STAGED: u128 = 2 << 120;
pub(crate) const TAG_HEAD: u128 = 3 << 120;

pub(crate) fn ssd_block_id(color: ColorId, sn: SeqNum) -> u128 {
    ((color.0 as u128) << 64) | sn.0 as u128
}

pub(crate) fn committed_key(color: ColorId, sn: SeqNum) -> u128 {
    TAG_COMMITTED | ssd_block_id(color, sn)
}

/// Inverse of [`committed_key`] and [`ssd_block_id`].
pub(crate) fn color_sn_of(id: u128) -> (ColorId, SeqNum) {
    (ColorId((id >> 64) as u32), SeqNum(id as u64))
}

/// The SSD block ids of `color`'s records inside `range`: block ids sort
/// by color, then SN, so this is one contiguous span of the SSD's index.
pub(crate) fn ssd_block_range(
    color: ColorId,
    range: impl RangeBounds<SeqNum>,
) -> (Bound<u128>, Bound<u128>) {
    let end = |bound: Bound<&SeqNum>, unbounded: u64| match bound {
        Bound::Unbounded => Bound::Included(ssd_block_id(color, SeqNum(unbounded))),
        bound => bound.map(|&sn| ssd_block_id(color, sn)),
    };
    (end(range.start_bound(), 0), end(range.end_bound(), u64::MAX))
}

pub(crate) fn staged_key(token: Token) -> u128 {
    TAG_STAGED | token.0 as u128
}

/// Inverse of [`staged_key`].
pub(crate) fn staged_token_of(key: u128) -> Token {
    Token(key as u64)
}

pub(crate) fn head_key(color: ColorId) -> u128 {
    TAG_HEAD | color.0 as u128
}

/// Inverse of [`head_key`].
pub(crate) fn head_color_of(key: u128) -> ColorId {
    ColorId(key as u32)
}

/// Bytes of the value [`write_record`] makes of `payload`.
pub(crate) fn record_len(payload: &[u8]) -> usize {
    8 + payload.len()
}

/// Appends a committed record's stored value to `out` — a PM transaction's
/// buffer or an SSD write's, so no value is a buffer of its own.
pub(crate) fn write_record(out: &mut Vec<u8>, token: Token, payload: &[u8]) {
    out.extend_from_slice(&token.0.to_le_bytes());
    out.extend_from_slice(payload);
}

/// The append token of a stored committed record, without copying its
/// payload (recovery reads only this).
pub(crate) fn record_token(raw: &[u8]) -> Token {
    Token(u64::from_le_bytes(raw[..8].try_into().expect("8-byte token prefix")))
}

pub(crate) fn decode_record(raw: &[u8]) -> (Token, Payload) {
    (record_token(raw), Payload::from(&raw[8..]))
}

pub(crate) fn encode_head(head: SeqNum) -> [u8; 8] {
    head.0.to_le_bytes()
}

pub(crate) fn decode_head(raw: &[u8]) -> SeqNum {
    SeqNum(u64::from_le_bytes(raw.try_into().expect("8-byte head value")))
}

/// A batch staged under its token: what [`write_staged`] stores, and what
/// the server keeps in DRAM (the client's batch as it arrived, shared, not
/// copied) until the commit writes the records from it.
pub(crate) struct StagedBatch {
    pub(crate) color: ColorId,
    pub(crate) payloads: Batch,
}

/// Bytes of the value [`write_staged`] makes of `payloads`.
pub(crate) fn staged_len(payloads: &[Payload]) -> usize {
    8 + payloads.iter().map(|p| p.len() + 4).sum::<usize>()
}

/// Appends a staged batch's stored value to `out`.
pub(crate) fn write_staged(out: &mut Vec<u8>, color: ColorId, payloads: &[Payload]) {
    out.extend_from_slice(&color.0.to_le_bytes());
    out.extend_from_slice(&(payloads.len() as u32).to_le_bytes());
    for p in payloads {
        out.extend_from_slice(&(p.len() as u32).to_le_bytes());
        out.extend_from_slice(p);
    }
}

pub(crate) fn decode_staged(v: &[u8]) -> StagedBatch {
    let u32_at = |off: usize| u32::from_le_bytes(v[off..off + 4].try_into().expect("4 bytes"));
    let color = ColorId(u32_at(0));
    let count = u32_at(4) as usize;
    let mut off = 8;
    let payloads = (0..count)
        .map(|_| {
            let len = u32_at(off) as usize;
            off += 4 + len;
            Payload::from(&v[off - len..off])
        })
        .collect();
    StagedBatch { color, payloads }
}
