//! Self-describing, checksummed records: every byte a workload appends can
//! be re-derived from `(seed, op id)` and checked wherever it resurfaces.
//!
//! Layout: `[0..8)` issue stamp (ns since the run epoch; 0 unless the
//! workload times deliveries), `[8..16)` op id, then seeded body bytes, then
//! a CRC32 of everything before it in the last 4 bytes.

use flexlog_pm::crc32;
use flexlog_types::Payload;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

const HEADER: usize = 16;
const TRAILER: usize = 4;
const POOL_BYTES: usize = 4096;

/// Op ids are unique across callers: caller in the top bits.
pub fn op_id(caller: usize, index: u64) -> u64 {
    ((caller as u64) << 48) | index
}

/// Builds one caller's records from a seeded byte pool.
pub struct RecordGen {
    pool: Vec<u8>,
}

impl RecordGen {
    pub fn new(seed: u64, caller: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ ((caller as u64 + 1) << 32));
        let mut pool = vec![0u8; POOL_BYTES];
        rng.fill_bytes(&mut pool);
        RecordGen { pool }
    }

    pub fn make(&self, len: usize, op: u64, stamp_ns: u64) -> Payload {
        let body = len - HEADER - TRAILER;
        let off = (op.wrapping_mul(31) % (POOL_BYTES - body) as u64) as usize;
        let mut buf = Vec::with_capacity(len);
        buf.extend_from_slice(&stamp_ns.to_le_bytes());
        buf.extend_from_slice(&op.to_le_bytes());
        buf.extend_from_slice(&self.pool[off..off + body]);
        let crc = crc32(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        Payload::from(buf)
    }
}

/// `(stamp_ns, op id)` of a record whose checksum holds; `None` otherwise.
pub fn parse(bytes: &[u8]) -> Option<(u64, u64)> {
    if bytes.len() < HEADER + TRAILER {
        return None;
    }
    let (head, tail) = bytes.split_at(bytes.len() - TRAILER);
    if crc32(head).to_le_bytes() != tail {
        return None;
    }
    let stamp = u64::from_le_bytes(head[0..8].try_into().expect("8 bytes"));
    let op = u64::from_le_bytes(head[8..16].try_into().expect("8 bytes"));
    Some((stamp, op))
}
