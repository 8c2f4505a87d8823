//! CRC-32 (IEEE 802.3 polynomial), slicing-by-8.
//!
//! Used by [`crate::PmPool`] to validate entries during
//! post-crash recovery scans: a torn or half-flushed record fails its
//! checksum and is treated as the end of the valid log prefix. Every record
//! the pool writes is checksummed, so this is on the commit path: eight
//! 256-entry tables let the loop fold in eight bytes per step instead of
//! one. The output is the classic table-driven CRC-32's, bit for bit.

const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the byte-at-a-time table; `TABLES[k][b]` is the register
/// after byte `b` is followed by `k` zero bytes.
const fn make_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = make_tables();

/// Computes the CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_update(!0, data)
}

/// Feeds `data` into a running CRC-32 register (start from `!0`, invert at
/// the end) — for checksums over several slices.
pub(crate) fn crc32_update(mut c: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let at = |table: usize, v: u32| t[table][(v & 0xFF) as usize];
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = at(7, lo) ^ at(6, lo >> 8) ^ at(5, lo >> 16) ^ at(4, lo >> 24)
            ^ at(3, hi) ^ at(2, hi >> 8) ^ at(1, hi >> 16) ^ at(0, hi >> 24);
    }
    for &b in words.remainder() {
        c = at(0, c ^ b as u32) ^ (c >> 8);
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The byte-at-a-time loop the fast path must agree with.
    fn crc32_update_bytewise(mut c: u32, data: &[u8]) -> u32 {
        for &b in data {
            c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c
    }

    fn random_bytes(rng: &mut StdRng, n: usize) -> Vec<u8> {
        let mut data = vec![0u8; n];
        rng.fill(&mut data[..]);
        data
    }

    #[test]
    fn known_vectors() {
        // Standard test vector for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = b"the quick brown fox".to_vec();
        let orig = crc32(&data);
        data[3] ^= 0x40;
        assert_ne!(crc32(&data), orig);
    }

    #[test]
    fn detects_truncation() {
        let data = b"some record payload bytes";
        assert_ne!(crc32(data), crc32(&data[..data.len() - 1]));
    }

    #[test]
    fn crc_slicing_matches_bytewise_at_every_length_and_alignment() {
        let buf = random_bytes(&mut StdRng::seed_from_u64(1), 1024 + 8);
        for start in 0..8 {
            for len in 0..=1024 {
                let data = &buf[start..start + len];
                assert_eq!(
                    crc32_update(!0, data),
                    crc32_update_bytewise(!0, data),
                    "start {start}, len {len}"
                );
            }
        }
    }

    #[test]
    fn crc_chained_updates_match_one_pass() {
        // Any split of the input into consecutive slices gives the same
        // register as one pass, whichever loop folds each slice in.
        let mut rng = StdRng::seed_from_u64(2);
        for case in 0..500 {
            let len = rng.gen_range(0..700);
            let data = random_bytes(&mut rng, len);
            let whole = crc32_update_bytewise(!0, &data);
            let (mut c, mut at) = (!0u32, 0);
            while at < data.len() {
                let end = (at + rng.gen_range(1..40)).min(data.len());
                c = if rng.gen_bool(0.5) {
                    crc32_update(c, &data[at..end])
                } else {
                    crc32_update_bytewise(c, &data[at..end])
                };
                at = end;
            }
            assert_eq!(c, whole, "case {case}, {} bytes", data.len());
        }
    }
}
