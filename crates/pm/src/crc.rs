//! CRC-32 (IEEE 802.3 polynomial), table-driven.
//!
//! Used by [`crate::PmPool`] to validate entries during
//! post-crash recovery scans: a torn or half-flushed record fails its
//! checksum and is treated as the end of the valid log prefix.

const POLY: u32 = 0xEDB8_8320;

const fn make_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static TABLE: [u32; 256] = make_table();

/// Computes the CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_update(!0, data)
}

/// Feeds `data` into a running CRC-32 register (start from `!0`, invert at
/// the end) — for checksums over several slices.
pub(crate) fn crc32_update(mut c: u32, data: &[u8]) -> u32 {
    for &b in data {
        c = TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
