//! CRC32 (IEEE 802.3, reflected, polynomial 0xEDB88320) over byte slices.
//!
//! Table-driven, slicing by 8: `TABLES[k][b]` is the checksum state byte
//! `b` leaves after it has been followed by `k` zero bytes, so eight bytes
//! fold into the state with eight independent lookups instead of a chain of
//! eight dependent ones — the same function as the one-table byte loop,
//! which still runs the tail of every slice (and is the tests' reference),
//! at several times its speed. The tables are built at compile time.

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// The one-table loop: `state` after `bytes`, one byte at a time.
fn update_bytewise(mut state: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        state = (state >> 8) ^ TABLES[0][((state ^ b as u32) & 0xFF) as usize];
    }
    state
}

/// CRC32 of `bytes` (same value as zlib's `crc32(0, ...)`).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

/// Incremental CRC32 over multiple byte slices.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// Starts a fresh checksum.
    pub fn new() -> Self {
        Crc32 { state: !0u32 }
    }

    /// Feeds more bytes into the checksum: eight at a time, then the tail
    /// byte by byte.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut state = self.state;
        let mut blocks = bytes.chunks_exact(8);
        for b in &mut blocks {
            let lo = state ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            let hi = u32::from_le_bytes([b[4], b[5], b[6], b[7]]);
            state = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        self.state = update_bytewise(state, blocks.remainder());
    }

    /// Final checksum value.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn incremental_matches_one_shot() {
        let mut inc = Crc32::new();
        inc.update(b"1234");
        inc.update(b"");
        inc.update(b"56789");
        assert_eq!(inc.finish(), crc32(b"123456789"));
    }

    /// The reference: the one-table byte loop over the whole slice.
    fn bytewise(bytes: &[u8]) -> u32 {
        !update_bytewise(!0, bytes)
    }

    #[test]
    fn sliced_crc_equals_the_byte_loop_at_every_length() {
        // A xorshift stream, so every length ends in a different tail.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let bytes: Vec<u8> = (0..=4200)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 56) as u8
            })
            .collect();
        for len in 0..=bytes.len() {
            assert_eq!(
                crc32(&bytes[..len]),
                bytewise(&bytes[..len]),
                "length {len}"
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// Any bytes, fed in two updates split anywhere, checksum as the
        /// byte loop does over the whole.
        #[test]
        fn every_split_of_an_incremental_update_equals_the_byte_loop(
            bytes in proptest::collection::vec(0u8..=255, 0..4201),
        ) {
            let want = bytewise(&bytes);
            proptest::prop_assert_eq!(crc32(&bytes), want);
            for cut in 0..=bytes.len() {
                let mut inc = Crc32::new();
                inc.update(&bytes[..cut]);
                inc.update(&bytes[cut..]);
                proptest::prop_assert_eq!(inc.finish(), want, "split at {}", cut);
            }
        }
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let base = crc32(b"pipelined backprop");
        let mut flipped = b"pipelined backprop".to_vec();
        flipped[3] ^= 0x01;
        assert_ne!(base, crc32(&flipped));
    }
}
