//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) for on-disk
//! record framing.
//!
//! The durability layer checksums every WAL record and snapshot payload
//! so recovery can tell bit rot from a torn write. CRC-32 is the right
//! tool for that job: it detects *every* single-bit and double-bit error
//! and any burst error up to 32 bits, which covers the realistic
//! single-sector / single-cell corruption modes a scrub is hunting. It is
//! not a cryptographic digest — nothing here defends against an
//! adversary, only against hardware.
//!
//! Implemented in this crate, honoring the workspace's
//! no-external-dependencies constraint, as slicing-by-8: eight 256-entry
//! tables let the loop fold eight input bytes per step with eight
//! independent lookups instead of one dependent lookup per byte, about
//! four times the throughput of the bytewise loop on large inputs. The
//! tables are built in a `const fn`, so the whole thing is
//! allocation-free and usable from any context.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0][b]` is the CRC of the single byte `b`; `TABLES[j][b]` is
/// that byte's contribution after `j` further zero bytes, so one step
/// can fold bytes at eight different distances from the end at once.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[j - 1][i];
            tables[j][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    tables
}

/// CRC-32 of `bytes` (IEEE: init `!0`, final XOR `!0`).
///
/// ```
/// use hashkit::crc32;
/// assert_eq!(crc32(b"123456789"), 0xCBF4_3926); // the standard check value
/// ```
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    !update(!0, bytes)
}

/// A streaming CRC-32 computation over multiple chunks.
///
/// ```
/// use hashkit::crc32::{crc32, Crc32};
/// let mut digest = Crc32::new();
/// digest.update(b"1234");
/// digest.update(b"56789");
/// assert_eq!(digest.finish(), crc32(b"123456789"));
/// ```
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// A fresh digest.
    #[must_use]
    pub fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Folds `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        self.state = update(self.state, bytes);
    }

    /// The CRC of everything folded in so far.
    #[must_use]
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

fn update(mut state: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = state ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        state = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][usize::from(w[4])]
            ^ t[2][usize::from(w[5])]
            ^ t[1][usize::from(w[6])]
            ^ t[0][usize::from(w[7])];
    }
    for &b in words.remainder() {
        state = (state >> 8) ^ t[0][((state ^ u32::from(b)) & 0xFF) as usize];
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The textbook loop, one byte and one table lookup at a time,
    /// computing the table bit by bit so it shares nothing with the
    /// slicing tables: the reference the fast path must equal.
    fn bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    /// Deterministic filler bytes (SplitMix64 output).
    fn noise(len: usize, mut seed: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = seed;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    #[test]
    fn slicing_by_8_equals_bytewise_at_every_short_length_and_offset() {
        // Every tail length and every alignment of the 8-byte steps.
        let data = noise(64 + 8, 1);
        for offset in 0..8 {
            for len in 0..=64 {
                let slice = &data[offset..offset + len];
                assert_eq!(crc32(slice), bytewise(slice), "offset {offset} len {len}");
            }
        }
    }

    #[test]
    fn slicing_by_8_equals_bytewise_on_random_lengths() {
        let data = noise(64 * 1024, 2);
        let mut state = 0x1234_5678_u64;
        for _ in 0..64 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let len = (state >> 33) as usize % (data.len() + 1);
            let start = (state >> 17) as usize % (data.len() - len + 1);
            let slice = &data[start..start + len];
            assert_eq!(crc32(slice), bytewise(slice), "start {start} len {len}");
        }
        assert_eq!(crc32(&data), bytewise(&data));
    }

    #[test]
    fn standard_vectors() {
        // The check value every CRC-32 catalogue lists, plus a few others
        // computed with independent implementations.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data = b"E 42 7 9 and some arbitrary payload bytes \x00\xff";
        for split in 0..data.len() {
            let mut d = Crc32::new();
            d.update(&data[..split]);
            d.update(&data[split..]);
            assert_eq!(d.finish(), crc32(data), "split at {split}");
        }
    }

    #[test]
    fn every_single_bit_flip_changes_the_crc() {
        // The defining guarantee the WAL framing relies on: no single-bit
        // flip anywhere in a record can leave the CRC unchanged.
        let record = b"E 18446744073709551615 42 99";
        let baseline = crc32(record);
        let mut copy = record.to_vec();
        for byte in 0..copy.len() {
            for bit in 0..8 {
                copy[byte] ^= 1 << bit;
                assert_ne!(crc32(&copy), baseline, "flip at {byte}:{bit} undetected");
                copy[byte] ^= 1 << bit;
            }
        }
        assert_eq!(crc32(&copy), baseline, "copy must be restored");
    }

    #[test]
    fn distinct_prefixes_have_distinct_digests() {
        // Sanity: appending a byte always changes the digest.
        let mut prev = crc32(b"");
        let mut buf = Vec::new();
        for b in 0..=255u8 {
            buf.push(b);
            let next = crc32(&buf);
            assert_ne!(next, prev);
            prev = next;
        }
    }
}
