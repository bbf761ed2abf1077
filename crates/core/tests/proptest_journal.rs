//! Property-based tests for the `F <seq> <u> <v> <crc32>` line that
//! `REPL HANDOFF` carries between peers: it round-trips any entry, and
//! — the load-bearing guarantee — no single-bit flip, whitespace
//! injection, or truncation ever passes verification.

use graphstream::VertexId;
use proptest::prelude::*;
use streamlink_core::journal::JournalEntry;

fn arb_entry() -> impl Strategy<Value = JournalEntry> {
    // Full-range ids: the framing must survive u64::MAX-width fields.
    (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(seq, u, v)| JournalEntry {
        seq,
        u: VertexId(u),
        v: VertexId(v),
    })
}

proptest! {
    /// Display → parse round-trips every entry, including max-width u64
    /// ids.
    #[test]
    fn f_line_roundtrip(entry in arb_entry()) {
        let line = entry.to_string();
        prop_assert_eq!(Some(entry), JournalEntry::parse(&line));
    }

    /// Every single-bit flip anywhere in an `F` line is detected: the
    /// damaged line never parses.
    #[test]
    fn every_single_bit_flip_is_detected(entry in arb_entry()) {
        let line = entry.to_string();
        let bytes = line.as_bytes();
        for byte_idx in 0..bytes.len() {
            for bit in 0..8u8 {
                let mut damaged = bytes.to_vec();
                damaged[byte_idx] ^= 1 << bit;
                // A flip may leave invalid UTF-8; that is detection too.
                let Ok(s) = std::str::from_utf8(&damaged) else { continue };
                let parsed = JournalEntry::parse(s);
                prop_assert!(
                    parsed.is_none(),
                    "flip byte {} bit {} of {:?} passed as {:?}",
                    byte_idx, bit, line, parsed,
                );
            }
        }
    }

    /// Injected whitespace (space, tab, CR) at any position — the
    /// classic copy/transport mangling — never yields a valid record.
    #[test]
    fn whitespace_injection_is_rejected(entry in arb_entry(), pos_frac in 0.0f64..1.0, ws in 0usize..3) {
        let line = entry.to_string();
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let pos = ((line.len() + 1) as f64 * pos_frac) as usize;
        let pos = pos.min(line.len());
        let c = [' ', '\t', '\r'][ws];
        let mut mangled = line.clone();
        mangled.insert(pos, c);
        let parsed = JournalEntry::parse(&mangled);
        prop_assert!(
            parsed.is_none(),
            "inserting {c:?} at {pos} in {line:?} passed as {parsed:?}",
        );
    }

    /// No strict prefix of an `F` line verifies: a line cut anywhere is
    /// detected, whatever boundary the cut lands on.
    #[test]
    fn truncation_is_always_detected(entry in arb_entry()) {
        let line = entry.to_string();
        for cut in 0..line.len() {
            let parsed = JournalEntry::parse(&line[..cut]);
            prop_assert!(
                parsed.is_none(),
                "prefix of {cut} bytes of {:?} passed as {:?}",
                line, parsed,
            );
        }
    }
}
