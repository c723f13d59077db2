//! `parse_event` on trace lines it did not write: arbitrary bytes,
//! truncations and bit flips of the committed trace JSONL. Every line
//! parses to an event or to `None`, never panics, and whatever parses
//! re-serializes to a line that parses back to the same event.

use proptest::prelude::*;
use tcm_telemetry::{event_to_jsonl, parse_event, ClusterKind, TraceEvent};

/// One line per trace event variant.
const GOLDEN: &str = include_str!("fixtures/trace.jsonl");

/// Characters that make random text look like a trace line often
/// enough for the parser to get past its first byte.
const JSONISH: &[u8] = b"{}[]\":,0123456789 \\untrfalsecyl_";

/// `event` survives a second serialize-parse pass unchanged (compared
/// as text, so NaN payloads compare bit-exactly).
fn reparses(event: &TraceEvent) -> bool {
    let line = event_to_jsonl(event);
    parse_event(&line).is_some_and(|again| event_to_jsonl(&again) == line)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_lines_never_panic(
        bytes in proptest::collection::vec(any::<u8>(), 0..96),
        noise in proptest::collection::vec(0..JSONISH.len(), 0..96),
    ) {
        let noise: String = noise.into_iter().map(|i| JSONISH[i] as char).collect();
        for line in [String::from_utf8_lossy(&bytes).into_owned(), noise] {
            if let Some(event) = parse_event(&line) {
                prop_assert!(reparses(&event));
            }
        }
    }

    #[test]
    fn truncated_lines_are_rejected(cut in 0usize..256) {
        for line in GOLDEN.lines() {
            prop_assert!(parse_event(line).is_some());
            if let Some(prefix) = line.get(..cut.min(line.len() - 1)) {
                prop_assert!(parse_event(prefix).is_none(), "{}", prefix);
            }
        }
    }

    #[test]
    fn bit_flips_never_panic(bit in 0..GOLDEN.len() * 8) {
        let mut bytes = GOLDEN.as_bytes().to_vec();
        bytes[bit / 8] ^= 1 << (bit % 8);
        for line in String::from_utf8_lossy(&bytes).lines() {
            if let Some(event) = parse_event(line) {
                prop_assert!(reparses(&event));
            }
        }
    }

    #[test]
    fn valid_lines_round_trip(
        (cycle, thread, rank) in (any::<u64>(), any::<u32>(), any::<u16>()),
        (mpki, rbl, blp) in (any::<u64>(), any::<u64>(), any::<u64>()),
        degraded in any::<bool>(),
    ) {
        let events = [
            TraceEvent::QuantumBoundary { cycle, index: mpki, degraded },
            TraceEvent::ClusterAssignment {
                cycle,
                thread: thread as usize,
                cluster: if degraded { ClusterKind::Latency } else { ClusterKind::Bandwidth },
                rank: rank as usize,
                mpki: f64::from_bits(mpki),
                rbl: f64::from_bits(rbl),
                blp: f64::from_bits(blp),
            },
        ];
        for event in events {
            let line = event_to_jsonl(&event);
            let parsed = parse_event(&line);
            prop_assert!(parsed.is_some(), "{}", line);
            prop_assert_eq!(parsed.map(|e| event_to_jsonl(&e)), Some(line));
        }
    }
}
