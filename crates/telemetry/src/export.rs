//! Trace exporters: JSONL (lossless, machine-first) and Chrome trace
//! format (loadable by Perfetto / `chrome://tracing`).
//!
//! The JSONL schema is one flat object per line with a snake_case
//! `"event"` tag. Floats travel as `*_bits` fields holding the decimal
//! rendering of their IEEE-754 bit pattern, so a parsed event is
//! bit-identical to the emitted one (NaN and infinity included) — the
//! same convention as the sweep checkpoint format. Lines whose
//! `"event"` tag is unknown are skipped, so writers may interleave
//! their own marker lines (e.g. `tcm-run`'s `cell_begin` separators).
//!
//! The Chrome export maps events to instant events (`"ph":"i"`) with
//! the simulated cycle as the microsecond timestamp, and offers
//! counter (`"C"`) and process-metadata (`"M"`) helpers so callers can
//! assemble a full multi-process trace (one process per sweep cell).

use crate::event::{
    ClusterKind, DegradationAnomaly, MonitorCounter, QuarantineReason, RowOutcome, ShuffleAlgo,
    TraceEvent,
};
use std::fmt::Write as _;
use tcm_chaos::FaultKind;
use tcm_types::json::{self, Value};

// ---------------------------------------------------------------------
// Flat-object writing helpers over the workspace codec: string,
// unsigned-integer and boolean fields, each followed by a comma that
// `finish_object` trims.
// ---------------------------------------------------------------------

fn field_str(out: &mut String, key: &str, value: &str) {
    json::write_str(out, key);
    out.push(':');
    json::write_str(out, value);
    out.push(',');
}

fn field_u64(out: &mut String, key: &str, value: u64) {
    json::write_str(out, key);
    out.push(':');
    let _ = write!(out, "{value}");
    out.push(',');
}

fn field_bool(out: &mut String, key: &str, value: bool) {
    json::write_str(out, key);
    out.push(':');
    out.push_str(if value { "true" } else { "false" });
    out.push(',');
}

fn field_f64_bits(out: &mut String, key: &str, value: f64) {
    field_u64(out, key, value.to_bits());
}

fn finish_object(mut out: String) -> String {
    if out.ends_with(',') {
        out.pop();
    }
    out.push('}');
    out
}

/// Serializes one event as a single JSONL line (no trailing newline).
pub fn event_to_jsonl(event: &TraceEvent) -> String {
    let mut out = String::from("{");
    field_str(&mut out, "event", event.kind_name());
    match event {
        TraceEvent::QuantumBoundary { cycle, index, degraded } => {
            field_u64(&mut out, "cycle", *cycle);
            field_u64(&mut out, "index", *index);
            field_bool(&mut out, "degraded", *degraded);
        }
        TraceEvent::ClusterAssignment { cycle, thread, cluster, rank, mpki, rbl, blp } => {
            field_u64(&mut out, "cycle", *cycle);
            field_u64(&mut out, "thread", *thread as u64);
            field_str(&mut out, "cluster", cluster.name());
            field_u64(&mut out, "rank", *rank as u64);
            field_f64_bits(&mut out, "mpki_bits", *mpki);
            field_f64_bits(&mut out, "rbl_bits", *rbl);
            field_f64_bits(&mut out, "blp_bits", *blp);
        }
        TraceEvent::ShuffleApplied { cycle, algo } => {
            field_u64(&mut out, "cycle", *cycle);
            field_str(&mut out, "algo", algo.name());
        }
        TraceEvent::RequestServiced { cycle, thread, channel, bank, outcome } => {
            field_u64(&mut out, "cycle", *cycle);
            field_u64(&mut out, "thread", *thread as u64);
            field_u64(&mut out, "channel", *channel as u64);
            field_u64(&mut out, "bank", *bank as u64);
            field_str(&mut out, "row_state", outcome.name());
        }
        TraceEvent::BankActivate { cycle, channel, bank, row } => {
            field_u64(&mut out, "cycle", *cycle);
            field_u64(&mut out, "channel", *channel as u64);
            field_u64(&mut out, "bank", *bank as u64);
            field_u64(&mut out, "row", *row as u64);
        }
        TraceEvent::BankPrecharge { cycle, channel, bank } => {
            field_u64(&mut out, "cycle", *cycle);
            field_u64(&mut out, "channel", *channel as u64);
            field_u64(&mut out, "bank", *bank as u64);
        }
        TraceEvent::DegradationFallback(a) => match a {
            DegradationAnomaly::ImplausibleCounter { cycle, thread, counter, value, upper } => {
                field_u64(&mut out, "cycle", *cycle);
                field_u64(&mut out, "thread", *thread as u64);
                field_str(&mut out, "counter", counter.name());
                field_f64_bits(&mut out, "value_bits", *value);
                field_f64_bits(&mut out, "upper_bits", *upper);
            }
            DegradationAnomaly::ControllerQuarantined { cycle, controller, reason } => {
                field_u64(&mut out, "cycle", *cycle);
                field_u64(&mut out, "controller", *controller as u64);
                field_str(&mut out, "reason", reason.name());
            }
            DegradationAnomaly::ControllerReadmitted { cycle, controller, clean_quanta } => {
                field_u64(&mut out, "cycle", *cycle);
                field_u64(&mut out, "controller", *controller as u64);
                field_u64(&mut out, "clean_quanta", *clean_quanta);
            }
        },
        TraceEvent::ChaosInjected { cycle, kind } => {
            field_u64(&mut out, "cycle", *cycle);
            field_str(&mut out, "kind", kind.name());
        }
    }
    finish_object(out)
}

/// Serializes a batch of events, one JSONL line each, with a trailing
/// newline when non-empty.
pub fn events_to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&event_to_jsonl(e));
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------
// JSONL parsing.
// ---------------------------------------------------------------------

/// Parses one JSONL line back into a [`TraceEvent`]. Returns `None`
/// for malformed lines **and** for well-formed objects whose `"event"`
/// tag is not a known kind (forward compatibility: writers may add
/// marker lines).
pub fn parse_event(line: &str) -> Option<TraceEvent> {
    let doc = json::parse(line)?;
    // Events are flat: a nested value means the line is not one.
    if doc
        .as_obj()?
        .iter()
        .any(|(_, v)| matches!(v, Value::Obj(_) | Value::Arr(_)))
    {
        return None;
    }
    let u = |key: &str| doc.field(key).and_then(Value::as_u64);
    let s = |key: &str| doc.field(key).and_then(Value::as_str);
    let f = |key: &str| u(key).map(f64::from_bits);
    let kind = s("event")?;
    Some(match kind {
        "quantum_boundary" => TraceEvent::QuantumBoundary {
            cycle: u("cycle")?,
            index: u("index")?,
            degraded: doc.field("degraded").and_then(Value::as_bool)?,
        },
        "cluster_assignment" => TraceEvent::ClusterAssignment {
            cycle: u("cycle")?,
            thread: u("thread")? as usize,
            cluster: ClusterKind::from_name(s("cluster")?)?,
            rank: u("rank")? as usize,
            mpki: f("mpki_bits")?,
            rbl: f("rbl_bits")?,
            blp: f("blp_bits")?,
        },
        "shuffle_applied" => TraceEvent::ShuffleApplied {
            cycle: u("cycle")?,
            algo: ShuffleAlgo::from_name(s("algo")?)?,
        },
        "request_serviced" => TraceEvent::RequestServiced {
            cycle: u("cycle")?,
            thread: u("thread")? as usize,
            channel: u("channel")? as usize,
            bank: u("bank")? as usize,
            outcome: RowOutcome::from_name(s("row_state")?)?,
        },
        "bank_activate" => TraceEvent::BankActivate {
            cycle: u("cycle")?,
            channel: u("channel")? as usize,
            bank: u("bank")? as usize,
            row: u("row")? as usize,
        },
        "bank_precharge" => TraceEvent::BankPrecharge {
            cycle: u("cycle")?,
            channel: u("channel")? as usize,
            bank: u("bank")? as usize,
        },
        // The anomaly variant is discriminated by field presence: the
        // historical implausible-counter shape carries "counter", the
        // quarantine shapes carry "reason" / "clean_quanta".
        "degradation_fallback" if doc.field("counter").is_some() => {
            TraceEvent::DegradationFallback(DegradationAnomaly::ImplausibleCounter {
                cycle: u("cycle")?,
                thread: u("thread")? as usize,
                counter: MonitorCounter::from_name(s("counter")?)?,
                value: f("value_bits")?,
                upper: f("upper_bits")?,
            })
        }
        "degradation_fallback" if doc.field("reason").is_some() => {
            TraceEvent::DegradationFallback(DegradationAnomaly::ControllerQuarantined {
                cycle: u("cycle")?,
                controller: u("controller")? as usize,
                reason: QuarantineReason::from_name(s("reason")?)?,
            })
        }
        "degradation_fallback" => TraceEvent::DegradationFallback(
            DegradationAnomaly::ControllerReadmitted {
                cycle: u("cycle")?,
                controller: u("controller")? as usize,
                clean_quanta: u("clean_quanta")?,
            },
        ),
        "chaos_injected" => {
            let kind_name = s("kind")?;
            TraceEvent::ChaosInjected {
                cycle: u("cycle")?,
                kind: FaultKind::ALL.into_iter().find(|k| k.name() == kind_name)?,
            }
        }
        _ => return None,
    })
}

/// Parses a JSONL document, keeping events in line order and skipping
/// blank, malformed and unknown-kind lines.
pub fn parse_jsonl(text: &str) -> Vec<TraceEvent> {
    text.lines().filter_map(parse_event).collect()
}

// ---------------------------------------------------------------------
// Chrome trace format.
// ---------------------------------------------------------------------

/// One Chrome-trace *instant* event object for `event`, attributed to
/// process `pid`. Per-thread events use the simulated thread id as the
/// trace `tid`; machine-level events land on tid 0. The simulated
/// cycle becomes the microsecond timestamp.
pub fn chrome_event(event: &TraceEvent, pid: u64) -> String {
    let mut out = String::from("{");
    field_str(&mut out, "name", event.kind_name());
    field_str(&mut out, "ph", "i");
    field_str(&mut out, "s", "p");
    field_u64(&mut out, "ts", event.cycle());
    field_u64(&mut out, "pid", pid);
    let tid = match event {
        TraceEvent::ClusterAssignment { thread, .. }
        | TraceEvent::RequestServiced { thread, .. } => *thread as u64,
        TraceEvent::DegradationFallback(DegradationAnomaly::ImplausibleCounter {
            thread, ..
        }) => *thread as u64,
        _ => 0,
    };
    field_u64(&mut out, "tid", tid);
    json::write_str(&mut out, "args");
    out.push(':');
    out.push_str(&chrome_args(event));
    out.push(',');
    finish_object(out)
}

fn chrome_args(event: &TraceEvent) -> String {
    let mut out = String::from("{");
    match event {
        TraceEvent::QuantumBoundary { index, degraded, .. } => {
            field_u64(&mut out, "index", *index);
            field_bool(&mut out, "degraded", *degraded);
        }
        TraceEvent::ClusterAssignment { cluster, rank, mpki, rbl, blp, .. } => {
            field_str(&mut out, "cluster", cluster.name());
            field_u64(&mut out, "rank", *rank as u64);
            for (key, v) in [("mpki", mpki), ("rbl", rbl), ("blp", blp)] {
                json::write_str(&mut out, key);
                out.push(':');
                json::number(&mut out, *v);
                out.push(',');
            }
        }
        TraceEvent::ShuffleApplied { algo, .. } => {
            field_str(&mut out, "algo", algo.name());
        }
        TraceEvent::RequestServiced { channel, bank, outcome, .. } => {
            field_u64(&mut out, "channel", *channel as u64);
            field_u64(&mut out, "bank", *bank as u64);
            field_str(&mut out, "row_state", outcome.name());
        }
        TraceEvent::BankActivate { channel, bank, row, .. } => {
            field_u64(&mut out, "channel", *channel as u64);
            field_u64(&mut out, "bank", *bank as u64);
            field_u64(&mut out, "row", *row as u64);
        }
        TraceEvent::BankPrecharge { channel, bank, .. } => {
            field_u64(&mut out, "channel", *channel as u64);
            field_u64(&mut out, "bank", *bank as u64);
        }
        TraceEvent::DegradationFallback(a) => match a {
            DegradationAnomaly::ImplausibleCounter { counter, value, .. } => {
                field_str(&mut out, "counter", counter.name());
                json::write_str(&mut out, "value");
                out.push(':');
                json::number(&mut out, *value);
                out.push(',');
            }
            DegradationAnomaly::ControllerQuarantined { controller, reason, .. } => {
                field_u64(&mut out, "controller", *controller as u64);
                field_str(&mut out, "reason", reason.name());
            }
            DegradationAnomaly::ControllerReadmitted { controller, clean_quanta, .. } => {
                field_u64(&mut out, "controller", *controller as u64);
                field_u64(&mut out, "clean_quanta", *clean_quanta);
            }
        },
        TraceEvent::ChaosInjected { kind, .. } => {
            field_str(&mut out, "kind", kind.name());
        }
    }
    finish_object(out)
}

/// A Chrome-trace process-name metadata event (`"ph":"M"`), naming the
/// track group for process `pid` in the Perfetto UI.
pub fn chrome_process_name(pid: u64, name: &str) -> String {
    let mut out = String::from("{");
    field_str(&mut out, "name", "process_name");
    field_str(&mut out, "ph", "M");
    field_u64(&mut out, "pid", pid);
    json::write_str(&mut out, "args");
    out.push_str(":{");
    json::write_str(&mut out, "name");
    out.push(':');
    json::write_str(&mut out, name);
    out.push_str("}}");
    out
}

/// A Chrome-trace counter event (`"ph":"C"`): one sampled point of a
/// named counter series on process `pid` at timestamp `ts` (cycles).
pub fn chrome_counter(pid: u64, series: &str, ts: u64, value: f64) -> String {
    let mut out = String::from("{");
    field_str(&mut out, "name", series);
    field_str(&mut out, "ph", "C");
    field_u64(&mut out, "ts", ts);
    field_u64(&mut out, "pid", pid);
    json::write_str(&mut out, "args");
    out.push_str(":{");
    json::write_str(&mut out, "value");
    out.push(':');
    json::number(&mut out, value);
    out.push('}');
    out.push(',');
    finish_object(out)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn every_variant() -> Vec<TraceEvent> {
        vec![
            TraceEvent::QuantumBoundary { cycle: 1_000_000, index: 0, degraded: false },
            TraceEvent::ClusterAssignment {
                cycle: 1_000_000,
                thread: 3,
                cluster: ClusterKind::Bandwidth,
                rank: 2,
                mpki: 37.5,
                rbl: 0.25,
                blp: f64::INFINITY,
            },
            TraceEvent::ShuffleApplied { cycle: 1_000_800, algo: ShuffleAlgo::Insertion },
            TraceEvent::RequestServiced {
                cycle: 1_001_000,
                thread: 1,
                channel: 2,
                bank: 3,
                outcome: RowOutcome::Conflict,
            },
            TraceEvent::BankActivate { cycle: 1_001_100, channel: 2, bank: 3, row: 42 },
            TraceEvent::BankPrecharge { cycle: 1_001_050, channel: 2, bank: 3 },
            TraceEvent::DegradationFallback(DegradationAnomaly::ImplausibleCounter {
                cycle: 2_000_000,
                thread: 0,
                counter: MonitorCounter::Mpki,
                value: f64::NAN,
                upper: f64::INFINITY,
            }),
            TraceEvent::DegradationFallback(DegradationAnomaly::ControllerQuarantined {
                cycle: 2_000_000,
                controller: 2,
                reason: QuarantineReason::StaleSample,
            }),
            TraceEvent::DegradationFallback(DegradationAnomaly::ControllerReadmitted {
                cycle: 4_000_000,
                controller: 2,
                clean_quanta: 2,
            }),
            TraceEvent::ChaosInjected { cycle: 3_000_000, kind: FaultKind::SpillFlood },
            TraceEvent::ChaosInjected { cycle: 3_000_000, kind: FaultKind::ControllerBlackout },
        ]
    }

    /// The committed JSONL of [`every_variant`]. Any change to these
    /// bytes is a trace-format change.
    const GOLDEN: &str = include_str!("../tests/fixtures/trace.jsonl");

    #[test]
    fn jsonl_matches_the_committed_golden() {
        let events = every_variant();
        let text = events_to_jsonl(&events);
        assert_eq!(text, GOLDEN);
        let parsed = parse_jsonl(GOLDEN);
        assert_eq!(events_to_jsonl(&parsed), GOLDEN, "bit-exact round trip");
    }

    #[test]
    fn jsonl_round_trips_every_variant_in_order() {
        let events = every_variant();
        let text = events_to_jsonl(&events);
        let parsed = parse_jsonl(&text);
        assert_eq!(parsed.len(), events.len());
        for (p, e) in parsed.iter().zip(&events) {
            // NaN makes PartialEq fail by design; compare via the
            // serialized form, which is bit-exact.
            assert_eq!(event_to_jsonl(p), event_to_jsonl(e));
        }
    }

    #[test]
    fn unknown_and_malformed_lines_are_skipped() {
        let text = "\
            {\"event\":\"cell_begin\",\"policy\":\"TCM\"}\n\
            {\"event\":\"quantum_boundary\",\"cycle\":5,\"index\":1,\"degraded\":true}\n\
            not json at all\n\
            {\"event\":\"quantum_boundary\",\"cycle\":\"wrong type\"}\n\
            \n";
        let parsed = parse_jsonl(text);
        assert_eq!(
            parsed,
            vec![TraceEvent::QuantumBoundary { cycle: 5, index: 1, degraded: true }]
        );
    }

    #[test]
    fn nested_objects_are_rejected_by_the_flat_parser() {
        assert!(parse_event("{\"event\":\"quantum_boundary\",\"x\":{}}").is_none());
        assert!(parse_event("{\"a\":1} trailing").is_none());
    }

    #[test]
    fn chrome_events_are_flat_json_with_instant_phase() {
        for e in every_variant() {
            let json = chrome_event(&e, 7);
            assert!(json.contains("\"ph\":\"i\""), "{json}");
            assert!(json.contains("\"pid\":7"), "{json}");
            assert!(json.contains(&format!("\"ts\":{}", e.cycle())), "{json}");
            // NaN must never leak into the JSON (it is not valid JSON).
            assert!(!json.contains("NaN"), "{json}");
        }
    }

    #[test]
    fn chrome_metadata_and_counter_shapes() {
        let meta = chrome_process_name(3, "TCM × A");
        assert_eq!(
            meta,
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":3,\
             \"args\":{\"name\":\"TCM × A\"}}"
        );
        let counter = chrome_counter(3, "queue_depth", 500, 12.0);
        assert!(counter.contains("\"ph\":\"C\""));
        assert!(counter.contains("\"value\":12"));
    }
}
