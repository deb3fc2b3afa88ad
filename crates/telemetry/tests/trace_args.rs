//! Schema round-trip tests for the policy events of
//! `export::chrome_trace_json`: every [`EventKind`] variant must export
//! one well-formed `trace_event` object whose name, timestamp, thread
//! and args survive a parse by the workspace JSON reader.

use chrome_exec::json::{parse, JsonValue};
use chrome_telemetry::{export, EpochSeries, EventKind, EventRing, TraceEvent};

fn ring_with(kinds: Vec<EventKind>) -> EventRing {
    let mut ring = EventRing::new(64, 1);
    for (i, kind) in kinds.into_iter().enumerate() {
        ring.offer(TraceEvent {
            cycle: 100 + i as u64,
            core: i as u32,
            kind,
        });
    }
    ring
}

/// Every variant, with values that exercise sign, zero, and large-u64
/// edges of the encoding.
fn all_variants() -> Vec<EventKind> {
    vec![
        EventKind::VictimChosen {
            set: 2048,
            way: 11,
            line: u64::MAX >> 6,
        },
        EventKind::BypassTaken {
            line: 0xDEAD_BEEF,
            pc: 0x0040_1000,
        },
        EventKind::RewardApplied {
            reward: -20.5,
            matched: false,
        },
        EventKind::QUpdate {
            delta: 0.03125,
            action: 6,
        },
        EventKind::PredictorVerdict {
            signature: 0xFEED_F00D,
            friendly: true,
        },
        EventKind::EpochBoundary { epoch: 0 },
    ]
}

/// The ring's events as the trace renders them (no epochs, no spans,
/// so every trace event is one ring event, in ring order).
fn trace_events(ring: &EventRing) -> Vec<JsonValue> {
    let json = export::chrome_trace_json(ring, &EpochSeries::new(), &[]);
    let doc = parse(&json).unwrap_or_else(|| panic!("trace is not valid JSON: {json}"));
    doc.get("traceEvents")
        .and_then(JsonValue::as_arr)
        .expect("traceEvents array")
        .to_vec()
}

#[test]
fn every_event_kind_round_trips_through_trace_args() {
    let kinds = all_variants();
    let events = trace_events(&ring_with(kinds.clone()));
    assert_eq!(events.len(), kinds.len(), "one trace event per variant");
    for (i, (ev, kind)) in events.iter().zip(&kinds).enumerate() {
        assert_eq!(
            ev.get("name").and_then(JsonValue::as_str),
            Some(kind.name()),
            "event {i}"
        );
        assert_eq!(
            ev.get("ts").and_then(JsonValue::as_u64),
            Some(100 + i as u64)
        );
        assert_eq!(
            ev.get("tid").and_then(JsonValue::as_u64),
            Some(i as u64 + 1)
        );
        let args = ev.get("args").expect("args object");
        match *kind {
            EventKind::VictimChosen { set, way, line } => {
                assert_eq!(
                    args.get("set").and_then(JsonValue::as_u64),
                    Some(u64::from(set))
                );
                assert_eq!(
                    args.get("way").and_then(JsonValue::as_u64),
                    Some(u64::from(way))
                );
                assert_eq!(args.get("line").and_then(JsonValue::as_u64), Some(line));
            }
            EventKind::BypassTaken { line, pc } => {
                assert_eq!(args.get("line").and_then(JsonValue::as_u64), Some(line));
                assert_eq!(args.get("pc").and_then(JsonValue::as_u64), Some(pc));
            }
            EventKind::RewardApplied { reward, matched } => {
                assert_eq!(args.get("reward").and_then(JsonValue::as_f64), Some(reward));
                assert_eq!(
                    args.get("matched").and_then(JsonValue::as_bool),
                    Some(matched)
                );
            }
            EventKind::QUpdate { delta, action } => {
                assert_eq!(args.get("delta").and_then(JsonValue::as_f64), Some(delta));
                assert_eq!(
                    args.get("action").and_then(JsonValue::as_u64),
                    Some(u64::from(action))
                );
            }
            EventKind::PredictorVerdict {
                signature,
                friendly,
            } => {
                assert_eq!(
                    args.get("signature").and_then(JsonValue::as_u64),
                    Some(signature)
                );
                assert_eq!(
                    args.get("friendly").and_then(JsonValue::as_bool),
                    Some(friendly)
                );
            }
            EventKind::EpochBoundary { epoch } => {
                assert_eq!(args.get("epoch").and_then(JsonValue::as_u64), Some(epoch));
            }
        }
    }
}

#[test]
fn special_floats_stay_parseable() {
    // JSON has no NaN/Infinity literals; the exporter must emit
    // something the reader accepts for any f64 the policy produces.
    let ring = ring_with(vec![
        EventKind::RewardApplied {
            reward: f64::NAN,
            matched: true,
        },
        EventKind::QUpdate {
            delta: f64::INFINITY,
            action: 0,
        },
        EventKind::QUpdate {
            delta: f64::NEG_INFINITY,
            action: 1,
        },
    ]);
    let events = trace_events(&ring);
    assert_eq!(events.len(), 3, "non-finite payloads kept their events");
    for ev in &events {
        assert!(ev.get("args").is_some(), "args survived: {ev:?}");
    }
}
