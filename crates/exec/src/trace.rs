//! Structured packet traces: the JSON form of a [`wmn_netsim::Trace`].
//!
//! A run recorded with [`wmn_netsim::run_traced`] yields an in-memory event
//! timeline; this module turns it into a stable, self-describing JSON
//! document (`wmn-trace-v1`) that offline tools — the `trace_render` bin,
//! ad-hoc scripts, CI smoke checks — can consume without linking the
//! simulator. Tracing stays zero-cost when off: [`wmn_netsim::run`] never
//! allocates a timeline, and this module only ever sees a finished trace.
//!
//! One record per event, in time order. Every record carries `at_ns` (the
//! exact simulation timestamp — nanoseconds serialise as integers, so the
//! document round-trips bit-for-bit), `node`, and a `type` discriminator:
//!
//! | `type`         | extra fields                                       |
//! |----------------|----------------------------------------------------|
//! | `tx`           | `frame`, `flow`, `frame_seq`, `subframes`, `wire_bytes` |
//! | `tx_end`       | —                                                  |
//! | `rx`           | `frame`, `from`, `flow`, `frame_seq`               |
//! | `deliver`      | `flow`                                             |
//! | `drop`         | `flow`, `reason` (`queue_full` / `retry_limit`)    |
//! | `forward`      | `flow`, `next_hop`                                 |
//! | `route_change` | `flow`, `path`                                     |

use wmn_netsim::{DropReason, FrameKind, Trace, TraceKind};

use crate::json::Value;

/// The `schema` tag every trace document carries.
pub const TRACE_SCHEMA: &str = "wmn-trace-v1";

fn frame_name(kind: FrameKind) -> &'static str {
    match kind {
        FrameKind::Data => "data",
        FrameKind::Ack => "ack",
    }
}

fn reason_name(reason: DropReason) -> &'static str {
    match reason {
        DropReason::QueueFull => "queue_full",
        DropReason::RetryLimit => "retry_limit",
    }
}

/// Serialises a finished trace as a `wmn-trace-v1` document.
pub fn trace_document(scenario_name: &str, trace: &Trace) -> Value {
    let events = trace
        .events
        .iter()
        .map(|e| {
            let base = Value::obj()
                .with("at_ns", e.at.as_nanos())
                .with("node", u64::from(e.node.index() as u32));
            match &e.kind {
                TraceKind::TxStart { kind, flow, frame_seq, subframes, wire_bytes } => base
                    .with("type", "tx")
                    .with("frame", frame_name(*kind))
                    .with("flow", u64::from(flow.index() as u32))
                    .with("frame_seq", *frame_seq)
                    .with("subframes", *subframes as u64)
                    .with("wire_bytes", u64::from(*wire_bytes)),
                TraceKind::TxEnd => base.with("type", "tx_end"),
                TraceKind::Decoded { kind, from, flow, frame_seq } => base
                    .with("type", "rx")
                    .with("frame", frame_name(*kind))
                    .with("from", u64::from(from.index() as u32))
                    .with("flow", u64::from(flow.index() as u32))
                    .with("frame_seq", *frame_seq),
                TraceKind::Delivered { flow } => {
                    base.with("type", "deliver").with("flow", u64::from(flow.index() as u32))
                }
                TraceKind::Drop { flow, reason } => base
                    .with("type", "drop")
                    .with("flow", u64::from(flow.index() as u32))
                    .with("reason", reason_name(*reason)),
                TraceKind::Forward { flow, next_hop } => base
                    .with("type", "forward")
                    .with("flow", u64::from(flow.index() as u32))
                    .with("next_hop", u64::from(next_hop.index() as u32)),
                TraceKind::RouteChange { flow, path } => base
                    .with("type", "route_change")
                    .with("flow", u64::from(flow.index() as u32))
                    .with(
                        "path",
                        Value::Arr(path.iter().map(|n| Value::Uint(n.index() as u64)).collect()),
                    ),
            }
        })
        .collect();
    Value::obj()
        .with("schema", TRACE_SCHEMA)
        .with("scenario", scenario_name)
        .with("events", Value::Arr(events))
}

/// The record types `wmn-trace-v1` admits, with their required extra fields.
const EVENT_FIELDS: &[(&str, &[&str])] = &[
    ("tx", &["frame", "flow", "frame_seq", "subframes", "wire_bytes"]),
    ("tx_end", &[]),
    ("rx", &["frame", "from", "flow", "frame_seq"]),
    ("deliver", &["flow"]),
    ("drop", &["flow", "reason"]),
    ("forward", &["flow", "next_hop"]),
    ("route_change", &["flow", "path"]),
];

/// Validates a document against the `wmn-trace-v1` schema: tag, scenario
/// name, and every event record's required fields, types, and
/// non-decreasing timestamps. Returns the event count.
///
/// # Errors
///
/// A message naming the first offending record and what is wrong with it.
pub fn validate_trace(doc: &Value) -> Result<usize, String> {
    let schema = doc.get("schema").and_then(Value::as_str);
    if schema != Some(TRACE_SCHEMA) {
        return Err(format!("trace: \"schema\" must be {TRACE_SCHEMA:?}, got {schema:?}"));
    }
    doc.get("scenario").and_then(Value::as_str).ok_or("trace: missing \"scenario\"")?;
    let events =
        doc.get("events").and_then(Value::as_arr).ok_or("trace: missing \"events\" array")?;
    let mut last_at = 0u64;
    for (i, event) in events.iter().enumerate() {
        let err = |msg: String| format!("trace: event {i}: {msg}");
        let at = event
            .get("at_ns")
            .and_then(Value::as_u64)
            .ok_or_else(|| err("missing or non-integer \"at_ns\"".into()))?;
        if at < last_at {
            return Err(err(format!("timestamp {at} ns precedes the previous record")));
        }
        last_at = at;
        event
            .get("node")
            .and_then(Value::as_u64)
            .ok_or_else(|| err("missing or non-integer \"node\"".into()))?;
        let ty = event
            .get("type")
            .and_then(Value::as_str)
            .ok_or_else(|| err("missing or non-string \"type\"".into()))?;
        let Some((_, required)) = EVENT_FIELDS.iter().find(|(name, _)| *name == ty) else {
            return Err(err(format!("unknown type {ty:?}")));
        };
        for field in *required {
            if event.get(field).is_none() {
                return Err(err(format!("type {ty:?} requires field {field:?}")));
            }
        }
        if ty == "route_change" {
            let path = event.get("path").and_then(Value::as_arr).unwrap_or(&[]);
            if path.len() < 2 || path.iter().any(|n| n.as_u64().is_none()) {
                return Err(err("\"path\" must be an array of at least two node ids".into()));
            }
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use wmn_netsim::{run, run_traced, FlowSpec, MotionPlan, NodePath, Scenario, Scheme, Workload};
    use wmn_phy::{PhyParams, Position};
    use wmn_sim::{FlowId, NodeId, SimDuration};

    fn scenario() -> Scenario {
        Scenario {
            name: "trace-demo".into(),
            params: PhyParams::paper_216(),
            positions: (0..4).map(|i| Position::new(f64::from(i) * 5.0, 0.0)).collect(),
            scheme: Scheme::Dcf { aggregation: 1 },
            flows: vec![FlowSpec {
                path: vec![0, 1, 2, 3].into_iter().map(NodeId::new).collect(),
                workload: Workload::Ftp,
            }],
            duration: SimDuration::from_millis(30),
            seed: 7,
            max_forwarders: 5,
            motion: MotionPlan::default(),
            route_refresh: Some(SimDuration::from_millis(10)),
            shards: None,
        }
    }

    #[test]
    fn traced_run_serialises_and_validates() {
        let (_, trace) = run_traced(&scenario());
        assert!(!trace.is_empty());
        let doc = trace_document("trace-demo", &trace);
        assert_eq!(validate_trace(&doc), Ok(trace.len()));
        // The document is clean for checked emission (no floats at all).
        let text = doc.to_json_string().expect("finite");
        assert!(text.contains("\"type\": \"forward\""), "a 4-hop line must relay");
        assert!(text.contains("\"type\": \"deliver\""));
        // Emission round-trips through the parser and still validates.
        let parsed = crate::json::parse(&text).expect("parse");
        assert_eq!(validate_trace(&parsed), Ok(trace.len()));
    }

    /// The stale-route demo: the line's relay 1
    /// drifts away at 60 m/s past a spare at (5, 3), ticks every 10 ms,
    /// refreshes every 50 ms — both global passes, at coinciding instants.
    fn drifting_relay() -> Scenario {
        let mut s = scenario();
        s.positions.push(Position::new(5.0, 3.0));
        s.flows[0].workload = Workload::Cbr(wmn_traffic::CbrModel {
            packet_bytes: 1000,
            interval: SimDuration::from_millis(2),
        });
        s.duration = SimDuration::from_millis(400);
        s.motion = MotionPlan {
            paths: (0..5)
                .map(|i| match i {
                    1 => NodePath::Drift { vx_mps: 0.0, vy_mps: 60.0 },
                    _ => NodePath::Static,
                })
                .collect(),
            tick: SimDuration::from_millis(10),
        };
        s.route_refresh = Some(SimDuration::from_millis(50));
        s
    }

    #[test]
    fn tracing_is_a_pure_observer() {
        let (traced, _) = run_traced(&scenario());
        assert_eq!(traced, run(&scenario()), "recording a trace must not perturb the run");
        let (traced, trace) = run_traced(&drifting_relay());
        assert_eq!(traced, run(&drifting_relay()), "nor under mobility and refresh");
        assert!(
            !trace.route_changes(FlowId::new(0)).is_empty(),
            "the refresh pass records its re-routes"
        );
    }

    #[test]
    fn validation_rejects_malformed_documents() {
        let (_, trace) = run_traced(&scenario());
        let doc = trace_document("trace-demo", &trace);

        let mut wrong_schema = doc;
        if let Value::Obj(pairs) = &mut wrong_schema {
            pairs[0].1 = Value::Str("wmn-trace-v0".into());
        }
        assert!(validate_trace(&wrong_schema).unwrap_err().contains("schema"));

        let no_events = Value::obj().with("schema", TRACE_SCHEMA).with("scenario", "x");
        assert!(validate_trace(&no_events).unwrap_err().contains("events"));

        let bad_event = Value::obj().with("schema", TRACE_SCHEMA).with("scenario", "x").with(
            "events",
            Value::Arr(vec![Value::obj()
                .with("at_ns", 5u64)
                .with("node", 0u64)
                .with("type", "drop")
                .with("flow", 0u64)]),
        );
        let msg = validate_trace(&bad_event).unwrap_err();
        assert!(msg.contains("reason"), "{msg}");

        let out_of_order = Value::obj().with("schema", TRACE_SCHEMA).with("scenario", "x").with(
            "events",
            Value::Arr(vec![
                Value::obj().with("at_ns", 5u64).with("node", 0u64).with("type", "tx_end"),
                Value::obj().with("at_ns", 4u64).with("node", 0u64).with("type", "tx_end"),
            ]),
        );
        assert!(validate_trace(&out_of_order).unwrap_err().contains("precedes"));
    }
}
