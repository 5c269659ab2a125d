//! Protocol property tests: `parse(serialize(x)) == x` for every
//! request and response frame kind, plus malformed-frame fuzzing —
//! truncated JSON, unknown kinds, oversized lines, wrong shapes — each
//! producing a path-qualified rejection, never a panic.

use proptest::prelude::*;

use camj_desc::ir::SweepConstraintsIr;
use camj_serve::protocol::{
    canonical_line_key, parse_frame, parse_request, serialize_frame, serialize_request, stamp_line,
    Frame, Request, RequestKind, MAX_LINE_BYTES,
};
use serde_json::Value;

/// JSON numbers are IEEE doubles in transit, so ids only round-trip
/// exactly up to 2^53 (documented on [`Request::id`]).
const MAX_EXACT_ID: u64 = 1 << 53;

const KINDS: [RequestKind; 8] = [
    RequestKind::Validate,
    RequestKind::Estimate,
    RequestKind::Simulate,
    RequestKind::Sweep,
    RequestKind::Pareto,
    RequestKind::Search,
    RequestKind::Stats,
    RequestKind::Shutdown,
];

/// A small random JSON value standing in for an inline design: the
/// protocol carries it opaquely, so shape doesn't matter — only that
/// it survives the round trip.
fn design_value(seed: u64) -> Value {
    let mut design = serde_json::Map::new();
    design.insert("version", Value::Number(serde_json::Number::from_u64(1)));
    design.insert("name", Value::String(format!("design-{seed}")));
    design.insert(
        "fps",
        Value::Number(serde_json::Number::from_f64(
            (seed % 977) as f64 / 7.0 + 0.5,
        )),
    );
    design.insert(
        "tags",
        Value::Array(vec![
            Value::Bool(seed % 2 == 0),
            Value::Null,
            Value::String("α \"quoted\"\nline".to_owned()),
        ]),
    );
    Value::Object(design)
}

/// Deterministically fills every optional request field the draw
/// selects, exercising awkward floats (shortest-round-trip printing
/// must preserve them bit-exactly).
fn build_request(kind: RequestKind, id: u64, mask: u32, seed: u64) -> Request {
    let mut request = Request::new(kind);
    request.id = id;
    if mask & 1 != 0 {
        request.design = Some(design_value(seed));
    }
    if mask & 2 != 0 {
        request.fps = Some(vec![0.1 + 0.2, (seed % 240) as f64 / 3.0 + 1.0, 1e-3]);
    }
    if mask & 4 != 0 {
        request.seed = Some(seed);
    }
    if mask & 8 != 0 {
        request.samples = Some((seed % 1024) as u32 + 1);
    }
    if mask & 16 != 0 {
        // Alternate the three stimulus spec shapes, including image
        // paths with spaces and non-ASCII (the protocol carries the
        // spec opaquely — the handler parses it later).
        request.stimulus = Some(match seed % 3 {
            0 => format!("gradient:0.{},0.9", seed % 10),
            1 => format!("uniform:0.{}", seed % 10),
            _ => format!("image:stimuli/eye ({seed})\u{00e9}.pgm"),
        });
    }
    if mask & 32 != 0 {
        request.objectives = Some(vec!["total_energy".into(), format!("stage:s{seed}")]);
    }
    if mask & 64 != 0 {
        request.constraints = Some(SweepConstraintsIr {
            max_power_density_mw_per_mm2: Some(1.0 / 3.0),
            max_digital_latency_ms: None,
            max_total_energy_pj: Some((seed as f64).sqrt() + 0.125),
        });
    }
    if mask & 128 != 0 {
        request.population = Some(seed % 64 + 1);
        request.generations = Some(seed % 16 + 1);
        request.budget = Some(seed % 512 + 1);
    }
    if mask & 256 != 0 {
        request.fault = Some("panic".to_owned());
    }
    request
}

proptest! {
    /// Requests of every kind, with every optional-field combination,
    /// survive serialize → parse exactly.
    #[test]
    fn request_round_trips(kind_idx in 0usize..8, id in 0u64..MAX_EXACT_ID, mask in 0u32..512, seed in 0u64..1_000_000) {
        let request = build_request(KINDS[kind_idx], id, mask, seed);
        let line = serialize_request(&request);
        prop_assert!(!line.contains('\n'), "a frame must be one line");
        let parsed = parse_request(&line).expect("serialized request must parse");
        prop_assert_eq!(parsed, request);
    }

    /// Every response frame kind survives serialize → parse exactly.
    #[test]
    fn frame_round_trips(id in 0u64..MAX_EXACT_ID, seq in 0u64..10_000, pick in 0u32..4, seed in 0u64..1_000_000) {
        let frame = match pick {
            0 => Frame::point(seq, design_value(seed)),
            1 => Frame::result(design_value(seed)),
            2 => Frame::error(format!("request.field{}", seed % 7), "it broke: \"badly\"\n(twice)"),
            _ => Frame::done(seq),
        }
        .with_id(id);
        let line = serialize_frame(&frame);
        prop_assert!(!line.contains('\n'));
        let parsed = parse_frame(&line).expect("serialized frame must parse");
        prop_assert_eq!(parsed, frame);
    }

    /// A canonical request line keys itself without being parsed: its
    /// id and the fingerprint of the request it parses to (the dedup
    /// replay fast path). The same request spelled any other way keys
    /// to a fingerprint it does not have, so it can only miss.
    #[test]
    fn canonical_lines_key_like_their_request(kind_idx in 0usize..8, id in 0u64..1_000_000_000_000_000, mask in 0u32..512, seed in 0u64..1_000_000) {
        let request = build_request(KINDS[kind_idx], id, mask, seed);
        let line = serialize_request(&request);
        prop_assert_eq!(canonical_line_key(&line), Some((id, request.fingerprint())));
        let spaced = line.replacen(",\"kind\"", ", \"kind\"", 1);
        prop_assert_eq!(parse_request(&spaced).unwrap(), request.clone());
        prop_assert!(canonical_line_key(&spaced).is_some_and(|(_, fp)| fp != request.fingerprint()));
    }

    /// Stamping an id into an id-less rendered line (the dedup replay
    /// fast path) is exactly equivalent to serializing the frame with
    /// that id — so replayed and freshly-computed responses can never
    /// diverge.
    #[test]
    fn stamping_matches_full_serialization(id in 0u64..MAX_EXACT_ID, seq in 0u64..10_000, pick in 0u32..4, seed in 0u64..1_000_000) {
        let frame = match pick {
            0 => Frame::point(seq, design_value(seed)),
            1 => Frame::result(design_value(seed)),
            2 => Frame::error("request.design", format!("broke at {seed}")),
            _ => Frame::done(seq),
        };
        let rendered = serialize_frame(&frame);
        let stamped = stamp_line(&rendered, id);
        prop_assert_eq!(stamped, serialize_frame(&frame.with_id(id)));
    }

    /// Truncating a valid request line anywhere never panics, and any
    /// rejection is path-qualified at `request` (broken JSON) or a
    /// narrower path. (A truncation can also still parse — cutting
    /// only trailing optional fields — which is fine.)
    #[test]
    fn truncated_requests_reject_cleanly(mask in 0u32..512, seed in 0u64..1_000_000, cut_permille in 0u32..1000) {
        let request = build_request(RequestKind::Sweep, 9, mask, seed);
        let line = serialize_request(&request);
        let mut cut = line.len() * cut_permille as usize / 1000;
        while cut > 0 && !line.is_char_boundary(cut) {
            cut -= 1;
        }
        match parse_request(&line[..cut]) {
            Ok(_) => {}
            Err(reject) => {
                prop_assert!(reject.path.starts_with("request"), "path was {}", reject.path);
                prop_assert!(!reject.message.is_empty());
            }
        }
    }

    /// Unknown request kinds are rejected at `request.kind`, naming
    /// the offender, with the request id preserved for correlation.
    #[test]
    fn unknown_kinds_reject_at_kind_path(id in 0u64..1_000_000, seed in 0u64..1_000_000) {
        let line = format!("{{\"id\":{id},\"kind\":\"mystery-{seed}\"}}");
        let reject = parse_request(&line).expect_err("unknown kind must reject");
        prop_assert_eq!(reject.path.as_str(), "request.kind");
        prop_assert_eq!(reject.id, id);
        prop_assert!(reject.message.contains(&format!("mystery-{seed}")));
    }
}

#[test]
fn oversized_lines_reject_at_request_path() {
    let line = format!(
        "{{\"kind\":\"estimate\",\"padding\":\"{}\"}}",
        "x".repeat(MAX_LINE_BYTES)
    );
    let reject = parse_request(&line).expect_err("oversized line must reject");
    assert_eq!(reject.path, "request");
    assert!(reject.message.contains("exceeds"));
}

#[test]
fn non_object_and_wrong_typed_requests_reject() {
    for (line, path) in [
        ("[1,2,3]", "request"),
        ("\"just a string\"", "request"),
        ("42", "request"),
        ("{}", "request.kind"),
        ("{\"kind\":17}", "request.kind"),
        ("{\"kind\":null}", "request.kind"),
        ("{\"kind\":\"sweep\",\"fps\":\"fast\"}", "request"),
        ("{\"kind\":\"sweep\",\"id\":\"seven\"}", "request"),
    ] {
        let reject = parse_request(line)
            .err()
            .unwrap_or_else(|| panic!("{line} must reject"));
        assert_eq!(reject.path, path, "for line {line}");
    }
}

#[test]
fn ids_survive_rejection_for_correlation() {
    // Even when validation fails late, the error frame carries the id
    // the client sent.
    let reject = parse_request("{\"id\":77,\"kind\":\"warp\"}").unwrap_err();
    assert_eq!((reject.id, reject.path.as_str()), (77, "request.kind"));
    let frame = reject.frame();
    assert_eq!(frame.id, 77);
}

/// The constraint block reuses the description IR's
/// `SweepConstraintsIr`; its wire bytes, and so every dedup
/// fingerprint and disk-tier key derived from them, are pinned here.
#[test]
fn constraint_budgets_keep_their_wire_bytes() {
    let mut request = Request::new(RequestKind::Pareto);
    request.id = 7;
    request.fps = Some(vec![15.0, 30.0]);
    request.objectives = Some(vec!["total_energy".into(), "delay".into()]);
    request.constraints = Some(SweepConstraintsIr {
        max_power_density_mw_per_mm2: Some(1.0 / 3.0),
        max_digital_latency_ms: Some(2.5),
        max_total_energy_pj: Some(1e6),
    });
    assert_eq!(
        serialize_request(&request),
        "{\"id\":7,\"kind\":\"pareto\",\"fps\":[15,30],\
         \"objectives\":[\"total_energy\",\"delay\"],\
         \"constraints\":{\"max_power_density_mw_per_mm2\":0.3333333333333333,\
         \"max_digital_latency_ms\":2.5,\"max_total_energy_pj\":1000000}}"
    );
    assert_eq!(
        format!("{:?}", request.fingerprint()),
        "Fingerprint { hi: 5203345272585657807, lo: 13928542010554365168 }"
    );
}

/// Only a line opening with a canonical `{"id":N,` member — N a plain
/// integer of at most 15 digits — gets a replay key.
#[test]
fn only_a_canonical_id_member_keys_a_line() {
    let line = serialize_request(&build_request(RequestKind::Sweep, 7, 3, 1));
    let body = line
        .strip_prefix("{\"id\":7,")
        .expect("id is the first member");
    for prefix in [
        "{\"id\":07,",
        "{\"id\":-7,",
        "{\"id\":7.0,",
        "{\"id\": 7,",
        "{\"id\":,",
        "{\"id\":1000000000000000,",
    ] {
        assert_eq!(
            canonical_line_key(&format!("{prefix}{body}")),
            None,
            "{prefix}"
        );
    }
    assert_eq!(canonical_line_key(&format!("{{{body}")), None);
}
