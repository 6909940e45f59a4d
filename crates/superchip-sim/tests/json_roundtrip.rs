//! Round-trip tests for the hand-rolled JSON layer on real analysis and
//! metrics snapshots: adversarial string escaping, empty tracks, and deep
//! nesting. `validate_json` must accept everything the emitters produce and
//! `parse_json` must recover the exact values. Random value trees must
//! survive serialize → parse unchanged, both hand-serialized and emitted
//! through `JsonWriter` in every layout; hostile nesting must fail cleanly,
//! and one-byte mutations of valid documents must never panic and must get
//! the same verdict from the parser and the check-only validator. Strings
//! and keys on either side of `JsonStr`'s 22-byte inline limit must decode,
//! look up and print exactly as `String`s did.

use std::fmt::Write as _;

use proptest::prelude::*;
use superchip_sim::prelude::*;
use superchip_sim::telemetry::{
    escape_json, parse_json, validate_json, JsonArray, JsonObject, JsonStr, JsonValue, JsonWriter,
    Layout, MetricsRecorder, MAX_JSON_DEPTH,
};

/// Every layout the writer offers.
const LAYOUTS: [Layout; 4] = [Layout::Block, Layout::Inline, Layout::Dense, Layout::Lines];

/// A trace whose task labels contain every character class the escaper has
/// to handle: quotes, backslashes, control characters, and non-ASCII.
fn adversarial_trace() -> Trace {
    let mut sim = Simulator::new();
    let gpu = sim.add_resource("gpu \"0\"");
    let labels = [
        "quote \" backslash \\ slash /",
        "control \u{1} tab \t newline \n",
        "unicode µs → 终 𝄞",
        "", // empty label
    ];
    let mut prev = None;
    for (i, label) in labels.iter().enumerate() {
        let mut spec =
            TaskSpec::compute(gpu, SimTime::from_millis(1.0 + i as f64)).with_label(*label);
        if let Some(p) = prev {
            spec = spec.after(p);
        }
        prev = Some(sim.add_task(spec).unwrap());
    }
    sim.run().unwrap()
}

#[test]
fn analysis_snapshot_with_hostile_labels_round_trips() {
    let trace = adversarial_trace();
    let report = analyze(&trace);
    let json = report.to_json(&[
        ("system", "escape \"test\" \\ suite".to_string()),
        ("note", "line1\nline2\t\u{7f}".to_string()),
    ]);
    validate_json(&json).expect("emitter produced invalid JSON");
    let doc = parse_json(&json).expect("validator accepted what parser rejects");
    assert_eq!(
        doc.get("meta")
            .and_then(|m| m.get("system"))
            .and_then(JsonValue::as_str),
        Some("escape \"test\" \\ suite")
    );
    assert_eq!(
        doc.get("meta")
            .and_then(|m| m.get("note"))
            .and_then(JsonValue::as_str),
        Some("line1\nline2\t\u{7f}")
    );
    // The hostile labels survive into the critical-path step list.
    let steps = doc
        .get("critical_path")
        .and_then(|c| c.get("top_steps"))
        .expect("top_steps present");
    let JsonValue::Arr(items) = steps else {
        panic!("top_steps is not an array")
    };
    let labels: Vec<&str> = items
        .iter()
        .filter_map(|s| s.get("label").and_then(JsonValue::as_str))
        .collect();
    assert!(labels.contains(&"unicode µs → 终 𝄞"), "{labels:?}");
    assert!(
        labels.contains(&"control \u{1} tab \t newline \n"),
        "{labels:?}"
    );
}

#[test]
fn metrics_snapshot_with_empty_tracks_round_trips() {
    let mut metrics = MetricsRecorder::new();
    // Declare tracks without ever sampling them: the snapshot must still be
    // valid JSON with empty sample arrays, and counters of zero must emit.
    metrics.sample("empty:track", "unit", SimTime::ZERO, 0.0);
    let mut metrics2 = MetricsRecorder::new();
    metrics2.add("touched.never", 0);
    for m in [&metrics, &metrics2] {
        let json = m.snapshot_json(&[("kind", "empty-case".to_string())]);
        validate_json(&json).unwrap();
        let doc = parse_json(&json).unwrap();
        assert!(doc.get("schema").is_some());
    }
    // A recorder with nothing at all.
    let blank = MetricsRecorder::new().snapshot_json(&[]);
    validate_json(&blank).unwrap();
    parse_json(&blank).unwrap();
}

#[test]
fn deeply_nested_documents_validate_and_parse() {
    // 64 levels of arrays wrapping one analysis-like object.
    let core = r#"{"schema": "superoffload.analysis/v1", "makespan_us": 1}"#;
    let deep = format!("{}{}{}", "[".repeat(64), core, "]".repeat(64));
    validate_json(&deep).unwrap();
    let mut v = &parse_json(&deep).unwrap();
    let mut depth = 0;
    while let JsonValue::Arr(items) = v {
        assert_eq!(items.len(), 1);
        v = &items[0];
        depth += 1;
    }
    assert_eq!(depth, 64);
    assert_eq!(
        v.get("schema").and_then(JsonValue::as_str),
        Some("superoffload.analysis/v1")
    );

    // Unbalanced nesting must be rejected by both layers, identically.
    let broken = format!("{}{}{}", "[".repeat(5), core, "]".repeat(4));
    assert!(validate_json(&broken).is_err());
    assert!(parse_json(&broken).is_err());
}

/// Arbitrary unicode strings (controls, quotes, surrogate-range code points
/// folded to U+FFFD, astral plane) — the vendored proptest has no regex
/// strategies, so build from raw code points.
fn arb_string() -> impl Strategy<Value = String> {
    prop::collection::vec(0u32..0x2_0000, 0..40).prop_map(|codes| {
        codes
            .into_iter()
            .map(|c| char::from_u32(c).unwrap_or('\u{FFFD}'))
            .collect()
    })
}

/// ASCII byte soup heavy in JSON punctuation, for grammar fuzzing.
fn arb_noise() -> impl Strategy<Value = String> {
    prop::collection::vec(0u8..128, 0..80)
        .prop_map(|bytes| bytes.into_iter().map(char::from).collect())
}

proptest! {
    /// Any string, however hostile, survives a meta-field round trip
    /// through an analysis snapshot.
    #[test]
    fn arbitrary_meta_strings_round_trip(s in arb_string()) {
        let trace = {
            let mut sim = Simulator::new();
            let r = sim.add_resource("r");
            sim.add_task(TaskSpec::compute(r, SimTime::from_millis(1.0))).unwrap();
            sim.run().unwrap()
        };
        let json = analyze(&trace).to_json(&[("blob", s.clone())]);
        prop_assert!(validate_json(&json).is_ok(), "invalid for {s:?}");
        let doc = parse_json(&json).unwrap();
        let got = doc.get("meta").and_then(|m| m.get("blob")).and_then(JsonValue::as_str);
        prop_assert_eq!(got, Some(s.as_str()));
    }

    /// On arbitrary byte soup the building parse and the check-only
    /// validator return the same verdict and error, never panic, and every
    /// error names an offset inside the input.
    #[test]
    fn parser_and_validator_agree_on_noise(s in arb_noise()) {
        let parsed = parse_json(&s).map(|_| ());
        prop_assert_eq!(&parsed, &validate_json(&s), "disagree on {:?}", &s);
        if let Err(e) = parsed {
            for offset in error_offsets(&e) {
                prop_assert!(offset <= s.len(), "{} for {:?}", e, &s);
            }
        }
    }
}

#[test]
fn nesting_past_the_depth_bound_is_an_error_not_a_crash() {
    // A million open brackets used to overflow the parser's stack and abort
    // the process.
    for open in ["[", "{\"k\":"] {
        let err = validate_json(&open.repeat(1_000_000)).unwrap_err();
        assert!(err.starts_with("nesting deeper than"), "{err}");
    }
    let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    parse_json(&nested(MAX_JSON_DEPTH)).unwrap();
    let err = parse_json(&nested(MAX_JSON_DEPTH + 1)).unwrap_err();
    assert_eq!(
        err,
        format!("nesting deeper than {MAX_JSON_DEPTH} at byte {MAX_JSON_DEPTH}")
    );
}

#[test]
fn strings_decode_between_escapes() {
    let doc = r#"{"plain": "fwd[3]", "esc\taped": "a\"b\\c", "unicode": "µs 😀", "pair": "x\ud83d\ude00y"}"#;
    let v = parse_json(doc).unwrap();
    let JsonValue::Obj(members) = &v else {
        panic!("not an object")
    };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["plain", "esc\taped", "unicode", "pair"]);
    let str_of = |key: &str| v.get(key).and_then(JsonValue::as_str);
    assert_eq!(str_of("plain"), Some("fwd[3]"));
    assert_eq!(str_of("esc\taped"), Some("a\"b\\c"));
    assert_eq!(str_of("unicode"), Some("µs 😀"));
    assert_eq!(str_of("pair"), Some("x😀y"));
}

/// xorshift64 step: the tree generator's deterministic randomness.
fn next(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// A random string mixing ASCII, JSON-special and control characters,
/// two-byte, three-byte and astral code points.
fn random_string(state: &mut u64) -> String {
    const POOL: [char; 12] = [
        'a',
        'Z',
        '"',
        '\\',
        '/',
        '\n',
        '\u{1}',
        '\u{1f}',
        'é',
        '终',
        '😀',
        '\u{10FFFF}',
    ];
    let len = next(state) % 6;
    (0..len)
        .map(|_| POOL[(next(state) % POOL.len() as u64) as usize])
        .collect()
}

/// A random value tree at most `depth` containers deep.
fn random_tree(state: &mut u64, depth: u32) -> JsonValue {
    let pick = next(state) % if depth == 0 { 4 } else { 6 };
    match pick {
        0 => JsonValue::Null,
        1 => JsonValue::Bool(next(state).is_multiple_of(2)),
        2 => {
            // Integers, fractions, and magnitudes that print with long
            // digit strings; every one is finite.
            let mantissa = (next(state) % 2_000_001) as f64 - 1_000_000.0;
            let scale = [1.0, 1e-3, 1e-9, 1e12, 1e300][(next(state) % 5) as usize];
            JsonValue::Num(mantissa * scale)
        }
        3 => JsonValue::Str(random_string(state).into()),
        4 => {
            let n = next(state) % 4;
            JsonValue::Arr((0..n).map(|_| random_tree(state, depth - 1)).collect())
        }
        _ => {
            let n = next(state) % 4;
            JsonValue::Obj(
                (0..n)
                    .map(|_| (random_string(state).into(), random_tree(state, depth - 1)))
                    .collect(),
            )
        }
    }
}

/// Writes a string literal: through `escape_json`, or with every non-ASCII
/// character as `\u` escapes (astral ones as UTF-16 surrogate pairs).
fn write_str(out: &mut String, s: &str, u_escapes: bool) {
    out.push('"');
    if u_escapes {
        for c in s.chars() {
            if c.is_ascii() {
                out.push_str(&escape_json(c.encode_utf8(&mut [0; 4])));
            } else {
                for unit in c.encode_utf16(&mut [0; 2]) {
                    let _ = write!(out, "\\u{unit:04X}");
                }
            }
        }
    } else {
        out.push_str(&escape_json(s));
    }
    out.push('"');
}

/// Serializes `v`, with whitespace between tokens when `spaced`.
fn write_tree(out: &mut String, v: &JsonValue, spaced: bool, u_escapes: bool) {
    let sep = if spaced { " \n\t" } else { "" };
    match v {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::Num(n) => {
            let _ = write!(out, "{n}");
        }
        JsonValue::Str(s) => write_str(out, s, u_escapes),
        JsonValue::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(sep);
                write_tree(out, item, spaced, u_escapes);
            }
            out.push_str(sep);
            out.push(']');
        }
        JsonValue::Obj(members) => {
            out.push('{');
            for (i, (k, item)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(sep);
                write_str(out, k, u_escapes);
                out.push_str(sep);
                out.push(':');
                out.push_str(sep);
                write_tree(out, item, spaced, u_escapes);
            }
            out.push_str(sep);
            out.push('}');
        }
    }
}

/// Emits `v` through the writer as the next element of `a`, every
/// container in `layout`.
fn emit_element(a: &mut JsonArray<'_>, v: &JsonValue, layout: Layout) {
    match v {
        JsonValue::Null => a.null(),
        JsonValue::Bool(b) => a.bool(*b),
        JsonValue::Num(n) => a.num(*n),
        JsonValue::Str(s) => a.str(s),
        JsonValue::Arr(items) => a.array(layout, |inner| {
            items
                .iter()
                .for_each(|item| emit_element(inner, item, layout));
        }),
        JsonValue::Obj(members) => a.object(layout, |o| emit_members(o, members, layout)),
    };
}

/// Emits `members` through the writer into `o`, every container in
/// `layout`.
fn emit_members(o: &mut JsonObject<'_>, members: &[(JsonStr, JsonValue)], layout: Layout) {
    for (k, v) in members {
        match v {
            JsonValue::Null => o.null(k),
            JsonValue::Bool(b) => o.bool(k, *b),
            JsonValue::Num(n) => o.num(k, *n),
            JsonValue::Str(s) => o.str(k, s),
            JsonValue::Arr(items) => o.array(k, layout, |inner| {
                items
                    .iter()
                    .for_each(|item| emit_element(inner, item, layout));
            }),
            JsonValue::Obj(inner) => o.object(k, layout, |o| emit_members(o, inner, layout)),
        };
    }
}

/// Byte offsets named by a parse error (`... at byte N ...`).
fn error_offsets(err: &str) -> Vec<usize> {
    err.split("at byte ")
        .skip(1)
        .map(|rest| {
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            digits.parse().expect("offset after 'at byte'")
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random trees (escapes, surrogate pairs, nesting, numbers) serialize
    /// and parse back to the identical tree.
    #[test]
    fn random_trees_round_trip(seed in 1u64..u64::MAX, spaced in any::<bool>(), u_escapes in any::<bool>()) {
        let mut state = seed;
        let tree = random_tree(&mut state, 4);
        let mut doc = String::new();
        write_tree(&mut doc, &tree, spaced, u_escapes);
        let parsed = parse_json(&doc).unwrap_or_else(|e| panic!("{e} in {doc:?}"));
        prop_assert_eq!(&parsed, &tree, "{}", doc);
        // The writer's top level is a container: emit the tree as the one
        // element of an array.
        let wrapped = JsonValue::Arr(vec![tree.clone()]);
        for layout in LAYOUTS {
            let doc = JsonWriter::default().array(layout, |a| emit_element(a, &tree, layout));
            let parsed = parse_json(&doc).unwrap_or_else(|e| panic!("{e} in {doc:?}"));
            prop_assert_eq!(&parsed, &wrapped, "{:?}: {}", layout, doc);
        }
    }

    /// Flipping, deleting or inserting one byte of a valid document never
    /// panics, parse and validate agree, and every error names an offset
    /// inside the document.
    #[test]
    fn one_byte_mutations_never_panic(seed in 1u64..u64::MAX, op in 0u8..3, pos in 0usize..10_000, byte in 0u8..128) {
        let mut state = seed;
        let mut doc = String::new();
        write_tree(&mut doc, &random_tree(&mut state, 4), true, seed.is_multiple_of(2));
        let mut bytes = doc.into_bytes();
        let at = pos % (bytes.len() + 1);
        match op {
            0 if at < bytes.len() => bytes[at] ^= byte.max(1),
            1 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => bytes.insert(at, byte),
        }
        // The parser takes `&str`: a mutation that splits a multi-byte
        // character is not a document it can be handed.
        if let Ok(doc) = std::str::from_utf8(&bytes) {
            let parsed = parse_json(doc).map(|_| ());
            prop_assert_eq!(&parsed, &validate_json(doc), "disagree on {:?}", doc);
            if let Err(e) = parsed {
                for offset in error_offsets(&e) {
                    prop_assert!(offset <= doc.len(), "{} for {:?}", e, doc);
                }
            }
        }
    }
}

/// Parses `{"<body>": "<body>"}` and checks that the key and the value
/// both decode to `decoded`, that `get` finds the member by its decoded
/// key, and that `Debug` prints the value as it did when strings and keys
/// were `String`s.
fn check_string_literal(body: &str, decoded: &str) {
    let doc = format!("{{\"{body}\": \"{body}\"}}");
    let v = parse_json(&doc).unwrap_or_else(|e| panic!("{e} in {doc:?}"));
    let JsonValue::Obj(members) = &v else {
        panic!("not an object: {doc:?}")
    };
    assert_eq!(members.len(), 1);
    assert_eq!(members[0].0.as_str(), decoded, "key of {doc:?}");
    assert_eq!(
        v.get(decoded).and_then(JsonValue::as_str),
        Some(decoded),
        "{doc:?}"
    );
    let text = decoded.to_string();
    assert_eq!(
        format!("{v:?}"),
        format!("Obj([({text:?}, Str({text:?}))])"),
        "{doc:?}"
    );
}

#[test]
fn strings_and_keys_of_every_length_around_the_inline_limit() {
    let text = |len: usize| -> String {
        (0..len)
            .map(|i| char::from(b'a' + (i % 26) as u8))
            .collect()
    };
    for len in 0..=48 {
        check_string_literal(&text(len), &text(len));
    }
    // One object holding all 49 keys: each is a prefix of the longer ones,
    // so `get` must match the whole key, inline or boxed.
    let members: Vec<String> = (0..=48)
        .map(|len| format!("\"{}\": {len}", text(len)))
        .collect();
    let v = parse_json(&format!("{{{}}}", members.join(", "))).unwrap();
    for len in 0..=48 {
        assert_eq!(
            v.get(&text(len)).and_then(JsonValue::as_f64),
            Some(len as f64)
        );
    }
    assert_eq!(v.get(&text(49)), None);
}

#[test]
fn multi_byte_characters_straddling_the_inline_limit() {
    for c in ['é', '€', '𝄞'] {
        for before in 16..=24 {
            for after in 0..=2 {
                let text = format!("{}{c}{}", "a".repeat(before), "z".repeat(after));
                check_string_literal(&escape_json(&text), &text);
            }
        }
    }
}

#[test]
fn escaped_strings_decode_across_the_inline_limit() {
    // Escapes shrink: a raw literal longer than the limit can decode to one
    // that fits inline, and the boundary falls inside the escape.
    for k in 18..=24 {
        let a = "a".repeat(k);
        check_string_literal(&format!("{a}\\\""), &format!("{a}\""));
        check_string_literal(&format!("{a}\\n\\t"), &format!("{a}\n\t"));
        check_string_literal(&format!("{a}\\u00e9"), &format!("{a}é"));
        check_string_literal(&format!("\\u20ac{a}"), &format!("€{a}"));
    }
    // 24 raw bytes, 4 decoded.
    check_string_literal(&"\\u0041".repeat(4), "AAAA");
    // Nothing but escapes: 88 raw bytes decode to 22 (exactly at the
    // limit), 94 to 23.
    for n in [11, 12] {
        let body = "\\u0041".repeat(n) + &"\\\\".repeat(11);
        check_string_literal(&body, &("A".repeat(n) + &"\\".repeat(11)));
    }
}

#[test]
fn surrogate_pairs_decode_across_the_inline_limit() {
    for k in 16..=24 {
        let a = "a".repeat(k);
        check_string_literal(&format!("{a}\\ud834\\udd1e"), &format!("{a}𝄞"));
        check_string_literal(&format!("{a}\\ud834\\udd1e{a}"), &format!("{a}𝄞{a}"));
        // An unpaired high surrogate decodes to U+FFFD (three bytes).
        check_string_literal(&format!("{a}\\ud834x"), &format!("{a}\u{FFFD}x"));
    }
}
