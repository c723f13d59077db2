//! The JSON codec on its own: the accepted subset, the escaping rules
//! every format relies on, the nesting cap, and property tests showing
//! that `parse` never panics and that written values parse back exactly.

use proptest::prelude::*;
use tcm_types::json::{
    number, parse, write_str, write_str_array, write_u64_array, Value, MAX_DEPTH,
};

#[test]
fn parses_the_subset() {
    let v = parse(r#" {"a":1,"b":[2,"x",true],"c":{"d":"\n\"A"},"e":false} "#).unwrap();
    assert_eq!(v.field("a").unwrap().as_u64(), Some(1));
    let b = v.field("b").unwrap().as_arr().unwrap();
    assert_eq!(b.len(), 3);
    assert_eq!(b[2].as_bool(), Some(true));
    assert_eq!(
        v.field("c").unwrap().field("d").unwrap().as_str(),
        Some("\n\"A")
    );
    assert_eq!(v.field("e").unwrap().as_bool(), Some(false));
    assert_eq!(parse("18446744073709551615"), Some(Value::UInt(u64::MAX)));
}

#[test]
fn rejects_trailing_garbage_and_forms_outside_the_subset() {
    assert!(parse("{\"a\":1} extra").is_none());
    assert!(parse("-1").is_none(), "unsigned only");
    assert!(parse("1.5").is_none(), "floats travel as bit patterns");
    assert!(parse("18446744073709551616").is_none(), "u64 overflow");
    for bad in [
        "null",
        "tru",
        "[1,]",
        "{\"a\"}",
        "{1:2}",
        "",
        "\"unterminated",
    ] {
        assert!(parse(bad).is_none(), "{bad}");
    }
    assert!(parse("\"\\x\"").is_none(), "unknown escape");
    assert!(parse("\"\\u+041\"").is_none(), "\\u takes four hex digits");
    assert!(parse("\"\\ud800\"").is_none(), "lone surrogate");
}

#[test]
fn escaping_round_trips_and_both_spellings_parse() {
    let ugly = "a\"b\\c\nd\re\tf\u{7}g ü → 🦀";
    let mut out = String::new();
    write_str(&mut out, ugly);
    assert_eq!(out, "\"a\\\"b\\\\c\\nd\\re\\tf\\u0007g ü → 🦀\"");
    assert_eq!(parse(&out).unwrap().as_str(), Some(ugly));
    // Checkpoints and traces written before the codec was shared spell
    // these as `\u00XX`; they still load.
    assert_eq!(
        parse("\"\\u000a\\u000D\\u0009\"").unwrap().as_str(),
        Some("\n\r\t")
    );
}

#[test]
fn array_writers_match_the_parser() {
    let mut out = String::new();
    write_str_array(&mut out, ["x", "y\n"]);
    write_u64_array(&mut out, [0, u64::MAX]);
    assert_eq!(out, "[\"x\",\"y\\n\"][0,18446744073709551615]");
    assert_eq!(
        parse("[\"x\",\"y\\n\"]").unwrap().str_array().unwrap(),
        ["x", "y\n"]
    );
    let bits = [f64::NAN.to_bits(), (-0.0f64).to_bits()];
    let mut out = String::new();
    write_u64_array(&mut out, bits);
    let floats = parse(&out).unwrap().f64_array().unwrap();
    assert_eq!(floats.iter().map(|f| f.to_bits()).collect::<Vec<_>>(), bits);
}

#[test]
fn first_duplicate_key_wins() {
    let v = parse("{\"k\":1,\"k\":2}").unwrap();
    assert_eq!(v.field("k").unwrap().as_u64(), Some(1));
}

#[test]
fn nesting_is_capped() {
    let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
    assert!(parse(&nest(MAX_DEPTH)).is_some());
    assert!(parse(&nest(MAX_DEPTH + 1)).is_none());
    assert!(parse(&"[".repeat(1 << 20)).is_none());
    let n = MAX_DEPTH + 1;
    assert!(parse(&format!("{}1{}", "{\"a\":".repeat(n), "}".repeat(n))).is_none());
}

#[test]
fn number_writes_finite_decimals_and_null() {
    let mut out = String::new();
    for v in [1.5, 12.0, f64::NAN, f64::INFINITY] {
        number(&mut out, v);
        out.push(' ');
    }
    assert_eq!(out, "1.5 12 null null ");
}

/// Characters that make random text look like JSON often enough for
/// the parser to get past its first byte.
const JSONISH: &[u8] = b"{}[]\":,0123456789 \\untrfalse";

/// Any string: control characters, quotes, backslashes and multi-byte
/// characters included.
fn text() -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<u32>(), 0..16).prop_map(|codes| {
        codes
            .into_iter()
            .map(|c| match c % 3 {
                0 => char::from_u32(c / 3 % 0x80).unwrap_or('?'),
                1 => ['"', '\\', 'é', '🦀'][(c / 3 % 4) as usize],
                _ => char::from_u32(c / 3 % 0x11_0000).unwrap_or('\u{fffd}'),
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn parse_never_panics(
        bytes in proptest::collection::vec(any::<u8>(), 0..128),
        noise in proptest::collection::vec(0..JSONISH.len(), 0..128),
    ) {
        let _ = parse(&String::from_utf8_lossy(&bytes));
        let noise: String = noise.into_iter().map(|i| JSONISH[i] as char).collect();
        if let Some(v) = parse(&noise) {
            // Whatever parses is a complete document: no proper prefix
            // of it parses as the same value.
            prop_assert!(parse(&noise[..noise.trim_end().len() - 1]) != Some(v));
        }
    }

    #[test]
    fn written_values_parse_back_exactly(
        (key, s) in (text(), text()),
        (n, flag) in (any::<u64>(), any::<bool>()),
    ) {
        let mut out = String::from("{");
        write_str(&mut out, &key);
        out.push_str(":[");
        write_str(&mut out, &s);
        out.push_str(&format!(",{n},{flag}]}}"));
        let expected = Value::Obj(vec![(
            key,
            Value::Arr(vec![Value::Str(s), Value::UInt(n), Value::Bool(flag)]),
        )]);
        prop_assert_eq!(parse(&out), Some(expected));
    }
}
