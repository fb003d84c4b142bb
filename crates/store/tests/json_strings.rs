//! JSON string parsing as the document store reads it back: every
//! checkpoint and WAL record goes through `serde_json::from_str`, so
//! text with multi-byte characters, escapes and surrogate pairs must
//! parse exactly, and a megabyte string must parse in linear time.

use proptest::prelude::*;
use serde_json::{from_str, json, Value};

fn parse_str(doc: &str) -> Result<String, serde_json::Error> {
    from_str::<Value>(doc).map(|v| v.as_str().expect("a string").to_owned())
}

#[test]
fn multi_byte_text_next_to_escapes_parses() {
    assert_eq!(parse_str(r#""é\"ü\\ß\n→\u00e9x""#).unwrap(), "é\"ü\\ß\n→éx");
    assert_eq!(parse_str(r#""""#).unwrap(), "");
}

#[test]
fn surrogate_pairs_parse_and_broken_pairs_are_rejected() {
    assert_eq!(parse_str(r#""a\ud83d\ude00b""#).unwrap(), "a😀b");
    assert!(parse_str(r#""\ud83d""#).is_err());
    assert!(parse_str(r#""\ud83d\u0041""#).is_err());
    assert!(parse_str(r#""\ude00""#).is_err());
}

#[test]
fn unterminated_strings_are_rejected() {
    assert!(parse_str(r#""abc"#).is_err());
    assert!(parse_str(r#""ab\"#).is_err());
}

#[test]
fn megabyte_non_ascii_document_round_trips() {
    let text = "ü→😀\"\\x\n".repeat(100_000);
    assert!(text.len() >= 1 << 20);
    let doc = json!([{ "device": "C9", "args": [text.clone()] }]).to_string();
    let back: Value = from_str(&doc).unwrap();
    assert_eq!(back[0]["args"][0].as_str(), Some(text.as_str()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any sequence of code points (controls, BMP, astral) survives
    /// `to_string` → `from_str`.
    #[test]
    fn arbitrary_text_round_trips(points in proptest::collection::vec(any::<u32>(), 0..64)) {
        let text: String = points
            .iter()
            .filter_map(|&p| char::from_u32(p % 0x11_0000))
            .collect();
        let doc = Value::from(text.clone()).to_string();
        prop_assert_eq!(parse_str(&doc).unwrap(), text);
    }
}
