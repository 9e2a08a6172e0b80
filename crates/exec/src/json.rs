//! A minimal JSON document builder and parser.
//!
//! The build environment has no serde, so this module provides just enough:
//! an ordered [`Value`] tree with escaping-correct pretty printing, plus a
//! strict recursive-descent [`parse`] so scenario specs and committed repro
//! baselines can be read back. Object keys keep insertion order so emitted
//! files are byte-stable run to run.

use std::fmt;

/// An ordered JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number. JSON has no representation for NaN/infinity, so `Display`
    /// falls back to `null` for them — report emission must therefore go
    /// through [`Value::to_json_string`], which rejects non-finite numbers
    /// instead of silently corrupting the document.
    Num(f64),
    /// An unsigned integer, serialised exactly (not via `f64`, which would
    /// silently round values above 2^53 — seeds can be any `u64`).
    Uint(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// An object builder starting empty.
    pub fn obj() -> Value {
        Value::Obj(Vec::new())
    }

    /// Appends a key/value pair (objects only).
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object — misuse is a programming error in
    /// report-building code, not a runtime condition.
    pub fn with(mut self, key: &str, value: impl Into<Value>) -> Value {
        match &mut self {
            Value::Obj(pairs) => pairs.push((key.to_string(), value.into())),
            _ => panic!("Value::with called on a non-object"),
        }
        self
    }

    /// Looks up `key` in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value of a [`Value::Num`] or [`Value::Uint`].
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            Value::Uint(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The integer value of a [`Value::Uint`], or of a [`Value::Num`] that
    /// is an exact non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Uint(n) => Some(*n),
            // Strictly below u64::MAX-as-f64 (= 2^64): the cast is then
            // exact for every integral double, never saturating.
            Value::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n < u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The borrowed contents of a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements of a [`Value::Arr`].
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value of a [`Value::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Walks the tree and reports the first non-finite [`Value::Num`], with
    /// a JSON-path to it.
    ///
    /// # Errors
    ///
    /// [`NonFiniteError`] naming the offending path and value.
    pub fn check_finite(&self) -> Result<(), NonFiniteError> {
        fn walk(v: &Value, path: &mut String) -> Result<(), NonFiniteError> {
            match v {
                Value::Num(n) if !n.is_finite() => Err(NonFiniteError {
                    path: if path.is_empty() { "$".to_string() } else { path.clone() },
                    value: *n,
                }),
                Value::Arr(items) => {
                    for (i, item) in items.iter().enumerate() {
                        let len = path.len();
                        path.push_str(&format!("[{i}]"));
                        walk(item, path)?;
                        path.truncate(len);
                    }
                    Ok(())
                }
                Value::Obj(pairs) => {
                    for (key, value) in pairs {
                        let len = path.len();
                        path.push_str(&format!(".{key}"));
                        walk(value, path)?;
                        path.truncate(len);
                    }
                    Ok(())
                }
                _ => Ok(()),
            }
        }
        walk(self, &mut String::new())
    }

    /// Serialises the document, rejecting non-finite numbers instead of
    /// coercing them to `null` (which would round-trip as [`Value::Null`]
    /// and corrupt report diffs undetected). All file-emission paths go
    /// through this; `Display` remains lossy and is for logs only.
    ///
    /// # Errors
    ///
    /// [`NonFiniteError`] naming the path of the first non-finite number.
    pub fn to_json_string(&self) -> Result<String, NonFiniteError> {
        self.check_finite()?;
        Ok(self.to_string())
    }
}

/// A document contained a NaN or infinite number at emission time.
#[derive(Clone, Debug, PartialEq)]
pub struct NonFiniteError {
    /// JSON-path of the offending number (`$` for a bare root value).
    pub path: String,
    /// The rejected value.
    pub value: f64,
}

impl fmt::Display for NonFiniteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "non-finite number {} at {} has no JSON representation", self.value, self.path)
    }
}

impl std::error::Error for NonFiniteError {}

/// Parses a JSON document into a [`Value`].
///
/// Strict JSON (no comments, no trailing commas); object key order is
/// preserved, and duplicate keys are rejected so a hand-edited spec cannot
/// silently half-apply. Non-negative integers without fraction or exponent
/// parse as [`Value::Uint`] (exact for any `u64` seed), everything else
/// numeric as [`Value::Num`].
///
/// # Errors
///
/// Returns a message with the byte offset of the first syntax error.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after the document"));
    }
    Ok(value)
}

/// How deep arrays and objects may nest: the parser recurses once per level,
/// and a stack overflow is an abort no caller can catch.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        self.err_at(self.pos, what)
    }

    /// An error anchored at an explicit byte offset — used when the problem
    /// is detected after the cursor has moved past it (duplicate keys).
    fn err_at(&self, pos: usize, what: &str) -> String {
        format!("JSON error at byte {pos}: {what}")
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word:?}")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[' | b'{') if depth == MAX_DEPTH => {
                Err(self.err(&format!("arrays and objects nest deeper than {MAX_DEPTH} levels")))
            }
            Some(b'[') => self.array(depth + 1),
            Some(b'{') => self.object(depth + 1),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut pairs: Vec<(String, Value)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key_start = self.pos;
            let key = self.string()?;
            if pairs.iter().any(|(k, _)| *k == key) {
                // Point at the duplicate's opening quote, not wherever the
                // cursor drifted to after reading it — a hand-edited spec
                // should be fixable straight from the offset.
                return Err(self.err_at(key_start, &format!("duplicate object key {key:?}")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.bytes[self.pos..];
            let Some(&c) = rest.first() else {
                return Err(self.err("unterminated string"));
            };
            match c {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    let esc = rest.get(1).copied().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 2;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogates are not emitted by our writer; map
                            // them to the replacement character on input.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Copy one UTF-8 scalar (the input is a &str, so the
                    // byte sequence is valid by construction).
                    let text = std::str::from_utf8(rest).map_err(|_| self.err("bad UTF-8"))?;
                    let ch = text.chars().next().expect("non-empty");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Strict JSON integer part: `0` or a non-zero digit followed by
        // more digits — `01` and a bare `-` are rejected, as every
        // conforming tool would.
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                if matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    return Err(self.err("leading zeros are not valid JSON"));
                }
            }
            Some(c) if c.is_ascii_digit() => {
                self.digits();
            }
            _ => return Err(self.err("expected a digit")),
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.err("expected a digit after the decimal point"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.err("expected a digit in the exponent"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII");
        if integral && !text.starts_with('-') {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::Uint(n));
            }
        }
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Value::Num(n)),
            _ => Err(self.err(&format!("invalid number {text:?}"))),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Value {
        Value::Num(n)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::Uint(n)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::Uint(n as u64)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(items: Vec<T>) -> Value {
        Value::Arr(items.into_iter().map(Into::into).collect())
    }
}

fn escape(s: &str, out: &mut fmt::Formatter<'_>) -> fmt::Result {
    out.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => write!(out, "{c}")?,
        }
    }
    out.write_str("\"")
}

fn write_num(n: f64, out: &mut fmt::Formatter<'_>) -> fmt::Result {
    if !n.is_finite() {
        return out.write_str("null");
    }
    // Integers print without a trailing `.0` so counts look like counts.
    if n.fract() == 0.0 && n.abs() < 9.0e15 {
        write!(out, "{}", n as i64)
    } else {
        write!(out, "{n}")
    }
}

fn write_value(v: &Value, indent: usize, out: &mut fmt::Formatter<'_>) -> fmt::Result {
    let pad = "  ".repeat(indent);
    let inner = "  ".repeat(indent + 1);
    match v {
        Value::Null => out.write_str("null"),
        Value::Bool(b) => write!(out, "{b}"),
        Value::Num(n) => write_num(*n, out),
        Value::Uint(n) => write!(out, "{n}"),
        Value::Str(s) => escape(s, out),
        Value::Arr(items) => {
            if items.is_empty() {
                return out.write_str("[]");
            }
            // Scalar-only arrays stay on one line; nested ones break.
            let scalar = items.iter().all(|i| !matches!(i, Value::Arr(_) | Value::Obj(_)));
            if scalar {
                out.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.write_str(", ")?;
                    }
                    write_value(item, indent, out)?;
                }
                out.write_str("]")
            } else {
                out.write_str("[\n")?;
                for (i, item) in items.iter().enumerate() {
                    out.write_str(&inner)?;
                    write_value(item, indent + 1, out)?;
                    if i + 1 < items.len() {
                        out.write_str(",")?;
                    }
                    out.write_str("\n")?;
                }
                write!(out, "{pad}]")
            }
        }
        Value::Obj(pairs) => {
            if pairs.is_empty() {
                return out.write_str("{}");
            }
            out.write_str("{\n")?;
            for (i, (key, value)) in pairs.iter().enumerate() {
                out.write_str(&inner)?;
                escape(key, out)?;
                out.write_str(": ")?;
                write_value(value, indent + 1, out)?;
                if i + 1 < pairs.len() {
                    out.write_str(",")?;
                }
                out.write_str("\n")?;
            }
            write!(out, "{pad}}}")
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_value(self, 0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_document() {
        let doc = Value::obj()
            .with("name", "fig3")
            .with("runs", 90u64)
            .with("wall_ms", 12.5)
            .with("seeds", vec![1u64, 2])
            .with("ok", true)
            .with("missing", Value::Null);
        let s = doc.to_string();
        assert!(s.contains("\"name\": \"fig3\""));
        assert!(s.contains("\"runs\": 90"), "integers print bare: {s}");
        assert!(s.contains("\"wall_ms\": 12.5"));
        assert!(s.contains("\"seeds\": [1, 2]"));
        assert!(s.contains("\"missing\": null"));
    }

    #[test]
    fn escapes_control_and_quote_characters() {
        let s = Value::Str("a\"b\\c\nd\u{1}".into()).to_string();
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn non_finite_numbers_fail_checked_emission() {
        // Display stays lossy (logs), but the emission path must refuse: a
        // NaN serialised as `null` round-trips as Value::Null and corrupts
        // report diffs undetected.
        assert_eq!(Value::Num(f64::NAN).to_string(), "null");
        assert_eq!(Value::Num(f64::INFINITY).to_string(), "null");
        let err = Value::Num(f64::NAN).to_json_string().unwrap_err();
        assert_eq!(err.path, "$");
        assert!(err.value.is_nan());
        let doc = Value::obj()
            .with("ok", 1.5)
            .with("tables", vec![Value::Arr(vec![Value::Num(2.0), Value::Num(f64::INFINITY)])]);
        let err = doc.to_json_string().unwrap_err();
        assert_eq!(err.path, ".tables[0][1]", "the error pins the offending cell");
        assert_eq!(err.value, f64::INFINITY);
        assert!(err.to_string().contains(".tables[0][1]"), "{err}");
        // Finite documents emit exactly what Display renders.
        let clean = Value::obj().with("x", 2.5).with("n", 3u64);
        assert_eq!(clean.to_json_string().unwrap(), clean.to_string());
        assert!(clean.check_finite().is_ok());
    }

    #[test]
    fn u64_values_serialise_exactly() {
        // 2^53 + 1 is not representable as f64; seeds are arbitrary u64s.
        let seed = (1u64 << 53) + 1;
        assert_eq!(Value::from(seed).to_string(), "9007199254740993");
        assert_eq!(Value::from(u64::MAX).to_string(), "18446744073709551615");
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Value::Arr(vec![]).to_string(), "[]");
        assert_eq!(Value::obj().to_string(), "{}");
    }

    #[test]
    #[should_panic(expected = "non-object")]
    fn with_on_scalar_panics() {
        let _ = Value::Null.with("k", 1u64);
    }

    #[test]
    fn parse_round_trips_emitted_documents() {
        let doc = Value::obj()
            .with("name", "sweep")
            .with("seed", (1u64 << 53) + 1)
            .with("rate", -2.5)
            .with("grid", vec![1u64, 2, 3])
            .with("nested", Value::obj().with("ok", true).with("none", Value::Null));
        let text = doc.to_string();
        let back = parse(&text).expect("emitted JSON must parse");
        assert_eq!(back, doc);
        // Re-emission is byte-stable.
        assert_eq!(back.to_string(), text);
    }

    #[test]
    fn parse_number_variants() {
        assert_eq!(parse("7").unwrap(), Value::Uint(7));
        assert_eq!(parse("18446744073709551615").unwrap(), Value::Uint(u64::MAX));
        assert_eq!(parse("-3").unwrap(), Value::Num(-3.0));
        assert_eq!(parse("2.5e2").unwrap(), Value::Num(250.0));
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        // Ten thousand `[` overflowed the stack (an uncatchable abort).
        let deep = "[".repeat(10_000);
        for bad in ["", "{", "[1,]", "{\"a\":1,}", "{\"a\":1 \"b\":2}", "tru", "1 2", "nan", &deep]
        {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
        assert_eq!(
            parse(&deep).unwrap_err(),
            "JSON error at byte 128: arrays and objects nest deeper than 128 levels"
        );
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok() && parse(&nested(MAX_DEPTH + 1)).is_err());
        let dup = parse("{\"a\": 1, \"a\": 2}").unwrap_err();
        assert!(dup.contains("duplicate"), "{dup}");
    }

    #[test]
    fn duplicate_keys_are_rejected_at_their_own_offset() {
        // A spec file must not silently half-apply: the second "seed" is a
        // hard error, anchored at the duplicate key's opening quote so the
        // author can jump straight to it.
        let text = "{\"seed\": 1, \"seed\": 2}";
        let err = parse(text).unwrap_err();
        assert_eq!(err, "JSON error at byte 12: duplicate object key \"seed\"");
        assert_eq!(&text[12..13], "\"", "offset 12 is the duplicate's opening quote");
        // Nested objects keep their own key namespaces…
        assert!(parse("{\"a\": {\"k\": 1}, \"b\": {\"k\": 2}}").is_ok());
        // …but duplicates inside a nested object are still caught, at the
        // nested offset.
        let nested = parse("{\"outer\": {\"k\": 1, \"k\": 2}}").unwrap_err();
        assert_eq!(nested, "JSON error at byte 19: duplicate object key \"k\"");
    }

    #[test]
    fn parse_errors_pin_exact_byte_offsets() {
        for (text, want) in [
            ("[1,]", "JSON error at byte 3: expected a JSON value"),
            ("{\"a\":1,}", "JSON error at byte 7: expected '\"'"),
            ("{\"a\":1 \"b\":2}", "JSON error at byte 7: expected ',' or '}' in object"),
            ("[1 2]", "JSON error at byte 3: expected ',' or ']' in array"),
            ("\"unterminated", "JSON error at byte 13: unterminated string"),
            ("01", "JSON error at byte 1: leading zeros are not valid JSON"),
            ("[1] x", "JSON error at byte 4: trailing characters after the document"),
        ] {
            assert_eq!(parse(text).unwrap_err(), want, "offset drifted for {text:?}");
        }
    }

    #[test]
    fn parse_enforces_the_json_number_grammar() {
        // Forms every conforming JSON tool rejects must not slip through a
        // hand-edited spec here either.
        for bad in ["01", "-01", "1.", "-.5", ".5", "-", "1e", "1e+", "+1"] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
        assert_eq!(parse("0").unwrap(), Value::Uint(0));
        assert_eq!(parse("-0.5").unwrap(), Value::Num(-0.5));
        assert_eq!(parse("10.25e-2").unwrap(), Value::Num(0.1025));
    }

    #[test]
    fn as_u64_never_saturates() {
        // An integral double just above u64::MAX must be rejected, not
        // silently clamped to u64::MAX.
        assert_eq!(Value::Num(18_500_000_000_000_000_000.0).as_u64(), None);
        assert_eq!(Value::Num(2.0f64.powi(64)).as_u64(), None);
        let largest_exact = (u64::MAX >> 11) << 11; // representable & < 2^64
        assert_eq!(Value::Num(largest_exact as f64).as_u64(), Some(largest_exact));
    }

    #[test]
    fn parse_unescapes_strings() {
        let v = parse("\"a\\\"b\\\\c\\nd\\u0041\"").unwrap();
        assert_eq!(v, Value::Str("a\"b\\c\nd A".replace("d A", "d\u{41}")));
    }

    #[test]
    fn accessors_read_typed_fields() {
        let doc = parse("{\"n\": 3, \"x\": 1.5, \"s\": \"hi\", \"b\": false, \"a\": [1]}").unwrap();
        assert_eq!(doc.get("n").and_then(Value::as_u64), Some(3));
        assert_eq!(doc.get("n").and_then(Value::as_f64), Some(3.0));
        assert_eq!(doc.get("x").and_then(Value::as_f64), Some(1.5));
        assert_eq!(doc.get("x").and_then(Value::as_u64), None);
        assert_eq!(doc.get("s").and_then(Value::as_str), Some("hi"));
        assert_eq!(doc.get("b").and_then(Value::as_bool), Some(false));
        assert_eq!(doc.get("a").and_then(Value::as_arr).map(<[Value]>::len), Some(1));
        assert!(doc.get("missing").is_none());
        assert!(Value::Null.get("k").is_none());
    }
}
