//! Minimal JSON reader/writer — the workspace's one JSON codec, shared
//! by the trace and telemetry subsystems and the `pema-bench` perf
//! harness (baseline files).
//!
//! The build environment has no route to a crates registry, so JSON is
//! hand-rolled. This module started life in `pema-trace` (which still
//! re-exports it as `pema_trace::json`) and moved here so the telemetry
//! event sink can reuse it without a dependency cycle: `pema-telemetry`
//! sits below `pema-control` in the graph, `pema-trace` above. Two
//! requirements shape it:
//!
//! * **bit-exact `f64` round trips.** Numbers are *written* with
//!   Rust's shortest-round-trip `Display` and *kept as raw tokens*
//!   when parsed ([`Value::Num`] stores the token, not an `f64`), so
//!   `u64` counters survive above 2^53 and every finite float parses
//!   back to the identical bits. Non-finite floats (a saturated
//!   window's `p95_ms` is `inf`) have no JSON literal; the format
//!   layer encodes them as the strings `"inf"` / `"-inf"` / `"nan"`.
//! * **strict schema checks.** [`ObjReader`] drains an object's keys
//!   one by one and can reject unknown leftovers, which is how the
//!   strict reading mode detects schema drift.

/// A parsed JSON value. Numbers keep their raw token (see the module
/// docs); objects preserve key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Object as an ordered key/value list.
    Obj(Vec<(String, Value)>),
    /// Array.
    Arr(Vec<Value>),
    /// Number, as its raw unparsed token.
    Num(String),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
    /// Null.
    Null,
}

impl Value {
    /// Object field lookup: the first value under `key`, if this is an
    /// object that has one.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Short type name for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Obj(_) => "object",
            Value::Arr(_) => "array",
            Value::Num(_) => "number",
            Value::Str(_) => "string",
            Value::Bool(_) => "bool",
            Value::Null => "null",
        }
    }
}

/// Consumes an object's fields by name, tracking what is left over so
/// strict readers can reject unknown keys.
pub struct ObjReader {
    fields: Vec<(String, Value)>,
}

impl ObjReader {
    /// Wraps a parsed value; errors unless it is an object.
    pub fn new(v: Value) -> Result<Self, String> {
        match v {
            Value::Obj(fields) => Ok(Self { fields }),
            other => Err(format!("expected an object, found {}", other.kind())),
        }
    }

    /// Removes and returns a required field.
    pub fn take(&mut self, key: &str) -> Result<Value, String> {
        self.take_opt(key)
            .ok_or_else(|| format!("missing required key \"{key}\""))
    }

    /// Removes and returns an optional field.
    pub fn take_opt(&mut self, key: &str) -> Option<Value> {
        let i = self.fields.iter().position(|(k, _)| k == key)?;
        Some(self.fields.remove(i).1)
    }

    /// Finishes the read: in strict mode any remaining (unknown) key
    /// is an error; in lenient mode leftovers are ignored.
    pub fn finish(self, strict: bool) -> Result<(), String> {
        if strict {
            if let Some((k, _)) = self.fields.first() {
                return Err(format!("unknown key \"{k}\" (strict mode)"));
            }
        }
        Ok(())
    }
}

// ---- writing ----

/// Escapes and quotes a string for JSON output.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_quoted(&mut out, s);
    out
}

/// Appends `s` escaped and quoted, without the intermediate allocation
/// of [`quote`] — the event log formats a line per control interval,
/// so its keys and values go through here.
pub fn push_quoted(out: &mut String, s: &str) {
    use std::fmt::Write as _;
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends an `f64` in the trace encoding: shortest-round-trip decimal
/// for finite values, the strings `"inf"` / `"-inf"` / `"nan"`
/// otherwise.
pub fn push_f64(out: &mut String, v: f64) {
    use std::fmt::Write as _;
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else if v.is_nan() {
        out.push_str("\"nan\"");
    } else if v > 0.0 {
        out.push_str("\"inf\"");
    } else {
        out.push_str("\"-inf\"");
    }
}

/// Reads an `f64` in the trace encoding (number, or one of the
/// non-finite string tokens).
pub fn read_f64(v: &Value) -> Result<f64, String> {
    if let Some(x) = v.as_f64() {
        return Ok(x);
    }
    match v.as_str() {
        Some("inf") => Ok(f64::INFINITY),
        Some("-inf") => Ok(f64::NEG_INFINITY),
        Some("nan") => Ok(f64::NAN),
        _ => Err(format!("expected a number, found {}", v.kind())),
    }
}

/// Reads a required `u64`.
pub fn read_u64(v: &Value) -> Result<u64, String> {
    v.as_u64()
        .ok_or_else(|| format!("expected a non-negative integer, found {}", v.kind()))
}

/// Reads a required string.
pub fn read_string(v: &Value) -> Result<String, String> {
    v.as_str()
        .map(str::to_owned)
        .ok_or_else(|| format!("expected a string, found {}", v.kind()))
}

/// Reads an array of trace-encoded `f64`s.
pub fn read_f64_array(v: &Value) -> Result<Vec<f64>, String> {
    v.as_array()
        .ok_or_else(|| format!("expected an array, found {}", v.kind()))?
        .iter()
        .map(read_f64)
        .collect()
}

// ---- parsing ----

/// Parses one complete JSON document (one trace line).
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => Ok(Value::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Value::Null),
        Some(_) => parse_num(b, pos),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(b, pos, b'{')?;
    let mut kv = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(kv));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        expect(b, pos, b':')?;
        let val = parse_value(b, pos)?;
        kv.push((key, val));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(kv));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    skip_ws(b, pos);
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {}", *pos));
    }
    *pos += 1;
    let mut out = String::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let esc = b.get(*pos).copied().ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        if *pos + 4 > b.len() {
                            return Err("truncated \\u escape".to_string());
                        }
                        let hex = std::str::from_utf8(&b[*pos..*pos + 4])
                            .map_err(|_| "bad \\u escape".to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| "bad \\u escape".to_string())?;
                        *pos += 4;
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    }
                    other => return Err(format!("bad escape '\\{}'", other as char)),
                }
            }
            c => {
                // Re-assemble multi-byte UTF-8 sequences.
                let len = match c {
                    0x00..=0x7F => {
                        out.push(c as char);
                        continue;
                    }
                    0xC0..=0xDF => 2,
                    0xE0..=0xEF => 3,
                    _ => 4,
                };
                let start = *pos - 1;
                let end = (start + len).min(b.len());
                let s = std::str::from_utf8(&b[start..end])
                    .map_err(|_| "invalid UTF-8 in string".to_string())?;
                out.push_str(s);
                *pos = end;
            }
        }
    }
    Err("unterminated string".to_string())
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    let raw = std::str::from_utf8(&b[start..*pos]).map_err(|_| "bad number".to_string())?;
    if raw.is_empty() || raw.parse::<f64>().is_err() {
        return Err(format!("bad number at byte {start}"));
    }
    Ok(Value::Num(raw.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_round_trip_is_bit_exact() {
        for v in [
            0.0,
            -0.0,
            1.5,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            123_456_789.123_456_78,
            -2.2250738585072014e-308,
        ] {
            let mut s = String::new();
            push_f64(&mut s, v);
            let back = read_f64(&parse(&s).unwrap()).unwrap();
            assert_eq!(v.to_bits(), back.to_bits(), "{v} -> {s} -> {back}");
        }
    }

    #[test]
    fn non_finite_tokens_round_trip() {
        for v in [f64::INFINITY, f64::NEG_INFINITY] {
            let mut s = String::new();
            push_f64(&mut s, v);
            assert_eq!(read_f64(&parse(&s).unwrap()).unwrap(), v);
        }
        let mut s = String::new();
        push_f64(&mut s, f64::NAN);
        assert!(read_f64(&parse(&s).unwrap()).unwrap().is_nan());
    }

    #[test]
    fn u64_survives_above_2_pow_53() {
        let v = u64::MAX - 1;
        let parsed = parse(&format!("{{\"n\":{v}}}")).unwrap();
        let mut obj = ObjReader::new(parsed).unwrap();
        assert_eq!(read_u64(&obj.take("n").unwrap()).unwrap(), v);
        obj.finish(true).unwrap();
    }

    #[test]
    fn obj_reader_strict_rejects_unknown_keys() {
        let v = parse("{\"a\":1,\"b\":2}").unwrap();
        let mut r = ObjReader::new(v.clone()).unwrap();
        r.take("a").unwrap();
        assert!(r.finish(true).is_err());
        let mut r = ObjReader::new(v).unwrap();
        r.take("a").unwrap();
        r.finish(false).unwrap();
    }

    #[test]
    fn strings_escape_and_parse() {
        let s = "line\nwith \"quotes\" and \\ unicode é";
        let q = quote(s);
        assert_eq!(parse(&q).unwrap().as_str().unwrap(), s);
        // Escapes inside nested containers, with object lookup.
        let v = parse(r#"{"a": [1, -2.5e3, "x\n\"y\""], "b": {"c": null, "d": true}}"#).unwrap();
        let a = v.get("a").and_then(|x| x.as_array()).unwrap();
        assert_eq!(a[1].as_f64(), Some(-2500.0));
        assert_eq!(a[2].as_str(), Some("x\n\"y\""));
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Value::Null));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Value::Bool(true)));
        assert_eq!(v.get("missing"), None);
        assert_eq!(a[0].get("a"), None);
    }

    #[test]
    fn malformed_inputs_error() {
        for bad in [
            "{",
            "{} extra",
            "[1,",
            "{\"a\" 1}",
            "12x",
            "\"open",
            "{\"a\":}",
            "{\"a\": }",
        ] {
            assert!(parse(bad).is_err(), "{bad} should not parse");
        }
    }
}
