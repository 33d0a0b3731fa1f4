//! A minimal JSON writer and reader for `--format json` output, the
//! perf-baseline artifact, the persistent result store's envelopes, and
//! the `selcached` wire protocol.
//!
//! The framework depends on nothing outside the workspace, so instead of a
//! serde stack this is a tiny value tree with a renderer: enough to emit
//! tables of numbers and strings, with correct string escaping and
//! locale-independent number formatting. [`Json::parse`] is the inverse,
//! used by the `perf` binary to read the checked-in baseline back, by
//! [`Store`](crate::Store) to read result envelopes, and by the
//! `selcached` server to decode requests.
//!
//! Integers round-trip losslessly through the full `u128` range
//! ([`Json::UInt`] / [`Json::U128`]) — 128-bit job ids flow through this
//! parser, so out-of-`u64`-range integers must not silently degrade to
//! floats.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// A string (escaped on render).
    Str(String),
    /// An unsigned integer, rendered without a fraction.
    UInt(u64),
    /// An unsigned integer too large for `u64` (the parser only produces
    /// this above `u64::MAX`, so `UInt`/`U128` classification is stable).
    U128(u128),
    /// A float, rendered with enough precision to round-trip; non-finite
    /// values render as `null` (JSON has no NaN/Infinity).
    Num(f64),
    /// A boolean.
    Bool(bool),
    /// An ordered array.
    Arr(Vec<Json>),
    /// An object; keys render in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object builder from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Parses a JSON document. Integers without fraction or exponent parse
    /// as [`Json::UInt`] when they fit a `u64`, as [`Json::U128`] when
    /// they fit a `u128`, and only beyond that (or when negative) fall
    /// back to [`Json::Num`]. `null` parses as a non-finite [`Json::Num`]
    /// (matching what the renderer emits for NaN).
    ///
    /// Time is linear in the input. Arrays and objects may nest at most
    /// [`MAX_DEPTH`] levels; deeper input is an error, not a stack
    /// overflow.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
    }

    /// Object field lookup; `None` for non-objects and missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value of a `UInt`, `U128`, or `Num`, if this is one
    /// (lossy above 2^53 by the nature of `f64`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(n) => Some(*n as f64),
            Json::U128(n) => Some(*n as f64),
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The exact `u64` value of a `UInt`, if this is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// The exact value of a `UInt` or `U128`, widened to `u128`.
    pub fn as_u128(&self) -> Option<u128> {
        match self {
            Json::UInt(n) => Some(u128::from(*n)),
            Json::U128(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array items, if this is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// A parse failure: what went wrong and the byte offset where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// How deep [`Json::parse`] lets arrays and objects nest. The parser
/// recurses once per level, so without a cap a request line of a few
/// thousand `[` overflows the stack of the thread reading it. Store
/// envelopes nest 4 levels, the benchmark's reference file 5.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError { message: message.to_string(), offset: self.pos }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Num(f64::NAN)),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parses one array or object with `parse`, one level deeper.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            // Surrogates are not paired up; the writer never
                            // emits them (it only \u-escapes control chars).
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or backslash.
                    // Both are ASCII, so the run ends on a char boundary of
                    // the `&str` input and one UTF-8 check covers it.
                    let rest = &self.bytes[self.pos..];
                    let len =
                        rest.iter().position(|&b| b == b'"' || b == b'\\').unwrap_or(rest.len());
                    let run =
                        std::str::from_utf8(&rest[..len]).map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if integral {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Json::UInt(n));
            }
            // Wider than u64 but still integral: keep it exact — 128-bit
            // job ids must not silently lose precision to a float.
            if let Ok(n) = text.parse::<u128>() {
                return Ok(Json::U128(n));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| JsonError { message: format!("invalid number {text:?}"), offset: start })
    }
}

fn escape(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn render(v: &Json, out: &mut String) {
    match v {
        Json::Str(s) => escape(s, out),
        Json::UInt(n) => {
            let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
        }
        Json::U128(n) => {
            let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
        }
        Json::Num(x) if x.is_finite() => {
            let _ = fmt::Write::write_fmt(out, format_args!("{x}"));
        }
        Json::Num(_) => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Arr(items) => {
            out.push('[');
            for (k, item) in items.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                render(item, out);
            }
            out.push(']');
        }
        Json::Obj(pairs) => {
            out.push('{');
            for (k, (key, val)) in pairs.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                escape(key, out);
                out.push(':');
                render(val, out);
            }
            out.push('}');
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        render(self, &mut s);
        f.write_str(&s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::UInt(42).to_string(), "42");
        assert_eq!(Json::Num(2.5).to_string(), "2.5");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Bool(true).to_string(), "true");
        assert_eq!(Json::str("hi").to_string(), "\"hi\"");
    }

    #[test]
    fn strings_escape_specials() {
        assert_eq!(Json::str("a\"b\\c\nd").to_string(), r#""a\"b\\c\nd""#);
        assert_eq!(Json::str("\u{1}").to_string(), "\"\\u0001\"");
    }

    #[test]
    fn nesting_renders_in_order() {
        let v = Json::obj([
            ("name", Json::str("adi")),
            ("vals", Json::Arr(vec![Json::UInt(1), Json::Num(0.5)])),
        ]);
        assert_eq!(v.to_string(), r#"{"name":"adi","vals":[1,0.5]}"#);
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let v = Json::obj([
            ("name", Json::str("q6 \"quoted\"\n")),
            ("ok", Json::Bool(true)),
            ("count", Json::UInt(12345678901234)),
            ("rate", Json::Num(-0.125)),
            ("nan", Json::Num(f64::NAN)),
            ("rows", Json::Arr(vec![Json::UInt(1), Json::Num(2.5), Json::str("x")])),
        ]);
        let parsed = Json::parse(&v.to_string()).unwrap();
        assert_eq!(parsed.get("name").and_then(Json::as_str), Some("q6 \"quoted\"\n"));
        assert_eq!(parsed.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(parsed.get("count"), Some(&Json::UInt(12345678901234)));
        assert_eq!(parsed.get("rate").and_then(Json::as_f64), Some(-0.125));
        // NaN renders as null and parses back as a non-finite Num.
        assert!(parsed.get("nan").and_then(Json::as_f64).is_some_and(f64::is_nan));
        assert_eq!(parsed.get("rows").and_then(Json::as_arr).map(<[Json]>::len), Some(3));
    }

    #[test]
    fn parse_accepts_whitespace_and_rejects_garbage() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] , \"b\" : null } ").unwrap();
        assert_eq!(v.get("a").and_then(Json::as_arr).map(<[Json]>::len), Some(2));
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\":1} extra").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        let err = Json::parse("nope").unwrap_err();
        assert!(err.to_string().contains("at byte"), "{err}");
    }

    #[test]
    fn parse_numbers_pick_uint_or_float() {
        assert_eq!(Json::parse("7").unwrap(), Json::UInt(7));
        assert_eq!(Json::parse("-7").unwrap(), Json::Num(-7.0));
        assert_eq!(Json::parse("7.5").unwrap(), Json::Num(7.5));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Num(1000.0));
        // Larger than u64: stays an exact integer instead of rounding to
        // 1e20 (128-bit job ids flow through this parser).
        assert_eq!(
            Json::parse("99999999999999999999").unwrap(),
            Json::U128(99_999_999_999_999_999_999)
        );
        assert_eq!(Json::parse("18446744073709551615").unwrap(), Json::UInt(u64::MAX));
        assert_eq!(Json::parse("18446744073709551616").unwrap(), Json::U128(1 << 64));
        // Larger than u128: only then fall back to float.
        let huge = "9".repeat(45);
        assert!(matches!(Json::parse(&huge).unwrap(), Json::Num(_)));
    }

    #[test]
    fn u128_round_trips_exactly() {
        let id = u128::MAX - 12345;
        let v = Json::obj([("job_id", Json::U128(id))]);
        let parsed = Json::parse(&v.to_string()).unwrap();
        assert_eq!(parsed.get("job_id"), Some(&Json::U128(id)));
        assert_eq!(parsed.get("job_id").and_then(Json::as_u128), Some(id));
        // u64-range values keep their exact accessors too.
        let v = Json::parse("12345678901234567890").unwrap();
        assert_eq!(v.as_u64(), Some(12_345_678_901_234_567_890));
        assert_eq!(v.as_u128(), Some(12_345_678_901_234_567_890));
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        for open in ["[", "{\"a\":"] {
            let err = Json::parse(&open.repeat(100_000)).unwrap_err();
            assert_eq!(err.message, "nesting deeper than 128 levels", "{open}");
            assert_eq!(err.offset, MAX_DEPTH * open.len());
        }
        let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&deepest).is_ok());
        let deepest = format!("{}1{}", "{\"a\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(Json::parse(&deepest).is_ok());
        let deeper = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(Json::parse(&deeper).is_err());
        // Siblings do not add up: depth is what is open at once.
        let wide = format!("[{}]", vec!["[[]]"; 1000].join(","));
        assert!(Json::parse(&wide).is_ok());
    }

    #[test]
    fn accessors_are_none_on_wrong_shape() {
        assert_eq!(Json::UInt(1).get("k"), None);
        assert_eq!(Json::str("s").as_f64(), None);
        assert_eq!(Json::UInt(1).as_str(), None);
        assert_eq!(Json::UInt(1).as_arr(), None);
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::str("9").as_u128(), None);
    }
}
