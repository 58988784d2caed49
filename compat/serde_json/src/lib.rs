//! Offline stand-in for `serde_json`.
//!
//! Renders the offline `serde` stand-in's [`Value`] tree as JSON text and
//! parses it back. The encoding is plain JSON: every tree this crate
//! emits is valid JSON, and [`from_str`] accepts any JSON document
//! (objects become [`Value::Map`], arrays [`Value::Seq`]). Floats are
//! printed with Rust's shortest round-trip formatting, so
//! serialize → parse → deserialize reproduces every finite `f64`
//! bit-exactly; non-finite floats are encoded as the strings `"NaN"`,
//! `"inf"`, and `"-inf"` (the `serde` float impls decode them).
//!
//! There is one parser, [`Parser`], a pull source of `serde` [`Tokens`]:
//! [`from_str`] decodes straight from the text through it, and
//! [`parse_value`] reads the same tokens into a tree. It rejects nesting
//! deeper than [`MAX_DEPTH`].

pub use serde::Error;
use serde::{Deserialize, Kind, Number, Serialize, Tokens, Value};
use std::borrow::Cow;
use std::fmt::Write as _;

/// Serializes a value to a JSON string.
///
/// # Errors
///
/// Infallible for the value model in this workspace; the `Result` shape
/// mirrors upstream `serde_json`.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    render(&value.to_value(), &mut out);
    Ok(out)
}

/// Parses a JSON string into any deserializable type.
///
/// # Errors
///
/// Returns an error on malformed JSON or on a shape mismatch.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser::new(s);
    let v = T::deserialize(&mut p)?;
    p.end()?;
    Ok(v)
}

/// Parses a JSON string into a raw [`Value`].
///
/// # Errors
///
/// Returns an error on malformed JSON or trailing garbage.
pub fn parse_value(s: &str) -> Result<Value, Error> {
    let mut p = Parser::new(s);
    let v = p.value()?;
    p.end()?;
    Ok(v)
}

// ---- rendering ---------------------------------------------------------

fn render(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::UInt(u) => {
            let _ = write!(out, "{u}");
        }
        Value::Float(f) => render_float(*f, out),
        Value::Str(s) => render_str(s, out),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render(item, out);
            }
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            for (i, (k, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_str(k, out);
                out.push(':');
                render(item, out);
            }
            out.push('}');
        }
    }
}

fn render_float(f: f64, out: &mut String) {
    if f.is_nan() {
        out.push_str("\"NaN\"");
    } else if f == f64::INFINITY {
        out.push_str("\"inf\"");
    } else if f == f64::NEG_INFINITY {
        out.push_str("\"-inf\"");
    } else {
        // `{:?}` is Rust's shortest representation that round-trips the
        // exact bits; it always contains '.', 'e', or is integral-looking,
        // all of which are valid JSON numbers.
        let _ = write!(out, "{f:?}");
    }
}

fn render_str(s: &str, out: &mut String) {
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

// ---- parsing -----------------------------------------------------------

/// The deepest nesting of sequences and maps [`Parser`] accepts. Every
/// document this workspace writes stays far inside it: a model file nests
/// 9 levels, a run report 10 (two per span) and a cache artifact 11. The
/// bound keeps every reader that recurses along its input —
/// [`parse_value`], [`Tokens::skip`] and the decoders — within a fixed
/// stack (at this depth, under 64 KiB optimized and about 200 KiB
/// unoptimized), so a line of 100,000 `[` is a typed error rather than a
/// stack overflow.
pub const MAX_DEPTH: usize = 128;

/// The JSON pull parser: the one token source of this crate. It reads a
/// document value by value through [`Tokens`], so [`from_str`] (or a
/// caller driving it directly) decodes straight from the text with
/// [`Deserialize::deserialize`]; [`parse_value`] reads the same tokens
/// into a [`Value`] tree. A clone saves the position: assigning it back
/// rewinds the parser.
#[derive(Debug, Clone)]
pub struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
    /// Set when a sequence or map has just been opened: its first element
    /// or entry has no `,` before it.
    first: bool,
}

impl<'a> Parser<'a> {
    /// A parser at the start of `text`.
    pub fn new(text: &'a str) -> Parser<'a> {
        Parser {
            text,
            pos: 0,
            depth: 0,
            first: false,
        }
    }

    /// Checks that nothing but whitespace follows the values read so far.
    ///
    /// # Errors
    ///
    /// Returns an error on trailing characters.
    pub fn end(&mut self) -> Result<(), Error> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(Error(format!("trailing characters at byte {}", self.pos)))
        }
    }

    #[inline]
    fn skip_ws(&mut self) {
        while let Some(b) = self.text.as_bytes().get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    #[inline]
    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.byte() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected `{}` at byte {}, found {:?}",
                b as char,
                self.pos,
                self.byte().map(|c| c as char)
            )))
        }
    }

    #[inline]
    fn kind(&mut self) -> Result<Kind, Error> {
        self.skip_ws();
        match self.byte() {
            Some(b'n') => Ok(Kind::Null),
            Some(b't' | b'f') => Ok(Kind::Bool),
            Some(b'"') => Ok(Kind::Str),
            Some(b'[') => Ok(Kind::Seq),
            Some(b'{') => Ok(Kind::Map),
            Some(c) if c == b'-' || c.is_ascii_digit() => Ok(Kind::Number),
            _ => Err(self.unexpected()),
        }
    }

    #[cold]
    fn unexpected(&self) -> Error {
        Error(format!(
            "unexpected {:?} at byte {}",
            self.byte().map(|c| c as char),
            self.pos
        ))
    }

    fn literal(&mut self, word: &str) -> Result<(), Error> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(Error(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn boolean(&mut self) -> Result<bool, Error> {
        if self.byte() == Some(b't') {
            self.literal("true").map(|()| true)
        } else {
            self.literal("false").map(|()| false)
        }
    }

    /// Consumes the `open` byte of a sequence or map, one level deeper.
    fn open(&mut self, open: u8) -> Result<(), Error> {
        self.skip_ws();
        self.expect(open)?;
        if self.depth == MAX_DEPTH {
            return Err(Error(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos - 1
            )));
        }
        self.depth += 1;
        self.first = true;
        Ok(())
    }

    /// Whether another element or entry of the open container follows:
    /// consumes the `,` before it, or the `close` byte that ends it.
    #[inline]
    fn next_item(&mut self, close: u8) -> Result<bool, Error> {
        self.skip_ws();
        let first = std::mem::take(&mut self.first);
        match self.byte() {
            Some(b) if b == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            _ if first => Ok(true),
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            _ => Err(self.no_separator(close)),
        }
    }

    #[cold]
    fn no_separator(&self, close: u8) -> Error {
        Error(format!(
            "expected `,` or `{}` at byte {}, found {:?}",
            close as char,
            self.pos,
            self.byte().map(|c| c as char)
        ))
    }

    /// The next map key and its `:`, or `None` after the closing `}`.
    fn key(&mut self) -> Result<Option<Cow<'a, str>>, Error> {
        if !self.next_item(b'}')? {
            return Ok(None);
        }
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Reads a string, borrowed from the text unless it has escapes.
    fn string(&mut self) -> Result<Cow<'a, str>, Error> {
        self.expect(b'"')?;
        let bytes = self.text.as_bytes();
        let mut out: Option<String> = None;
        loop {
            let start = self.pos;
            // Fast path: a run of plain bytes. It stops only at ASCII, so
            // it starts and ends on character boundaries.
            while let Some(&b) = bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            let run = &self.text[start..self.pos];
            match self.byte() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match out {
                        None => Cow::Borrowed(run),
                        Some(mut s) => {
                            s.push_str(run);
                            Cow::Owned(s)
                        }
                    });
                }
                Some(b'\\') => {
                    let out = out.get_or_insert_with(String::new);
                    out.push_str(run);
                    self.pos += 1;
                    let esc = self
                        .byte()
                        .ok_or_else(|| Error("unterminated escape".into()))?;
                    self.pos += 1;
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
                            let hex = bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| Error("truncated \\u escape".into()))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error("bad \\u escape".into()))?,
                                16,
                            )
                            .map_err(|_| Error("bad \\u escape".into()))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error("invalid \\u codepoint".into()))?,
                            );
                        }
                        other => {
                            return Err(Error(format!("unknown escape `\\{}`", other as char)))
                        }
                    }
                }
                _ => return Err(Error("unterminated string".into())),
            }
        }
    }

    /// Reads a number: an `i64` when it has no fraction or exponent and
    /// fits, else a `u64` when it fits that, else an `f64`.
    #[inline]
    fn number(&mut self) -> Result<Number, Error> {
        let bytes = self.text.as_bytes();
        let start = self.pos;
        let negative = self.byte() == Some(b'-');
        self.pos += usize::from(negative);
        // Up to 18 digits and nothing after them always fit an `i64`, and
        // accumulate to what `str::parse` returns.
        let mut magnitude: u64 = 0;
        let digits_at = self.pos;
        while let Some(&b) = bytes.get(self.pos) {
            if !b.is_ascii_digit() {
                break;
            }
            magnitude = magnitude.wrapping_mul(10).wrapping_add(u64::from(b - b'0'));
            self.pos += 1;
        }
        let digits = self.pos - digits_at;
        let mut is_float = false;
        while let Some(b) = self.byte() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        if !is_float && (1..=18).contains(&digits) {
            let magnitude = magnitude as i64;
            return Ok(Number::Int(if negative { -magnitude } else { magnitude }));
        }
        let text = &self.text[start..self.pos];
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Number::Int(i));
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Number::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Number::Float)
            .map_err(|e| Error(format!("invalid number `{text}`: {e}")))
    }
}

impl Parser<'_> {
    /// Reads the sequence or map that is the next value, whole.
    fn container(&mut self, kind: Kind) -> Result<Value, Error> {
        Ok(match kind {
            Kind::Seq => {
                self.open(b'[')?;
                let mut items = Vec::new();
                while self.next_item(b']')? {
                    items.push(self.value()?);
                }
                Value::Seq(items)
            }
            Kind::Map => {
                self.open(b'{')?;
                let mut entries = Vec::new();
                while let Some(key) = self.key()? {
                    entries.push((key.into_owned(), self.value()?));
                }
                Value::Map(entries)
            }
            _ => unreachable!("only containers nest"),
        })
    }
}

impl Tokens for Parser<'_> {
    #[inline]
    fn peek(&mut self) -> Result<Kind, Error> {
        self.kind()
    }

    #[inline]
    fn value(&mut self) -> Result<Value, Error> {
        match self.kind()? {
            Kind::Null => self.literal("null").map(|()| Value::Null),
            Kind::Bool => self.boolean().map(Value::Bool),
            Kind::Number => self.number().map(Value::from),
            Kind::Str => Ok(Value::Str(self.string()?.into_owned())),
            kind => self.container(kind),
        }
    }

    fn skip(&mut self) -> Result<(), Error> {
        match self.kind()? {
            Kind::Null => self.literal("null"),
            Kind::Bool => self.boolean().map(drop),
            Kind::Number => self.number().map(drop),
            Kind::Str => self.string().map(drop),
            Kind::Seq => {
                self.open(b'[')?;
                while self.next_item(b']')? {
                    self.skip()?;
                }
                Ok(())
            }
            Kind::Map => {
                self.open(b'{')?;
                while self.key()?.is_some() {
                    self.skip()?;
                }
                Ok(())
            }
        }
    }

    #[inline]
    fn number(&mut self) -> Result<Number, Error> {
        self.skip_ws();
        Parser::number(self)
    }

    fn string(&mut self) -> Result<String, Error> {
        self.skip_ws();
        Parser::string(self).map(Cow::into_owned)
    }

    fn seq_begin(&mut self) -> Result<(), Error> {
        self.open(b'[')
    }

    #[inline]
    fn seq_next(&mut self) -> Result<bool, Error> {
        self.next_item(b']')
    }

    fn map_begin(&mut self) -> Result<(), Error> {
        self.open(b'{')
    }

    fn map_key(&mut self) -> Result<Option<Cow<'_, str>>, Error> {
        self.key()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for json in ["null", "true", "false", "0", "-17", "18446744073709551615"] {
            let v = parse_value(json).expect(json);
            let mut out = String::new();
            render(&v, &mut out);
            assert_eq!(out, json);
        }
    }

    #[test]
    fn floats_round_trip_exactly() {
        for f in [0.1, 1.0 / 3.0, 1e-300, -2.5e17, f64::MAX, 4.9e-324] {
            let s = to_string(&f).unwrap();
            let back: f64 = from_str(&s).unwrap();
            assert_eq!(f.to_bits(), back.to_bits(), "{f} via {s}");
        }
        for f in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let s = to_string(&f).unwrap();
            let back: f64 = from_str(&s).unwrap();
            assert_eq!(f.to_bits(), back.to_bits(), "{f} via {s}");
        }
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "a\"b\\c\nd\te\u{1}f → λ";
        let json = to_string(s).unwrap();
        let back: String = from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn containers_round_trip() {
        use std::collections::BTreeMap;
        let mut m: BTreeMap<(u32, u8), Vec<f64>> = BTreeMap::new();
        m.insert((7, 1), vec![1.5, -0.25]);
        m.insert((2, 9), vec![]);
        let json = to_string(&m).unwrap();
        let back: BTreeMap<(u32, u8), Vec<f64>> = from_str(&json).unwrap();
        assert_eq!(back, m);

        let opt: Vec<Option<Option<u8>>> = vec![None, Some(None), Some(Some(3))];
        let json = to_string(&opt).unwrap();
        let back: Vec<Option<Option<u8>>> = from_str(&json).unwrap();
        assert_eq!(back, opt);
    }

    #[test]
    fn malformed_input_errors_without_panic() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"abc",
            "{\"a\" 1}",
            "nul",
            "1.2.3",
            "[}]",
            "[1,]",
            "{\"a\":1,}",
            "[,1]",
            "{,}",
            "-",
            "[1 2]",
        ] {
            assert!(parse_value(bad).is_err(), "{bad:?} should fail");
            let mut p = Parser::new(bad);
            assert!(
                p.skip().and_then(|()| p.end()).is_err(),
                "{bad:?} should not skip"
            );
            assert!(from_str::<Value>(bad).is_err(), "{bad:?} should not decode");
        }
    }

    /// Numbers classify as before the streaming parser: an `i64` when
    /// there is no fraction or exponent and it fits, a `u64` above that,
    /// an `f64` otherwise (so `-0` is the integer 0).
    #[test]
    fn numbers_classify_by_text() {
        let cases = [
            ("0", Value::Int(0)),
            ("-0", Value::Int(0)),
            ("007", Value::Int(7)),
            ("999999999999999999", Value::Int(999_999_999_999_999_999)),
            ("-9223372036854775808", Value::Int(i64::MIN)),
            ("9223372036854775808", Value::UInt(1 << 63)),
            (
                "18446744073709551616",
                Value::Float(18_446_744_073_709_551_616.0),
            ),
            ("-0.0", Value::Float(-0.0)),
            ("1e3", Value::Float(1000.0)),
            ("2.5E-1", Value::Float(0.25)),
        ];
        for (text, want) in cases {
            let got = parse_value(text).expect(text);
            match (&got, &want) {
                (Value::Float(a), Value::Float(b)) => {
                    assert_eq!(a.to_bits(), b.to_bits(), "{text}")
                }
                _ => assert_eq!(got, want, "{text}"),
            }
        }
    }

    /// Nesting past [`MAX_DEPTH`] is a typed error, not a stack overflow,
    /// for the tree reader, the skipper and a decoder alike — on a thread
    /// with a quarter of the default stack.
    #[test]
    fn deep_nesting_is_an_error_on_a_small_stack() {
        let deep = "[".repeat(100_000);
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        let past_limit = format!("[{at_limit}]");
        std::thread::Builder::new()
            .stack_size(512 * 1024)
            .spawn(move || {
                let err = parse_value(&deep).expect_err("100,000 `[` must not parse");
                assert!(err.0.contains("nesting deeper than"), "{err}");
                assert!(Parser::new(&deep).skip().is_err());
                assert!(from_str::<Vec<Value>>(&deep).is_err());
                assert!(parse_value(&at_limit).is_ok(), "{MAX_DEPTH} levels parse");
                assert!(parse_value(&past_limit).is_err());
                assert!(Parser::new(&past_limit).skip().is_err());
            })
            .expect("spawn")
            .join()
            .expect("no overflow");
    }

    /// The streaming decode agrees with the tree decode on the shapes
    /// where the two could drift: `Option` sequences, tuple-struct extras,
    /// duplicate and unknown keys, unit variants with payloads, and
    /// missing `Option` fields.
    #[test]
    fn streaming_decode_matches_tree_decode() {
        #[derive(Debug, PartialEq, serde::Deserialize)]
        struct Named {
            a: u32,
            b: Option<Vec<i8>>,
        }
        #[derive(Debug, PartialEq, serde::Deserialize)]
        struct Pair(u8, String);
        #[derive(Debug, PartialEq, serde::Deserialize)]
        enum E {
            Unit,
            Tuple(u8, u8),
            One(Vec<u8>),
            Named { x: f64 },
        }
        fn agree<T: Deserialize + std::fmt::Debug>(json: &str) {
            let tree = parse_value(json).and_then(|v| T::from_value(&v));
            let stream = from_str::<T>(json);
            match (&tree, &stream) {
                // Debug renderings, so NaN compares equal to itself.
                (Ok(a), Ok(b)) => assert_eq!(format!("{a:?}"), format!("{b:?}"), "{json}"),
                (Err(_), Err(_)) => {}
                _ => panic!("{json}: tree {tree:?} vs stream {stream:?}"),
            }
        }
        for json in [
            r#"{"a":1,"b":[[1,2]]}"#,
            r#"{"a":1,"b":[1,2]}"#,
            r#"{"a":1,"b":[1]}"#,
            r#"{"a":1,"b":[[1]]}"#,
            r#"{"a":1}"#,
            r#"{"b":null,"a":2,"a":"x"}"#,
            r#"{"a":"x","a":2}"#,
            r#"{"a":1,"z":{"deep":[1,2]},"b":null}"#,
            r#"[1,2]"#,
            r#"7"#,
            r#"{"a":-1}"#,
        ] {
            agree::<Named>(json);
        }
        for json in [
            r#"[1,"s"]"#,
            r#"[1,"s",3,[4]]"#,
            r#"[1]"#,
            r#"{"0":1}"#,
            r#"1"#,
        ] {
            agree::<Pair>(json);
        }
        for json in [
            r#""Unit""#,
            r#"{"Unit":[1,2]}"#,
            r#"{"Tuple":[1,2]}"#,
            r#"{"Tuple":[1]}"#,
            r#"{"Tuple":[1,2,3]}"#,
            r#"{"Tuple":1}"#,
            r#"{"One":[[1,2]]}"#,
            r#"{"One":[1,2]}"#,
            r#"{"Named":{"x":1}}"#,
            r#"{"Named":{"x":"inf"}}"#,
            r#"{"Named":{}}"#,
            r#"{"Named":[1]}"#,
            r#"{"Nope":1}"#,
            r#"{"Unit":1,"Tuple":[1,2]}"#,
            r#"{}"#,
            r#""Named""#,
            r#""Tuple""#,
        ] {
            agree::<E>(json);
        }
        for json in ["[1,2,3]", "[]", "[1,-1]", "[256]", "[1.5]", "{}", "null"] {
            agree::<Vec<u8>>(json);
            agree::<Option<Vec<i64>>>(json);
        }
        for json in ["1", "-1.5", "\"NaN\"", "\"x\"", "true", "1e400", "[1]"] {
            agree::<Option<f32>>(json);
            agree::<bool>(json);
            agree::<String>(json);
        }
    }
}
