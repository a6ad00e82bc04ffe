//! JSON text rendering and parsing for [`Value`] trees.
//!
//! Floats are printed with Rust's shortest-round-trip formatting, so a
//! render → parse cycle reproduces every `f64` exactly.

use crate::{Error, Serialize, Value};

/// Serialize to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    render(&value.to_value(), &mut out, None, 0);
    out
}

/// Serialize to an indented JSON string.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    render(&value.to_value(), &mut out, Some(2), 0);
    out
}

/// Parse a JSON string into a raw [`Value`] tree.
///
/// # Errors
/// Malformed JSON.
pub fn parse_value(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::custom(format!(
            "trailing characters at byte {}",
            p.pos
        )));
    }
    Ok(v)
}

fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn render(v: &Value, out: &mut String, indent: Option<usize>, depth: usize) {
    let pad = |out: &mut String, d: usize| {
        if let Some(w) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(w * d));
        }
    };
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(x) => out.push_str(&x.to_string()),
        Value::I64(x) => out.push_str(&x.to_string()),
        Value::F64(x) => {
            if x.is_finite() {
                // {:?} gives the shortest string that round-trips.
                out.push_str(&format!("{x:?}"));
            } else {
                // JSON has no inf/nan; encode as null like serde_json.
                out.push_str("null");
            }
        }
        Value::Str(s) => escape_into(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                pad(out, depth + 1);
                render(item, out, indent, depth + 1);
            }
            if !items.is_empty() {
                pad(out, depth);
            }
            out.push(']');
        }
        Value::Object(pairs) => {
            out.push('{');
            for (i, (k, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                pad(out, depth + 1);
                escape_into(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                render(item, out, indent, depth + 1);
            }
            if !pairs.is_empty() {
                pad(out, depth);
            }
            out.push('}');
        }
    }
}

/// A value may sit inside this many containers. The parser recurses
/// once per level, so without a cap a few hundred kilobytes of `[`
/// overflow the stack; no artefact this workspace reads nests beyond a
/// dozen levels.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Result<u8, Error> {
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| Error::custom("unexpected end of JSON input"))
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::custom(format!(
                "expected `{}` at byte {}, found `{}`",
                b as char,
                self.pos,
                self.peek().unwrap() as char
            )))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(Error::custom(format!(
                "invalid literal at byte {}",
                self.pos
            )))
        }
    }

    /// Parse the value at `pos`, which sits inside `depth` containers.
    fn value(&mut self, depth: usize) -> Result<Value, Error> {
        if depth > MAX_DEPTH {
            return Err(Error::custom(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )));
        }
        match self.peek()? {
            b'n' => self.literal("null", Value::Null),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'"' => Ok(Value::Str(self.string()?)),
            b'[' => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek()? == b']' {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek()? {
                        b',' => self.pos += 1,
                        b']' => {
                            self.pos += 1;
                            return Ok(Value::Array(items));
                        }
                        other => {
                            return Err(Error::custom(format!(
                                "expected `,` or `]`, found `{}`",
                                other as char
                            )))
                        }
                    }
                }
            }
            b'{' => {
                self.pos += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.peek()? == b'}' {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let v = self.value(depth + 1)?;
                    pairs.push((key, v));
                    self.skip_ws();
                    match self.peek()? {
                        b',' => self.pos += 1,
                        b'}' => {
                            self.pos += 1;
                            return Ok(Value::Object(pairs));
                        }
                        other => {
                            return Err(Error::custom(format!(
                                "expected `,` or `}}`, found `{}`",
                                other as char
                            )))
                        }
                    }
                }
            }
            _ => self.number(),
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = self.peek()?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = self.peek()?;
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
                            if self.pos + 4 > self.bytes.len() {
                                return Err(Error::custom("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| Error::custom("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error::custom("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::custom("bad \\u codepoint"))?,
                            );
                        }
                        other => {
                            return Err(Error::custom(format!("bad escape `\\{}`", other as char)))
                        }
                    }
                }
                b if b < 0x80 => out.push(b as char),
                _ => {
                    // Multi-byte UTF-8: find the full char in the source.
                    let start = self.pos - 1;
                    let s = std::str::from_utf8(&self.bytes[start..])
                        .map_err(|_| Error::custom("invalid UTF-8 in string"))?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos = start + c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::custom("invalid number"))?;
        if text.is_empty() {
            return Err(Error::custom(format!(
                "expected a JSON value at byte {start}"
            )));
        }
        let integral = !text.contains(['.', 'e', 'E']);
        if integral {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::U64(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::I64(i));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| Error::custom(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip_through_text() {
        let v = Value::Object(vec![
            ("a".into(), Value::U64(18446744073709551615)),
            ("b".into(), Value::I64(-42)),
            ("c".into(), Value::F64(0.1 + 0.2)),
            ("d".into(), Value::Str("he\"llo\nworld".into())),
            (
                "e".into(),
                Value::Array(vec![Value::Null, Value::Bool(true)]),
            ),
            ("f".into(), Value::Object(vec![])),
        ]);
        let text = {
            let mut s = String::new();
            super::render(&v, &mut s, None, 0);
            s
        };
        assert_eq!(parse_value(&text).unwrap(), v);
        // Pretty output parses to the same tree.
        let mut pretty = String::new();
        super::render(&v, &mut pretty, Some(2), 0);
        assert_eq!(parse_value(&pretty).unwrap(), v);
    }

    #[test]
    fn floats_are_exact() {
        for x in [1.0e-17, std::f64::consts::PI, 1.5e300, -0.0] {
            let parsed = parse_value(&format!("{x:?}")).unwrap();
            match parsed {
                Value::F64(y) => assert_eq!(x.to_bits(), y.to_bits()),
                other => panic!("expected float, got {other:?}"),
            }
        }
    }

    #[test]
    fn garbage_errors_cleanly() {
        assert!(parse_value("{").is_err());
        assert!(parse_value("[1,]").is_err());
        assert!(parse_value("nul").is_err());
        assert!(parse_value("1 2").is_err());
    }

    #[test]
    fn nesting_is_capped_instead_of_overflowing_the_stack() {
        let nested = |n: usize| format!("{}1{}", "[".repeat(n), "]".repeat(n));
        assert!(parse_value(&nested(MAX_DEPTH)).is_ok());
        assert!(parse_value(&nested(MAX_DEPTH + 1)).is_err());
        assert!(parse_value(&"[".repeat(200_000)).is_err());
        assert!(parse_value(&"{\"k\":".repeat(200_000)).is_err());
    }
}
