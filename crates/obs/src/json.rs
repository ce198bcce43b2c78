//! The one flat-JSON codec of the workspace. Every text line the tree
//! emits — service protocol, job journal, [`crate::wire`] trace lines,
//! the Chrome trace and metrics exports — is built by [`JOut`], and
//! every line it reads back is parsed by [`JObj`]. The workspace vendors
//! no serde, and all of these need exactly one shape — a single-level
//! object of string / number / boolean values — so this module
//! implements just that, strictly enough to reject malformed input with
//! a message instead of guessing.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One JSON scalar.
#[derive(Debug, Clone, PartialEq)]
pub enum JVal {
    /// A (already unescaped) string.
    Str(String),
    /// A non-negative integer token (digits only), exact over all of
    /// `u64` — job ids and `f64::to_bits` payloads survive unrounded.
    Int(u64),
    /// Any other JSON number, digit runs beyond `u64::MAX` included.
    Num(f64),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
}

/// A parsed flat JSON object with typed accessors.
#[derive(Debug, Clone, Default)]
pub struct JObj {
    fields: BTreeMap<String, JVal>,
}

impl JObj {
    /// Parse one `{ "key": value, ... }` line. Values must be scalars
    /// (string, number, boolean, null) — nested containers are a
    /// protocol error by construction. Duplicate keys are rejected.
    pub fn parse(s: &str) -> Result<JObj, String> {
        let mut p = Parser { s, at: 0 };
        p.eat(b'{')?;
        let mut fields = BTreeMap::new();
        if !p.at_close() {
            loop {
                let key = p.string()?;
                p.eat(b':')?;
                let val = p.value()?;
                if fields.insert(key.clone(), val).is_some() {
                    return Err(format!("duplicate key '{key}'"));
                }
                if p.at_close() {
                    break;
                }
                p.eat(b',')?;
            }
        }
        p.ws();
        if p.at != s.len() {
            return Err(format!("trailing content at byte {}", p.at));
        }
        Ok(JObj { fields })
    }

    /// Raw field access.
    pub fn get(&self, key: &str) -> Option<&JVal> {
        self.fields.get(key)
    }

    /// The string value of `key`, if present and a string.
    pub fn str_of(&self, key: &str) -> Option<&str> {
        match self.fields.get(key) {
            Some(JVal::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// The value of `key` as u64: present and a plain non-negative
    /// integer token (no sign, fraction or exponent).
    pub fn u64_of(&self, key: &str) -> Option<u64> {
        match self.fields.get(key) {
            Some(JVal::Int(n)) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value of `key`.
    pub fn f64_of(&self, key: &str) -> Option<f64> {
        match self.fields.get(key) {
            Some(JVal::Num(n)) => Some(*n),
            Some(JVal::Int(n)) => Some(*n as f64),
            _ => None,
        }
    }

    /// The boolean value of `key`.
    pub fn bool_of(&self, key: &str) -> Option<bool> {
        match self.fields.get(key) {
            Some(JVal::Bool(b)) => Some(*b),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a str,
    at: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.at).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.at += 1;
        Some(c)
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    /// Skip whitespace, then consume a closing brace if one is next.
    fn at_close(&mut self) -> bool {
        self.ws();
        let close = self.peek() == Some(b'}');
        self.at += usize::from(close);
        close
    }

    /// Skip whitespace, then consume exactly `c`.
    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        match self.next() {
            Some(got) if got == c => Ok(()),
            got => Err(format!(
                "expected '{}' at byte {}, got {:?}",
                char::from(c),
                self.at,
                got.map(char::from)
            )),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte in one piece: all of those are ASCII, so the cut
            // falls on a character boundary.
            let start = self.at;
            while matches!(self.peek(), Some(c) if c >= 0x20 && c != b'"' && c != b'\\') {
                self.at += 1;
            }
            out.push_str(&self.s[start..self.at]);
            match self.next() {
                None => return Err("unterminated string".into()),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.next() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.next().ok_or("unterminated \\u escape")?;
                            let d = (d as char).to_digit(16).ok_or("bad \\u escape digit")?;
                            code = code * 16 + d;
                        }
                        out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                    }
                    other => return Err(format!("bad escape {:?}", other.map(char::from))),
                },
                Some(_) => return Err("raw control character in string".into()),
            }
        }
    }

    fn value(&mut self) -> Result<JVal, String> {
        self.ws();
        match self.peek() {
            Some(b'"') => Ok(JVal::Str(self.string()?)),
            Some(b't') => self.literal("true", JVal::Bool(true)),
            Some(b'f') => self.literal("false", JVal::Bool(false)),
            Some(b'n') => self.literal("null", JVal::Null),
            Some(b'{' | b'[') => Err("nested containers are not part of the protocol".into()),
            Some(_) => {
                let start = self.at;
                while matches!(
                    self.peek(),
                    Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                ) {
                    self.at += 1;
                }
                let text = &self.s[start..self.at];
                // A digits-only token that fits u64 stays an exact
                // integer. One that does not is still a number — a huge
                // finite residual prints without an exponent — but only
                // as `Num`, which `u64_of` refuses: it never reads back
                // as a rounded neighbour.
                if text.bytes().all(|c| c.is_ascii_digit()) {
                    if let Ok(n) = text.parse::<u64>() {
                        return Ok(JVal::Int(n));
                    }
                }
                text.parse::<f64>()
                    .map(JVal::Num)
                    .map_err(|_| format!("cannot parse '{text}' as a number"))
            }
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, lit: &str, val: JVal) -> Result<JVal, String> {
        if self.s[self.at..].starts_with(lit) {
            self.at += lit.len();
            Ok(val)
        } else {
            Err(format!("expected '{lit}' at byte {}", self.at))
        }
    }
}

/// The writer: builds one flat JSON object, field by field, in call
/// order. It alone knows key quoting, string escaping and number
/// formatting. Two layouts share it: [`JOut::line`] is the compact
/// NDJSON form of the protocol, journal and trace wire;
/// [`JOut::spaced`] is the `": "` / `", "` form of the export files
/// (Chrome trace, metrics), where a whole-valued float also keeps its
/// `.0` so viewers type the column as a float.
#[derive(Debug, Clone)]
pub struct JOut {
    buf: String,
    spaced: bool,
}

impl JOut {
    /// An empty object in the compact NDJSON layout.
    pub fn line() -> JOut {
        JOut {
            buf: String::from("{"),
            spaced: false,
        }
    }

    /// An empty object in the export-file layout.
    pub fn spaced() -> JOut {
        JOut {
            spaced: true,
            ..JOut::line()
        }
    }

    fn key(&mut self, key: &str) {
        if self.buf.len() > 1 {
            self.buf.push_str(if self.spaced { ", " } else { "," });
        }
        push_string(&mut self.buf, key);
        self.buf.push_str(if self.spaced { ": " } else { ":" });
    }

    /// Append `"key":"value"`, escaped.
    pub fn str(mut self, key: &str, value: &str) -> JOut {
        self.key(key);
        push_string(&mut self.buf, value);
        self
    }

    /// Append an unsigned integer field (exact over all of `u64`).
    pub fn u64(mut self, key: &str, value: u64) -> JOut {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Append a boolean field.
    pub fn bool(self, key: &str, value: bool) -> JOut {
        self.raw(key, if value { "true" } else { "false" })
    }

    /// Append a float field: Rust's shortest-round-trip digits, which
    /// `f64` parsing recovers bit-exactly; a non-finite value (not a
    /// JSON number) becomes `null`.
    pub fn f64(mut self, key: &str, value: f64) -> JOut {
        if !value.is_finite() {
            return self.raw(key, "null");
        }
        self.key(key);
        let at = self.buf.len();
        let _ = write!(self.buf, "{value}");
        if self.spaced && !self.buf[at..].contains('.') {
            self.buf.push_str(".0");
        }
        self
    }

    /// Append a field whose value is an already-rendered JSON token: a
    /// nested [`JOut::finish`]ed object or a fixed-point number.
    pub fn raw(mut self, key: &str, token: &str) -> JOut {
        self.key(key);
        self.buf.push_str(token);
        self
    }

    /// Close the object and return its text (no trailing newline).
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Append `s` as a quoted, escaped JSON string literal.
fn push_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_objects() {
        let o = JObj::parse(
            "{\"op\":\"submit\",\"force\":false,\"job\":42,\"x\":-1.5e3,\"none\":null}",
        )
        .unwrap();
        assert_eq!(o.str_of("op"), Some("submit"));
        assert_eq!(o.bool_of("force"), Some(false));
        assert_eq!(o.u64_of("job"), Some(42));
        assert_eq!(o.f64_of("x"), Some(-1500.0));
        assert_eq!(o.get("none"), Some(&JVal::Null));
        assert!(o.get("missing").is_none());
        assert!(JObj::parse(" { } ").unwrap().get("x").is_none());
        let spaced = JObj::parse(" {\t\"a\" : 1 ,\n\"b\" : \"x\" }\r\n").unwrap();
        assert_eq!(
            (spaced.u64_of("a"), spaced.str_of("b")),
            (Some(1), Some("x"))
        );
    }

    #[test]
    fn written_strings_round_trip_through_parse() {
        let nasty = "line1\nline2\t\"quoted\" back\\slash \u{1}end ünïcode";
        for out in [JOut::line(), JOut::spaced()] {
            let line = out.str(nasty, nasty).finish();
            assert_eq!(JObj::parse(&line).unwrap().str_of(nasty), Some(nasty));
        }
    }

    #[test]
    fn writer_layouts_and_number_tokens() {
        let fill = |o: JOut| {
            o.str("s", "x")
                .u64("n", u64::MAX)
                .bool("b", true)
                .f64("whole", 2.0)
                .f64("nan", f64::NAN)
                .f64("inf", f64::NEG_INFINITY)
                .raw("o", &JOut::spaced().finish())
                .finish()
        };
        assert_eq!(
            fill(JOut::line()),
            "{\"s\":\"x\",\"n\":18446744073709551615,\"b\":true,\"whole\":2,\"nan\":null,\"inf\":null,\"o\":{}}"
        );
        assert_eq!(
            fill(JOut::spaced()),
            "{\"s\": \"x\", \"n\": 18446744073709551615, \"b\": true, \"whole\": 2.0, \"nan\": null, \"inf\": null, \"o\": {}}"
        );
    }

    #[test]
    fn integer_tokens_are_exact_and_range_checked() {
        let wide = (1u64 << 53) + 1;
        let o = JObj::parse(&format!("{{\"a\":{wide},\"b\":{},\"c\":7}}", u64::MAX)).unwrap();
        assert_eq!(o.u64_of("a"), Some(wide));
        assert_eq!(o.u64_of("b"), Some(u64::MAX));
        assert_eq!(o.f64_of("c"), Some(7.0));
        // A digit run past u64::MAX is a number — a huge finite float
        // prints without an exponent — but never an integer.
        for v in [18446744073709551616.0, 1.9e19, 1e300] {
            let line = JOut::line().f64("a", v).finish();
            let o = JObj::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!((o.f64_of("a"), o.u64_of("a")), (Some(v), None), "{line}");
        }
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "[1,2]",
            "{\"a\":1",
            "{\"a\":{}}",
            "{\"a\":[1]}",
            "{\"a\":1}trailing",
            "{\"a\":1,\"a\":2}",
            "{\"a\":tru}",
            "{\"a\":\"unterminated}",
            "{\"a\":\"raw\ncontrol\"}",
            "{\"a\":\"bad \\x escape\"}",
        ] {
            assert!(JObj::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn u64_accessor_rejects_fractions_and_negatives() {
        let o = JObj::parse("{\"a\":1.5,\"b\":-2,\"c\":3,\"d\":3.0,\"e\":3e0}").unwrap();
        for key in ["a", "b", "d", "e"] {
            assert_eq!(o.u64_of(key), None, "{key}");
        }
        assert_eq!(o.u64_of("c"), Some(3));
    }
}
