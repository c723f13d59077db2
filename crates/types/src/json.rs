//! The workspace's one JSON codec. Every durable or wire format is
//! written and read through it: `tcmp1` frames, the `tcm-serve` WAL and
//! result documents, `--log-json` lines, sweep checkpoints and the
//! trace JSONL.
//!
//! The accepted subset is objects, arrays, strings, unsigned integers
//! and booleans. Floats travel as `f64::to_bits` integers (`*_bits`
//! fields), so nothing is lost to decimal round-tripping, NaN and
//! infinity included. [`number`] is the one exception: a plain decimal
//! for human-facing documents, never read back.
//!
//! The parser is built to read untrusted input: it returns `None` on
//! anything malformed and never panics, nesting deeper than
//! [`MAX_DEPTH`] is rejected before it can exhaust the stack, and
//! strings are scanned in one linear pass.

use std::fmt::Write as _;

/// Deepest nesting of objects and arrays [`parse`] accepts. The
/// deepest document the workspace writes (a submitted sweep) is five
/// levels.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value (subset: no floats, no negative numbers, no
/// null).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// An object, in source order.
    Obj(Vec<(String, Value)>),
    /// An array.
    Arr(Vec<Value>),
    /// A string.
    Str(String),
    /// An unsigned integer.
    UInt(u64),
    /// A boolean.
    Bool(bool),
}

impl Value {
    /// The named field of an object. With duplicate keys, the first
    /// occurrence wins.
    pub fn field<'a>(&'a self, name: &str) -> Option<&'a Value> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
    }

    /// This value as an integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(v) => Some(*v),
            _ => None,
        }
    }

    /// This value as a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// This value as a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value as an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// This value as an object's fields, in source order.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// An array of integers.
    pub fn u64_array(&self) -> Option<Vec<u64>> {
        self.as_arr()?.iter().map(Value::as_u64).collect()
    }

    /// An array of `f64::to_bits` integers, as floats.
    pub fn f64_array(&self) -> Option<Vec<f64>> {
        self.as_arr()?
            .iter()
            .map(|v| v.as_u64().map(f64::from_bits))
            .collect()
    }

    /// An array of strings.
    pub fn str_array(&self) -> Option<Vec<String>> {
        self.as_arr()?
            .iter()
            .map(|v| v.as_str().map(str::to_string))
            .collect()
    }
}

/// Parses one JSON document. Trailing bytes after the value are
/// rejected (every frame payload and every JSONL line is exactly one
/// document). `None` on anything malformed or nested deeper than
/// [`MAX_DEPTH`].
pub fn parse(text: &str) -> Option<Value> {
    let mut p = Parser {
        text,
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    (p.pos == text.len()).then_some(v)
}

/// Appends a JSON string literal to `out`: `"` and `\` are escaped,
/// newline, carriage return and tab as `\n`, `\r` and `\t`, and every
/// other control character as `\u00XX`.
pub fn write_str(out: &mut String, s: &str) {
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

/// Appends a JSON array of string literals (see [`write_str`]).
pub fn write_str_array(out: &mut String, items: impl IntoIterator<Item = impl AsRef<str>>) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_str(out, item.as_ref());
    }
    out.push(']');
}

/// Appends a JSON array of unsigned integers.
pub fn write_u64_array(out: &mut String, items: impl IntoIterator<Item = u64>) {
    out.push('[');
    for (i, v) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
}

/// Appends a finite `f64` as a decimal JSON number and a non-finite one
/// as `null`. For human-facing documents only: lossless round trips use
/// `*_bits` integers instead.
pub fn number(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

struct Parser<'a> {
    text: &'a str,
    /// Byte offset of the next unread character. Only ever advanced
    /// past ASCII bytes or whole string runs, so it always sits on a
    /// character boundary.
    pos: usize,
    /// Objects and arrays currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn rest(&self) -> &'a str {
        self.text.get(self.pos..).unwrap_or_default()
    }

    fn skip_ws(&mut self) {
        self.pos += self
            .rest()
            .bytes()
            .take_while(u8::is_ascii_whitespace)
            .count();
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.rest().bytes().next()
    }

    fn eat(&mut self, b: u8) -> Option<()> {
        (self.peek()? == b).then(|| self.pos += 1)
    }

    fn literal(&mut self, word: &str) -> bool {
        let found = self.rest().starts_with(word);
        if found {
            self.pos += word.len();
        }
        found
    }

    fn value(&mut self) -> Option<Value> {
        match self.peek()? {
            b'{' => self
                .seq(b'}', |p| {
                    let key = p.string()?;
                    p.eat(b':')?;
                    Some((key, p.value()?))
                })
                .map(Value::Obj),
            b'[' => self.seq(b']', Self::value).map(Value::Arr),
            b'"' => self.string().map(Value::Str),
            b'0'..=b'9' => self.uint(),
            b't' if self.literal("true") => Some(Value::Bool(true)),
            b'f' if self.literal("false") => Some(Value::Bool(false)),
            _ => None,
        }
    }

    /// The comma-separated items of the object or array opening at
    /// `pos`, up to its `close` bracket.
    fn seq<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Option<T>,
    ) -> Option<Vec<T>> {
        if self.depth == MAX_DEPTH {
            return None;
        }
        self.depth += 1;
        self.pos += 1;
        let mut items = Vec::new();
        if self.peek()? == close {
            self.pos += 1;
        } else {
            loop {
                items.push(item(self)?);
                match self.peek()? {
                    b',' => self.pos += 1,
                    b if b == close => {
                        self.pos += 1;
                        break;
                    }
                    _ => return None,
                }
            }
        }
        self.depth -= 1;
        Some(items)
    }

    fn string(&mut self) -> Option<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let rest = self.rest();
            let run = rest.bytes().position(|b| b == b'"' || b == b'\\')?;
            out.push_str(&rest[..run]);
            let quote = rest.as_bytes()[run] == b'"';
            self.pos += run + 1;
            if quote {
                return Some(out);
            }
            let escape = self.rest().bytes().next()?;
            self.pos += 1;
            out.push(match escape {
                b'"' => '"',
                b'\\' => '\\',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'u' => {
                    let hex = self.rest().get(..4)?;
                    if !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
                        return None;
                    }
                    self.pos += 4;
                    char::from_u32(u32::from_str_radix(hex, 16).ok()?)?
                }
                _ => return None,
            });
        }
    }

    fn uint(&mut self) -> Option<Value> {
        let digits = self.rest().bytes().take_while(u8::is_ascii_digit).count();
        let v = self.rest()[..digits].parse().ok()?;
        self.pos += digits;
        Some(Value::UInt(v))
    }
}
