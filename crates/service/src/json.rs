//! A minimal hand-rolled JSON writer (no serde; the workspace has no
//! registry access).
//!
//! [`JsonWriter`] produces *compact* JSON — no whitespace, one line —
//! so response bodies are cheap to compare byte-for-byte and embed as
//! sub-objects of other documents (`tpn batch` relies on this). Comma
//! placement is one flag, and the open containers are a bit stack (at
//! most 64 deep); string escaping covers the mandatory set (`"`+`\`
//! plus control characters as `\u00XX`).
//!
//! Numbers: integers are written exactly; [`tpn_rational::Rational`]
//! values are written as their exact `"n/d"` string rendering (an
//! `i128` numerator does not fit a JSON double), with a separate
//! [`JsonWriter::fixed`] helper for 6-decimal approximations where a
//! human-scale number is wanted. Integers, rationals and ids such as
//! `s12` come from `tpn_rational`'s digit kernel, not `core::fmt`: the
//! bytes are the same as `Display`'s, at the cost of the bytes
//! themselves. A document's size is known roughly before it is
//! written, so [`JsonWriter::with_capacity`] lets the caller allocate
//! it once.

use std::fmt::{self, Write as _};

use tpn_rational::{push_fixed, push_i128, push_u64, Rational};
use tpn_reach::StateId;

/// Escape `s` as a JSON string literal, quotes included.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    escape_into(&mut out, s);
    out
}

/// A byte that a JSON string literal must escape.
fn needs_escape(b: u8) -> bool {
    b < 0x20 || b == b'"' || b == b'\\'
}

/// Append `s` to `out` as a JSON string literal, quotes included.
/// Runs of bytes that need no escaping are copied whole, so a string
/// with none (every key and almost every value) is one scan and one
/// copy.
fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    let mut start = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if !needs_escape(b) {
            continue;
        }
        // `b` is ASCII, so `i` falls on a char boundary.
        out.push_str(&s[start..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        start = i + 1;
    }
    out.push_str(&s[start..]);
    out.push('"');
}

/// An append-only compact-JSON builder.
///
/// ```
/// use tpn_service::json::JsonWriter;
///
/// let mut w = JsonWriter::new();
/// w.begin_object();
/// w.key("name");
/// w.string("fig1");
/// w.key("states");
/// w.uint(18);
/// w.end_object();
/// assert_eq!(w.finish(), r#"{"name":"fig1","states":18}"#);
/// ```
#[derive(Default)]
pub struct JsonWriter {
    out: String,
    /// One bit per open container, the innermost lowest: set for an
    /// object, clear for an array.
    objects: u64,
    /// How many containers are open (at most 64).
    depth: u32,
    /// The next member or element follows a sibling: write a comma.
    comma: bool,
    // `key()` was just written; the next value completes the member
    pending_key: bool,
}

impl JsonWriter {
    /// A fresh writer.
    pub fn new() -> JsonWriter {
        JsonWriter::default()
    }

    /// A fresh writer whose document buffer holds `bytes` before it
    /// first grows.
    pub fn with_capacity(bytes: usize) -> JsonWriter {
        JsonWriter {
            out: String::with_capacity(bytes),
            ..JsonWriter::default()
        }
    }

    /// The finished document.
    ///
    /// # Panics
    /// Panics if containers are still open — that is a serialization
    /// bug, not an input error.
    pub fn finish(self) -> String {
        assert!(
            self.depth == 0 && !self.pending_key,
            "unbalanced JSON writer"
        );
        self.out
    }

    /// The innermost open container is an object.
    fn in_object(&self) -> bool {
        self.depth > 0 && self.objects & 1 == 1
    }

    /// Separator bookkeeping before a value (or container opening).
    fn before_value(&mut self) {
        debug_assert!(
            self.pending_key || !self.in_object(),
            "object members need key() before the value"
        );
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
        self.pending_key = false;
    }

    /// Start a member of the current object: writes `"k":`.
    pub fn key(&mut self, k: &str) {
        assert!(self.in_object(), "key() outside an object");
        if self.comma {
            self.out.push(',');
        }
        escape_into(&mut self.out, k);
        self.out.push(':');
        self.comma = false;
        self.pending_key = true;
    }

    /// Write `bracket` and push a container.
    fn open(&mut self, bracket: char, object: bool) {
        self.before_value();
        assert!(self.depth < u64::BITS, "JSON nested deeper than 64");
        self.out.push(bracket);
        self.objects = self.objects << 1 | u64::from(object);
        self.depth += 1;
        self.comma = false;
    }

    /// Write `bracket` and pop a container.
    fn close(&mut self, bracket: char, object: bool) {
        debug_assert!(
            self.depth > 0 && self.in_object() == object,
            "{bracket} closes no open container of its kind"
        );
        self.out.push(bracket);
        self.objects >>= 1;
        self.depth -= 1;
        self.comma = true;
    }

    /// Open `{`.
    pub fn begin_object(&mut self) {
        self.open('{', true);
    }

    /// Close `}`.
    pub fn end_object(&mut self) {
        self.close('}', true);
    }

    /// Open `[`.
    pub fn begin_array(&mut self) {
        self.open('[', false);
    }

    /// Close `]`.
    pub fn end_array(&mut self) {
        self.close(']', false);
    }

    /// A string value.
    pub fn string(&mut self, s: &str) {
        self.before_value();
        escape_into(&mut self.out, s);
    }

    /// An unsigned integer value.
    pub fn uint(&mut self, n: u64) {
        self.before_value();
        push_u64(&mut self.out, n);
    }

    /// A signed (possibly 128-bit) integer value.
    pub fn int(&mut self, n: i128) {
        self.before_value();
        push_i128(&mut self.out, n);
    }

    /// A state id such as `s12` as a string value — the bytes of its
    /// `Display`.
    pub fn state_id(&mut self, s: StateId) {
        // A letter and digits: nothing to escape.
        self.before_value();
        self.out.push('"');
        s.push_to(&mut self.out);
        self.out.push('"');
    }

    /// A boolean value.
    pub fn bool(&mut self, b: bool) {
        self.before_value();
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// A fixed-point decimal with `digits` fractional digits — the JSON
    /// counterpart of the CLI's `{:.6}` throughput rendering.
    pub fn fixed(&mut self, x: f64, digits: usize) {
        self.before_value();
        push_fixed(&mut self.out, x, digits);
    }

    /// A full-precision float: Rust's shortest round-trip rendering,
    /// which is deterministic across platforms (the sweep endpoint's
    /// byte-for-byte cacheability relies on this). Non-finite values
    /// have no JSON number form and are written as `null`.
    pub fn float(&mut self, x: f64) {
        if !x.is_finite() {
            self.null();
            return;
        }
        self.before_value();
        let _ = write!(self.out, "{x}");
    }

    /// A `null` value.
    pub fn null(&mut self) {
        self.before_value();
        self.out.push_str("null");
    }

    /// A pre-rendered JSON value embedded verbatim — the `/v1`
    /// envelope uses this to nest complete endpoint documents (which
    /// this writer itself produced) without re-parsing them. The
    /// caller owes the writer a single well-formed JSON value.
    pub fn raw(&mut self, json: &str) {
        self.before_value();
        self.out.push_str(json);
    }

    /// An exact rational as its `"n/d"` (or `"n"` when integral)
    /// string rendering.
    pub fn rational(&mut self, r: &Rational) {
        // Digits, '-' and '/' only: nothing to escape.
        self.before_value();
        self.out.push('"');
        r.push_to(&mut self.out);
        self.out.push('"');
    }

    /// A string value written straight from `v`'s `Display`, with no
    /// intermediate `String` — for renderings that never need escaping
    /// (numbers, ids such as `s12`, hex digests).
    pub fn display(&mut self, v: impl fmt::Display) {
        self.before_value();
        let start = self.out.len();
        let _ = write!(self.out, "\"{v}\"");
        debug_assert!(
            !self.out[start + 1..self.out.len() - 1]
                .bytes()
                .any(needs_escape),
            "display() given a value that needs escaping"
        );
    }
}

/// The canonical error body `{"error":"…"}` used by every endpoint.
pub fn error_body(message: &str) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("error");
    w.string(message);
    w.end_object();
    w.finish()
}

/// The structured error object `{"code":"…","message":"…"}` used by the
/// versioned surfaces (`/v1` envelopes and entries, `/whatif`
/// perturbation entries). `code` is a stable machine-readable
/// classifier ([`ServiceError::code`](crate::ServiceError::code));
/// `message` is the bare human-readable message without the legacy
/// `Display` prefix.
pub fn error_object(code: &str, message: &str) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("code");
    w.string(code);
    w.key("message");
    w.string(message);
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_containers_and_commas() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("a");
        w.begin_array();
        w.uint(1);
        w.int(-2);
        w.bool(true);
        w.begin_object();
        w.key("x");
        w.string("y");
        w.end_object();
        w.end_array();
        w.key("b");
        w.rational(&Rational::new(1067, 10));
        w.key("c");
        w.fixed(0.0028518, 6);
        w.end_object();
        assert_eq!(
            w.finish(),
            r#"{"a":[1,-2,true,{"x":"y"}],"b":"1067/10","c":0.002852}"#
        );
    }

    #[test]
    fn escaping() {
        assert_eq!(escape("a\"b\\c\n"), r#""a\"b\\c\n""#);
        assert_eq!(escape("\u{1}"), "\"\\u0001\"");
        assert_eq!(escape("héllo"), "\"héllo\"");
    }

    /// The char-by-char escaper the writer used before it escaped in
    /// place, kept as the oracle.
    fn reference_escape(s: &str) -> String {
        let mut out = String::from("\"");
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
        out
    }

    #[test]
    fn writer_keys_and_strings_escape_like_escape() {
        for s in [
            "",
            "plain",
            "a\"b",
            "back\\slash",
            "line\nbreak\r\t",
            "\u{1}ctl\u{1f}",
            "héllo — ✓ 日本",
            "\"\\\n\u{1}é",
            "é\"",
        ] {
            assert_eq!(escape(s), reference_escape(s), "{s:?}");
            let mut w = JsonWriter::new();
            w.begin_object();
            w.key(s);
            w.string(s);
            w.end_object();
            let e = escape(s);
            assert_eq!(w.finish(), format!("{{{e}:{e}}}"), "{s:?}");
        }
    }

    #[test]
    fn display_writes_an_unescaped_string() {
        let mut w = JsonWriter::new();
        w.begin_array();
        w.display(12);
        w.display(format_args!("s{}", 3));
        w.end_array();
        assert_eq!(w.finish(), r#"["12","s3"]"#);
    }

    #[test]
    fn error_body_shape() {
        assert_eq!(
            error_body("no \"such\" net"),
            r#"{"error":"no \"such\" net"}"#
        );
    }

    #[test]
    fn integral_rational_renders_without_denominator() {
        let mut w = JsonWriter::new();
        w.begin_array();
        w.rational(&Rational::from_int(5));
        w.end_array();
        assert_eq!(w.finish(), r#"["5"]"#);
    }

    #[test]
    #[should_panic(expected = "unbalanced")]
    fn unbalanced_writer_is_a_bug() {
        let mut w = JsonWriter::new();
        w.begin_object();
        let _ = w.finish();
    }
}
