//! The `.tpn` line-oriented text format.
//!
//! A small hand-written format so nets can be stored in files and read
//! without a serialization dependency. Grammar (one directive per line;
//! `#` starts a comment; blank lines ignored):
//!
//! ```text
//! net  <name>
//! place <name> [init <tokens>]
//! trans <name> in <bag> [out <bag>] [enabling <time>] [firing <time>] [weight <w>]
//! ```
//!
//! where `<bag>` is a comma-separated list of `place` or `n*place`
//! entries (`-` for the empty bag, only meaningful for `out`), `<time>`
//! and `<w>` are rational literals (`1000`, `106.7`, `27/2`) or `?` for
//! "unknown, treat symbolically". Omitted attributes default to
//! `enabling 0`, `firing 0`, `weight 1`.
//!
//! # Examples
//!
//! ```
//! use tpn_net::parse_tpn;
//!
//! let net = parse_tpn("
//!     net demo
//!     place ready init 1
//!     place done
//!     trans work in ready out done firing 106.7
//!     trans drop in ready out - firing 106.7 weight 0.05
//! ").unwrap();
//! assert_eq!(net.num_transitions(), 2);
//! assert_eq!(net.conflict_sets().len(), 1);
//! ```

use std::collections::HashMap;
use std::fmt;

use tpn_rational::Rational;

use crate::builder::Capacity;
use crate::{NetBuilder, NetError, PlaceId, TimedPetriNet};

/// A parse failure, with 1-based line number and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending line (0 for whole-file
    /// errors such as validation failures).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "tpn: {}", self.message)
        } else {
            write!(f, "tpn line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Parse a `.tpn` document into a validated net.
pub fn parse_tpn(src: &str) -> Result<TimedPetriNet, ParseError> {
    let capacity = capacity(src);
    let mut lines = Lines::new(src);
    let mut builder: Option<NetBuilder> = None;
    // Places must be declared before use: the format is read in one
    // pass, and an arc naming a place not yet declared is an error on
    // its own line. Names are borrowed from `src`; the first
    // declaration of a name wins here, and `build()` rejects the rest.
    let mut places: HashMap<&str, PlaceId> = HashMap::with_capacity(capacity.places);
    while let Some((lineno, line)) = lines.next_line() {
        let mut tokens = line.iter().copied();
        let directive = tokens.next().expect("a lexed line has a token");
        match directive {
            "net" => {
                let name = tokens
                    .next()
                    .ok_or_else(|| err(lineno, "net: missing name"))?;
                if tokens.next().is_some() {
                    return Err(err(lineno, "net: trailing tokens"));
                }
                if builder.is_some() {
                    return Err(err(lineno, "duplicate `net` directive"));
                }
                builder = Some(NetBuilder::with_capacity(name, capacity));
            }
            "place" => {
                let b = builder
                    .as_mut()
                    .ok_or_else(|| err(lineno, "`place` before `net`"))?;
                let name = tokens
                    .next()
                    .ok_or_else(|| err(lineno, "place: missing name"))?;
                let mut init = 0u32;
                match tokens.next() {
                    None => {}
                    Some("init") => {
                        let v = tokens
                            .next()
                            .ok_or_else(|| err(lineno, "place: missing init count"))?;
                        init = v
                            .parse()
                            .map_err(|_| err(lineno, format!("place: invalid init count {v:?}")))?;
                    }
                    Some(other) => {
                        return Err(err(lineno, format!("place: unexpected token {other:?}")));
                    }
                }
                if tokens.next().is_some() {
                    return Err(err(lineno, "place: trailing tokens"));
                }
                let id = b.place(name, init);
                places.entry(name).or_insert(id);
            }
            "trans" => {
                let b = builder
                    .as_mut()
                    .ok_or_else(|| err(lineno, "`trans` before `net`"))?;
                let name = tokens
                    .next()
                    .ok_or_else(|| err(lineno, "trans: missing name"))?;
                let mut t = b.transition(name);
                let mut saw_in = false;
                while let Some(key) = tokens.next() {
                    let val = tokens.next().ok_or_else(|| {
                        err(lineno, format!("trans: missing value after {key:?}"))
                    })?;
                    match key {
                        "in" | "out" => {
                            saw_in |= key == "in";
                            // A malformed entry is reported before any
                            // unknown place, wherever it stands.
                            let mut unknown = None;
                            for entry in bag_entries(val, lineno) {
                                let (mult, pname) = entry?;
                                match places.get(pname) {
                                    Some(&pid) if key == "in" => t = t.input_n(pid, mult),
                                    Some(&pid) => t = t.output_n(pid, mult),
                                    None => {
                                        unknown.get_or_insert(pname);
                                    }
                                }
                            }
                            if let Some(pname) = unknown {
                                return Err(err(lineno, format!("unknown place {pname:?}")));
                            }
                        }
                        "enabling" => {
                            t = match parse_time(val, lineno)? {
                                Some(r) => t.enabling(r),
                                None => t.enabling_unknown(),
                            };
                        }
                        "firing" => {
                            t = match parse_time(val, lineno)? {
                                Some(r) => t.firing(r),
                                None => t.firing_unknown(),
                            };
                        }
                        "weight" => {
                            t = match parse_time(val, lineno)? {
                                Some(r) => t.weight(r),
                                None => t.weight_unknown(),
                            };
                        }
                        other => {
                            return Err(err(lineno, format!("trans: unknown attribute {other:?}")));
                        }
                    }
                }
                if !saw_in {
                    return Err(err(lineno, format!("trans {name:?}: missing `in` bag")));
                }
                t.add();
            }
            other => return Err(err(lineno, format!("unknown directive {other:?}"))),
        }
    }
    let builder = builder.ok_or_else(|| err(0, "missing `net` directive"))?;
    builder.build().map_err(|e: NetError| err(0, e.to_string()))
}

/// The non-blank lines of a document, each split into its
/// whitespace-separated tokens and cut at its first `#`.
///
/// A pure-ASCII line is split by one loop over its bytes; a line
/// holding any other byte goes through [`str::split_whitespace`], so
/// Unicode whitespace separates tokens and Unicode names stay whole.
/// The tokens live in one small buffer, reused from line to line.
struct Lines<'a> {
    src: &'a str,
    /// Where the next line starts.
    pos: usize,
    lineno: usize,
    tokens: Vec<&'a str>,
}

/// Byte classes of the lexer. `SPACE` is exactly the ASCII characters
/// `char::is_whitespace` accepts other than the line end: space, and
/// tab through carriage return. A `\r` is whitespace wherever it
/// stands, so CRLF line ends need no special case.
const TOKEN: u8 = 0;
const SPACE: u8 = 1;
const NEWLINE: u8 = 2;
const COMMENT: u8 = 3;
const NON_ASCII: u8 = 4;

static CLASS: [u8; 256] = {
    let mut class = [TOKEN; 256];
    let mut b = 0;
    while b < 256 {
        class[b] = match b as u8 {
            b'\n' => NEWLINE,
            b' ' | b'\t'..=b'\r' => SPACE,
            b'#' => COMMENT,
            0x80..=0xff => NON_ASCII,
            _ => TOKEN,
        };
        b += 1;
    }
    class
};

impl<'a> Lines<'a> {
    fn new(src: &'a str) -> Lines<'a> {
        Lines {
            src,
            pos: 0,
            lineno: 0,
            tokens: Vec::with_capacity(16),
        }
    }

    /// The next non-blank line's 1-based number and tokens.
    fn next_line(&mut self) -> Option<(usize, &[&'a str])> {
        while self.pos < self.src.len() {
            self.lineno += 1;
            self.tokens.clear();
            self.pos = self.split_line(self.pos) + 1;
            if !self.tokens.is_empty() {
                return Some((self.lineno, &self.tokens));
            }
        }
        None
    }

    /// Push the tokens of the line starting at `start`; return where
    /// it ends (its `\n`, or the end of the document).
    fn split_line(&mut self, start: usize) -> usize {
        let (src, bytes) = (self.src, self.src.as_bytes());
        let line_end = |from: usize| src[from..].find('\n').map_or(src.len(), |at| from + at);
        let class = |i: usize| CLASS[bytes[i] as usize];
        let mut i = start;
        loop {
            while i < bytes.len() && class(i) == SPACE {
                i += 1;
            }
            let token = i;
            while i < bytes.len() && class(i) == TOKEN {
                i += 1;
            }
            if i > token {
                self.tokens.push(&src[token..i]);
            }
            if i == bytes.len() {
                return i;
            }
            match class(i) {
                NEWLINE => return i,
                COMMENT => return line_end(i),
                NON_ASCII => {
                    let end = line_end(i);
                    let line = &src[start..end];
                    let line = line.find('#').map_or(line, |at| &line[..at]);
                    self.tokens.clear();
                    self.tokens.extend(line.split_whitespace());
                    return end;
                }
                _ => {}
            }
        }
    }
}

/// Room for what `src` declares, from its length and two byte counts.
/// A line declares at most one place or transition, and a bag entry
/// takes a comma or one of the (usually two) bags of a line. The
/// shortest declarations, `place p` and `trans t in p` with their line
/// ends, bound each count by the text's length, so no text reserves
/// more than a fixed multiple of its own size. A first pass that
/// counted exactly would cost as much as the parse's own lexing.
fn capacity(src: &str) -> Capacity {
    // Count in `u8` lanes, 255 bytes at a time, so the loop vectorises.
    let (mut newlines, mut commas) = (0, 0);
    for chunk in src.as_bytes().chunks(255) {
        let (mut n, mut c) = (0u8, 0u8);
        for &b in chunk {
            n += u8::from(b == b'\n');
            c += u8::from(b == b',');
        }
        newlines += usize::from(n);
        commas += usize::from(c);
    }
    let lines = newlines + 1;
    let len = src.len() + 1;
    Capacity {
        places: lines.min(len / 8),
        transitions: lines.min(len / 13),
        arcs: (commas + 2 * lines).min(len / 2),
        name_bytes: src.len(),
    }
}

/// The entries of a bag literal, `a,b,2*c` or `-`: each one's
/// multiplicity and place name, or the error of a malformed entry.
fn bag_entries(s: &str, lineno: usize) -> impl Iterator<Item = Result<(u32, &str), ParseError>> {
    let parts = (s != "-").then(|| s.split(','));
    // A bag literal is one whitespace-free token: no trimming needed.
    parts.into_iter().flatten().map(move |part| {
        if part.is_empty() {
            return Err(err(lineno, "empty bag entry"));
        }
        match part.split_once('*') {
            Some((n, pname)) => {
                let mult: u32 = n
                    .parse()
                    .map_err(|_| err(lineno, format!("invalid multiplicity {n:?}")))?;
                if mult == 0 {
                    return Err(err(lineno, "zero multiplicity"));
                }
                Ok((mult, pname))
            }
            None => Ok((1, part)),
        }
    })
}

/// Parse a time/weight literal: a rational, or `?` for unknown.
fn parse_time(s: &str, lineno: usize) -> Result<Option<Rational>, ParseError> {
    if s == "?" {
        return Ok(None);
    }
    s.parse::<Rational>()
        .map(Some)
        .map_err(|e| err(lineno, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIMPLE: &str = "
        # the paper's medium fragment
        net medium
        place in_flight init 1
        place delivered
        trans deliver in in_flight out delivered firing 106.7 weight 0.95
        trans lose    in in_flight out -         firing 106.7 weight 0.05
    ";

    #[test]
    fn parses_simple() {
        let net = parse_tpn(SIMPLE).unwrap();
        assert_eq!(net.name(), "medium");
        assert_eq!(net.num_places(), 2);
        assert_eq!(net.num_transitions(), 2);
        assert_eq!(net.conflict_sets().len(), 1);
        let d = net.transition_by_name("deliver").unwrap();
        assert_eq!(
            net.transition(d).firing().known(),
            Some(&Rational::new(1067, 10))
        );
        assert_eq!(
            net.transition(d).frequency().weight(),
            Some(&Rational::new(19, 20))
        );
    }

    #[test]
    fn parses_multiplicities_and_unknowns() {
        let net = parse_tpn(
            "net m\nplace a init 3\nplace b\ntrans t in 2*a,b out 3*b enabling ? firing ? weight ?",
        )
        .unwrap();
        let t = net.transition_by_name("t").unwrap();
        let a = net.place_by_name("a").unwrap();
        let b = net.place_by_name("b").unwrap();
        assert_eq!(net.transition(t).input().count(a), 2);
        assert_eq!(net.transition(t).input().count(b), 1);
        assert_eq!(net.transition(t).output().count(b), 3);
        assert!(net.transition(t).enabling().known().is_none());
        assert!(!net.is_fully_timed());
    }

    #[test]
    fn error_reporting() {
        for (src, fragment) in [
            ("place a", "before `net`"),
            ("net n\nplace a init x\ntrans t in a", "invalid init count"),
            ("net n\nplace a init 1\ntrans t out a", "missing `in` bag"),
            ("net n\nplace a init 1\ntrans t in b", "unknown place"),
            (
                "net n\nplace a init 1\ntrans t in a firing abc",
                "cannot parse",
            ),
            ("net n\nnet m", "duplicate `net`"),
            ("bogus x", "unknown directive"),
            ("", "missing `net` directive"),
            ("net n\nplace a init 1\ntrans t in 0*a", "zero multiplicity"),
            (
                "net n\nplace a init 1\ntrans t in a bad 1",
                "unknown attribute",
            ),
        ] {
            let e = parse_tpn(src).unwrap_err();
            assert!(
                e.to_string().contains(fragment),
                "source {src:?}: expected {fragment:?} in {e}"
            );
        }
    }

    /// Every `ParseError` branch, pinned to its full `Display` text and
    /// line number.
    #[test]
    fn every_parse_error_is_pinned() {
        const P: &str = "net n\nplace a init 1\n";
        let cases: Vec<(String, usize, &str)> = vec![
            // tokens
            ("net".into(), 1, "tpn line 1: net: missing name"),
            ("net a b".into(), 1, "tpn line 1: net: trailing tokens"),
            ("net n\nplace".into(), 2, "tpn line 2: place: missing name"),
            (
                "net n\nplace a init 1 x".into(),
                2,
                "tpn line 2: place: trailing tokens",
            ),
            ("net n\ntrans".into(), 2, "tpn line 2: trans: missing name"),
            (
                "bogus x".into(),
                1,
                "tpn line 1: unknown directive \"bogus\"",
            ),
            // directive order
            (
                "net n\n# c\nnet m".into(),
                3,
                "tpn line 3: duplicate `net` directive",
            ),
            ("place a".into(), 1, "tpn line 1: `place` before `net`"),
            (
                "\ntrans t in a".into(),
                2,
                "tpn line 2: `trans` before `net`",
            ),
            ("".into(), 0, "tpn: missing `net` directive"),
            // place attributes
            (
                "net n\nplace a init".into(),
                2,
                "tpn line 2: place: missing init count",
            ),
            (
                "net n\nplace a init x".into(),
                2,
                "tpn line 2: place: invalid init count \"x\"",
            ),
            (
                "net n\nplace a init -1".into(),
                2,
                "tpn line 2: place: invalid init count \"-1\"",
            ),
            (
                "net n\nplace a tokens 1".into(),
                2,
                "tpn line 2: place: unexpected token \"tokens\"",
            ),
            // transition attributes
            (
                format!("{P}trans t in"),
                3,
                "tpn line 3: trans: missing value after \"in\"",
            ),
            (
                format!("{P}trans t in a firing"),
                3,
                "tpn line 3: trans: missing value after \"firing\"",
            ),
            (
                format!("{P}trans t in a bad 1"),
                3,
                "tpn line 3: trans: unknown attribute \"bad\"",
            ),
            (
                format!("{P}trans t in b"),
                3,
                "tpn line 3: unknown place \"b\"",
            ),
            (
                format!("{P}trans t out a,b"),
                3,
                "tpn line 3: unknown place \"b\"",
            ),
            (
                format!("{P}trans t in 2*"),
                3,
                "tpn line 3: unknown place \"\"",
            ),
            (
                format!("{P}trans t out a"),
                3,
                "tpn line 3: trans \"t\": missing `in` bag",
            ),
            // bags
            (
                format!("{P}trans t in a,,a"),
                3,
                "tpn line 3: empty bag entry",
            ),
            (
                format!("{P}trans t in a,"),
                3,
                "tpn line 3: empty bag entry",
            ),
            (
                format!("{P}trans t in x*a"),
                3,
                "tpn line 3: invalid multiplicity \"x\"",
            ),
            (
                format!("{P}trans t in *a"),
                3,
                "tpn line 3: invalid multiplicity \"\"",
            ),
            (
                format!("{P}trans t in 0*a"),
                3,
                "tpn line 3: zero multiplicity",
            ),
            // a bag is checked whole before its places are resolved
            (
                format!("{P}trans t in b,,a"),
                3,
                "tpn line 3: empty bag entry",
            ),
            (
                format!("{P}trans t in b,0*a"),
                3,
                "tpn line 3: zero multiplicity",
            ),
            (
                format!("{P}trans t in a,b,c"),
                3,
                "tpn line 3: unknown place \"b\"",
            ),
            // rational literals
            (
                format!("{P}trans t in a firing abc"),
                3,
                "tpn line 3: cannot parse \"abc\" as a rational: invalid integer",
            ),
            (
                format!("{P}trans t in a firing x/2"),
                3,
                "tpn line 3: cannot parse \"x/2\" as a rational: invalid numerator",
            ),
            (
                format!("{P}trans t in a enabling 1/y"),
                3,
                "tpn line 3: cannot parse \"1/y\" as a rational: invalid denominator",
            ),
            (
                format!("{P}trans t in a weight 1/0"),
                3,
                "tpn line 3: cannot parse \"1/0\" as a rational: zero denominator",
            ),
            (
                format!("{P}trans t in a firing 1.x"),
                3,
                "tpn line 3: cannot parse \"1.x\" as a rational: invalid fractional digits",
            ),
            (
                format!("{P}trans t in a firing 1."),
                3,
                "tpn line 3: cannot parse \"1.\" as a rational: missing fractional digits",
            ),
            // validation in build()
            (
                "net n\nplace a init 1\nplace a\ntrans t in a".into(),
                0,
                "tpn: duplicate place name \"a\"",
            ),
            (
                format!("{P}trans t in a\ntrans t in a"),
                0,
                "tpn: duplicate transition name \"t\"",
            ),
            (
                format!("{P}trans t in -"),
                0,
                "tpn: transition \"t\" has an empty input bag (would be permanently enabled)",
            ),
            (
                format!("{P}trans t in a enabling -1"),
                0,
                "tpn: transition \"t\" has a negative enabling time",
            ),
            (
                format!("{P}trans t in a firing -0.5"),
                0,
                "tpn: transition \"t\" has a negative firing time",
            ),
            (
                format!("{P}trans t in a weight -1/2"),
                0,
                "tpn: transition \"t\" has a negative firing frequency",
            ),
        ];
        for (src, line, display) in &cases {
            let e = parse_tpn(src).unwrap_err();
            assert_eq!(
                (e.line, e.to_string().as_str()),
                (*line, *display),
                "source {src:?}"
            );
        }
        // A whitespace-split token is never empty, so the empty-literal
        // branch is only reachable through `parse_time` itself.
        assert_eq!(
            parse_time("", 7).unwrap_err().to_string(),
            "tpn line 7: cannot parse \"\" as a rational: empty string"
        );
    }

    /// The one-pass lexer splits every document into the same numbered
    /// lines of tokens as cutting each `str::lines` line at its first
    /// `#` and splitting it with `split_whitespace`.
    #[test]
    fn lexer_matches_lines_and_split_whitespace() {
        const PIECES: &[&str] = &[
            "net", "place", "trans", "a", "b1", "2*a", "a,b", "-", "1/2", "café", "τ", "\u{1f}x",
            " ", "  ", "\t", "\r", "\u{b}", "\u{c}", "\n", "\r\n", "\n\n", "#", "# c\n", "\u{a0}",
            "\u{85}", "\u{3000}", "\u{2028}", "\u{feff}", "\u{200b}",
        ];
        let mut state: u64 = 0x2545_f491_4f6c_dd1d;
        for _ in 0..3000 {
            let mut src = String::new();
            for _ in 0..state % 40 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                src.push_str(PIECES[(state % PIECES.len() as u64) as usize]);
            }
            let expected: Vec<(usize, Vec<&str>)> = src
                .lines()
                .enumerate()
                .map(|(i, raw)| {
                    let line = raw.find('#').map_or(raw, |at| &raw[..at]);
                    (i + 1, line.split_whitespace().collect())
                })
                .filter(|(_, tokens): &(usize, Vec<&str>)| !tokens.is_empty())
                .collect();
            let mut lines = Lines::new(&src);
            let mut got: Vec<(usize, Vec<&str>)> = Vec::new();
            while let Some((lineno, tokens)) = lines.next_line() {
                got.push((lineno, tokens.to_vec()));
            }
            assert_eq!(got, expected, "source {src:?}");
        }
    }

    #[test]
    fn line_numbers_reported() {
        let e = parse_tpn("net n\nplace a init 1\nbogus").unwrap_err();
        assert_eq!(e.line, 3);
    }

    #[test]
    fn validation_errors_propagate() {
        // duplicate place names caught by the builder
        let e = parse_tpn("net n\nplace a init 1\nplace a\ntrans t in a").unwrap_err();
        assert!(e.to_string().contains("duplicate place"));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let net = parse_tpn(
            "\n# leading comment\nnet n # trailing\nplace a init 1\ntrans t in a # hi\n\n",
        )
        .unwrap();
        assert_eq!(net.name(), "n");
    }

    #[test]
    fn display_reparses() {
        let net = parse_tpn(SIMPLE).unwrap();
        let round = parse_tpn(&net.to_string()).unwrap();
        assert_eq!(round.num_places(), net.num_places());
        assert_eq!(round.num_transitions(), net.num_transitions());
        assert_eq!(round.name(), net.name());
    }
}
