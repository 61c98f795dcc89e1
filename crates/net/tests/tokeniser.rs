//! The `.tpn` tokeniser's edge cases, each pinned to the digest of the
//! net it yields or to its full `ParseError` text and line: line
//! endings, the whitespace that separates tokens (ASCII and Unicode),
//! a byte-order mark, comments glued to a token, and non-ASCII names.

use tpn_net::parse_tpn;

/// The reference net, tokens separated by single spaces.
const PLAIN: &str = "net demo\n\
    place a init 1\n\
    place b\n\
    trans go in a out b firing 106.7 weight 0.95\n\
    trans back in b out a enabling 2/3\n";

const PLAIN_DIGEST: &str = "e7c40a51ffd1bf6e5a9e094604077b37";

fn digest(src: &str) -> String {
    match parse_tpn(src) {
        Ok(net) => net.digest().to_hex(),
        Err(e) => panic!("source {src:?}: {e}"),
    }
}

fn error(src: &str) -> (usize, String) {
    let e = parse_tpn(src).expect_err(src);
    (e.line, e.to_string())
}

#[test]
fn tokeniser_edge_cases_are_pinned() {
    assert_eq!(digest(PLAIN), PLAIN_DIGEST);

    // Every separator that `char::is_whitespace` accepts splits tokens
    // like a space: CRLF line ends, tabs, vertical tab, form feed, and
    // the Unicode spaces NBSP, NEL and U+3000.
    let crlf = PLAIN.replace('\n', "\r\n");
    assert_eq!(digest(&crlf), PLAIN_DIGEST);
    for sep in [
        "\t", " \t ", "\u{b}", "\u{c}", "\u{a0}", "\u{85}", "\u{3000}",
    ] {
        let spaced = PLAIN.replace(' ', sep);
        assert_eq!(digest(&spaced), PLAIN_DIGEST, "separator {sep:?}");
    }
    let indented = PLAIN.replace('\n', "\n \t\u{3000}");
    assert_eq!(digest(&indented), PLAIN_DIGEST);

    // A byte-order mark is not whitespace: it glues onto the directive.
    assert_eq!(
        error(&format!("\u{feff}{PLAIN}")),
        (
            1,
            "tpn line 1: unknown directive \"\\u{feff}net\"".to_string()
        )
    );
    // A lone carriage return is whitespace, not a line end: the next
    // line's tokens trail the `net` directive.
    assert_eq!(
        error(&PLAIN.replacen('\n', "\r", 1)),
        (1, "tpn line 1: net: trailing tokens".to_string())
    );
    // A non-separator control byte stays inside its token.
    assert_eq!(
        error("net n\nplace a\u{1f}b init 1\ntrans t in a"),
        (3, "tpn line 3: unknown place \"a\"".to_string())
    );

    // `#` starts a comment even inside a token: `place a#x` declares `a`.
    let glued = "net n\nplace a#x\nplace b init 1#\ntrans t#x\n";
    assert_eq!(
        error(glued),
        (4, "tpn line 4: trans \"t\": missing `in` bag".to_string())
    );
    assert_eq!(
        digest("net n\nplace a#x\nplace b init 1#c\ntrans t in b#,a\n"),
        digest("net n\nplace a\nplace b init 1\ntrans t in b\n"),
    );

    // Non-ASCII names are ordinary tokens.
    let unicode = "net café\nplace τ init 1\nplace ü\ntrans t→ in τ out 2*ü firing ½\n";
    assert_eq!(
        error(unicode),
        (
            4,
            "tpn line 4: cannot parse \"½\" as a rational: invalid integer".to_string()
        )
    );
    let unicode = unicode.replace('½', "1/2");
    assert_eq!(digest(&unicode), "d6543c9315664fcc62c1ec6fad2c5aa3");
    let net = parse_tpn(&unicode).unwrap();
    assert_eq!(net.name(), "café");
    assert_eq!(net.place_name(net.place_by_name("τ").unwrap()), "τ");
    assert!(net.transition_by_name("t→").is_ok());
}
