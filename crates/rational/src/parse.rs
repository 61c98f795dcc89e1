//! Parsing of rational literals.
//!
//! Accepted forms (optionally signed, optional surrounding whitespace):
//!
//! * integers: `"42"`, `"-7"`
//! * fractions: `"1067/10"`, `"-3/4"`
//! * decimals: `"106.7"`, `"-0.05"`, `".5"`
//!
//! These are exactly the literal forms that appear in `.tpn` net files
//! and in the paper's tables.

use crate::error::ParseRationalError;
use crate::Rational;

fn err(input: &str, reason: &'static str) -> ParseRationalError {
    ParseRationalError {
        input: input.to_string(),
        reason,
    }
}

/// Parse a rational literal. See the module docs for the grammar.
pub fn parse_rational(input: &str) -> Result<Rational, ParseRationalError> {
    match parse_short_unsigned(input) {
        Some(r) => Ok(r),
        None => parse_general(input),
    }
}

/// Every literal form, signs and surrounding whitespace included.
fn parse_general(input: &str) -> Result<Rational, ParseRationalError> {
    let s = input.trim();
    if s.is_empty() {
        return Err(err(input, "empty string"));
    }
    if let Some((n, d)) = s.split_once('/') {
        let num: i128 = n
            .trim()
            .parse()
            .map_err(|_| err(input, "invalid numerator"))?;
        let den: i128 = d
            .trim()
            .parse()
            .map_err(|_| err(input, "invalid denominator"))?;
        return Rational::checked_new(num, den).map_err(|_| err(input, "zero denominator"));
    }
    if let Some((ip, fp)) = s.split_once('.') {
        let (neg, ip) = match ip.strip_prefix('-') {
            Some(rest) => (true, rest),
            None => (false, ip.strip_prefix('+').unwrap_or(ip)),
        };
        if fp.is_empty() {
            return Err(err(input, "missing fractional digits"));
        }
        if !fp.bytes().all(|b| b.is_ascii_digit()) {
            return Err(err(input, "invalid fractional digits"));
        }
        if !ip.is_empty() && !ip.bytes().all(|b| b.is_ascii_digit()) {
            return Err(err(input, "invalid integer digits"));
        }
        if fp.len() > 30 {
            return Err(err(input, "too many fractional digits"));
        }
        let int_part: i128 = if ip.is_empty() {
            0
        } else {
            ip.parse()
                .map_err(|_| err(input, "integer part out of range"))?
        };
        let frac_part: i128 = fp
            .parse()
            .map_err(|_| err(input, "fractional part out of range"))?;
        let mut scale: i128 = 1;
        for _ in 0..fp.len() {
            scale = scale
                .checked_mul(10)
                .ok_or_else(|| err(input, "fractional part out of range"))?;
        }
        let num = int_part
            .checked_mul(scale)
            .and_then(|v| v.checked_add(frac_part))
            .ok_or_else(|| err(input, "value out of range"))?;
        let signed = if neg { -num } else { num };
        return Rational::checked_new(signed, scale).map_err(|_| err(input, "value out of range"));
    }
    let n: i128 = s.parse().map_err(|_| err(input, "invalid integer"))?;
    Ok(Rational::from_int(n))
}

/// Digits that always fit a `u64`: 10^19 − 1 < 2^64.
const SHORT_DIGITS: usize = 19;

/// The fast path for the literals nets are written in: an unsigned
/// integer (`1000`), fraction (`27/2`) or decimal (`106.7`, `.5`) of at
/// most [`SHORT_DIGITS`] digits per part, with no sign and no
/// whitespace, in `u64` arithmetic. Anything else — including every
/// malformed literal — returns `None` and takes the general path, so
/// results and error texts are the general path's.
fn parse_short_unsigned(s: &str) -> Option<Rational> {
    fn digits(s: &[u8]) -> Option<u64> {
        if s.is_empty() || s.len() > SHORT_DIGITS {
            return None;
        }
        s.iter().try_fold(0u64, |acc, &b| {
            b.is_ascii_digit().then(|| acc * 10 + u64::from(b - b'0'))
        })
    }
    fn fraction(num: u64, den: u64) -> Rational {
        if den == 1 {
            return Rational::from_int(i128::from(num));
        }
        let g = crate::gcd_u64(num, den);
        Rational::from_reduced(i128::from(num / g), i128::from(den / g))
    }
    let b = s.as_bytes();
    match b.iter().position(|&c| c == b'/' || c == b'.') {
        None => digits(b).map(|n| Rational::from_int(i128::from(n))),
        Some(at) if b[at] == b'/' => {
            let den = digits(&b[at + 1..]).filter(|&d| d != 0)?;
            Some(fraction(digits(&b[..at])?, den))
        }
        Some(at) => {
            let fp = &b[at + 1..];
            let int_part = if at == 0 { 0 } else { digits(&b[..at])? };
            let frac_part = digits(fp)?;
            let scale = 10u64.checked_pow(fp.len() as u32)?;
            let num = int_part.checked_mul(scale)?.checked_add(frac_part)?;
            if num == 0 {
                return Some(Rational::ZERO);
            }
            Some(fraction(num, scale))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Rational {
        parse_rational(s).unwrap()
    }

    #[test]
    fn integers() {
        assert_eq!(p("42"), Rational::from_int(42));
        assert_eq!(p("-7"), Rational::from_int(-7));
        assert_eq!(p("  13 "), Rational::from_int(13));
        assert_eq!(p("0"), Rational::ZERO);
    }

    #[test]
    fn fractions() {
        assert_eq!(p("1067/10"), Rational::new(1067, 10));
        assert_eq!(p("-3/4"), Rational::new(-3, 4));
        assert_eq!(p("3/-4"), Rational::new(-3, 4));
        assert_eq!(p("6/4"), Rational::new(3, 2));
        assert_eq!(p(" 1 / 2 "), Rational::new(1, 2));
    }

    #[test]
    fn decimals() {
        assert_eq!(p("106.7"), Rational::new(1067, 10));
        assert_eq!(p("-0.05"), Rational::new(-1, 20));
        assert_eq!(p("0.95"), Rational::new(19, 20));
        assert_eq!(p(".5"), Rational::new(1, 2));
        assert_eq!(p("-.5"), Rational::new(-1, 2));
        assert_eq!(p("13.5"), Rational::new(27, 2));
        assert_eq!(p("1000.0"), Rational::from_int(1000));
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "", "  ", "abc", "1.2.3", "1/0", "1/", "/2", "1.", "1e3", "--2", "1.x",
        ] {
            assert!(parse_rational(bad).is_err(), "should reject {bad:?}");
        }
    }

    /// The `u64` fast path agrees with the general path on every
    /// literal it accepts, and declines everything else.
    #[test]
    fn fast_path_matches_the_general_path() {
        let mut accepted = 0;
        let mut literals: Vec<String> = [
            "0", "1", "007", "1000", "106.7", "0.95", ".5", "0.000", "1000.0", "27/2", "6/4",
            "0/5", "6/1", "1/0", "5.", ".", "/2", "1/", "1.5/2", "1/2.5", "1/2/3", "+5", "-5",
            " 5", "5 ", "1e3", "½", "",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        // Around the 19-digit and u64 edges.
        for len in 17..=21 {
            let nines = "9".repeat(len);
            literals.push(nines.clone());
            literals.push(format!("{nines}/7"));
            literals.push(format!("3/{nines}"));
            literals.push(format!("1.{nines}"));
            literals.push(format!("{nines}.5"));
        }
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for _ in 0..2000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let (a, b, c) = (x % 100_000, (x >> 20) % 1000, (x >> 40) % 7);
            literals.push(match c {
                0 => format!("{a}"),
                1 | 2 => format!("{a}/{b}"),
                3 => format!("{a}.{b:03}"),
                4 => format!(".{b}"),
                5 => format!("{}.{}", x >> 4, b),
                _ => format!("{}", x >> c),
            });
        }
        for s in &literals {
            if let Some(fast) = parse_short_unsigned(s) {
                accepted += 1;
                assert_eq!(Ok(fast), parse_general(s), "{s:?}");
                assert!(fast.denom() > 0 && crate::gcd(fast.numer(), fast.denom()) == 1);
            }
            assert_eq!(parse_rational(s), parse_general(s), "{s:?}");
        }
        assert!(accepted > 1500, "{accepted}");
    }

    #[test]
    fn error_carries_context() {
        let e = parse_rational("1/0").unwrap_err();
        assert_eq!(e.input(), "1/0");
        assert!(e.to_string().contains("1/0"));
        assert!(!e.reason().is_empty());
    }
}
