//! Property-based tests: `Rational` satisfies the field axioms (on the
//! subdomain where checked arithmetic succeeds) and parsing round-trips,
//! and — near the `i128` ceiling — the kernel agrees with a textbook
//! reference, `Ord` is exact and decimal rendering never saturates.
//! The digit kernel (`Display`, the JSON writer's numbers and its
//! fixed-point decimals) must equal std formatting byte for byte.

use proptest::prelude::*;
use tpn_rational::{gcd, Rational};
use tpn_service::json::JsonWriter;

/// Small-component rationals so products of several of them stay well
/// within `i128` and the checked ops never fail.
fn small_rational() -> impl Strategy<Value = Rational> {
    (-1_000_000i128..=1_000_000, 1i128..=1_000_000).prop_map(|(n, d)| Rational::new(n, d))
}

proptest! {
    #[test]
    fn add_commutative(a in small_rational(), b in small_rational()) {
        prop_assert_eq!(a + b, b + a);
    }

    #[test]
    fn add_associative(a in small_rational(), b in small_rational(), c in small_rational()) {
        prop_assert_eq!((a + b) + c, a + (b + c));
    }

    #[test]
    fn mul_commutative(a in small_rational(), b in small_rational()) {
        prop_assert_eq!(a * b, b * a);
    }

    #[test]
    fn mul_associative(a in small_rational(), b in small_rational(), c in small_rational()) {
        prop_assert_eq!((a * b) * c, a * (b * c));
    }

    #[test]
    fn distributive(a in small_rational(), b in small_rational(), c in small_rational()) {
        prop_assert_eq!(a * (b + c), a * b + a * c);
    }

    #[test]
    fn additive_inverse(a in small_rational()) {
        prop_assert_eq!(a + (-a), Rational::ZERO);
    }

    #[test]
    fn multiplicative_inverse(a in small_rational()) {
        prop_assume!(!a.is_zero());
        prop_assert_eq!(a * a.recip(), Rational::ONE);
    }

    #[test]
    fn sub_is_add_neg(a in small_rational(), b in small_rational()) {
        prop_assert_eq!(a - b, a + (-b));
    }

    #[test]
    fn normalised_invariants(a in small_rational()) {
        prop_assert!(a.denom() > 0);
        prop_assert_eq!(gcd(a.numer(), a.denom()), 1);
    }

    #[test]
    fn ordering_consistent_with_f64(a in small_rational(), b in small_rational()) {
        // f64 has 53 bits of mantissa; our components are ≤ 2^20, so the
        // float comparison is exact unless the values are equal.
        if a != b {
            prop_assert_eq!(a < b, a.to_f64() < b.to_f64());
        }
    }

    #[test]
    fn display_parse_roundtrip(a in small_rational()) {
        let s = a.to_string();
        let back: Rational = s.parse().unwrap();
        prop_assert_eq!(a, back);
    }

    #[test]
    fn floor_ceil_bracket(a in small_rational()) {
        let f = Rational::from_int(a.floor());
        let c = Rational::from_int(a.ceil());
        prop_assert!(f <= a && a <= c);
        prop_assert!(c - f <= Rational::ONE);
    }

    #[test]
    fn gcd_divides(a in -10_000i128..10_000, b in -10_000i128..10_000) {
        let g = gcd(a, b);
        if g != 0 {
            prop_assert_eq!(a % g, 0);
            prop_assert_eq!(b % g, 0);
        } else {
            prop_assert_eq!((a, b), (0, 0));
        }
    }

    #[test]
    fn decimal_string_close(a in small_rational()) {
        let s = a.to_decimal_string(6);
        let parsed: f64 = s.parse().unwrap();
        prop_assert!((parsed - a.to_f64()).abs() < 1e-5);
    }
}

// ---------------------------------------------------------------------
// Differential oracle near the i128 ceiling.
//
// `reference` is the textbook kernel: Euclid's GCD on u128, addition
// through the lcm of the denominators and a full reduction after every
// operation. Where the reference succeeds the fast kernel must return
// the same fraction; where only the fast kernel succeeds (its
// intermediates are never larger, sometimes smaller), its result is
// checked exactly by cross-multiplication in 512-bit two's complement.
// ---------------------------------------------------------------------

mod reference {
    pub type Frac = (i128, i128);

    pub fn gcd(a: i128, b: i128) -> i128 {
        let mut ua = a.unsigned_abs();
        let mut ub = b.unsigned_abs();
        while ub != 0 {
            let r = ua % ub;
            ua = ub;
            ub = r;
        }
        if ua > i128::MAX as u128 {
            i128::MAX
        } else {
            ua as i128
        }
    }

    pub fn new(num: i128, den: i128) -> Option<Frac> {
        if den == 0 {
            return None;
        }
        if num == 0 {
            return Some((0, 1));
        }
        let g = gcd(num, den);
        let (num, den) = (num / g, den / g);
        if den < 0 {
            Some((num.checked_neg()?, den.checked_neg()?))
        } else {
            Some((num, den))
        }
    }

    pub fn add((a, b): Frac, (c, d): Frac) -> Option<Frac> {
        let g = gcd(b, d);
        let (db, dd) = (b / g, d / g);
        let l = db.checked_mul(d)?;
        let num = a.checked_mul(dd)?.checked_add(c.checked_mul(db)?)?;
        new(num, l)
    }

    pub fn mul((a, b): Frac, (c, d): Frac) -> Option<Frac> {
        let g1 = gcd(a, d);
        let g2 = gcd(c, b);
        let num = (a / g1).checked_mul(c / g2)?;
        let den = (b / g2).checked_mul(d / g1)?;
        new(num, den)
    }

    pub fn recip((a, b): Frac) -> Option<Frac> {
        if a == 0 {
            return None;
        }
        new(b, a)
    }

    pub fn div(x: Frac, y: Frac) -> Option<Frac> {
        mul(x, recip(y)?)
    }
}

/// A 512-bit two's-complement integer: wide enough for any product of
/// three `i128`s and the sum of two such products.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Wide([u64; 8]);

/// `x`, sign-extended to 512 bits.
fn w(x: i128) -> Wide {
    let fill = if x < 0 { u64::MAX } else { 0 };
    let mut limbs = [fill; 8];
    limbs[0] = x as u64;
    limbs[1] = (x >> 64) as u64;
    Wide(limbs)
}

impl Wide {
    fn add(self, other: Wide) -> Wide {
        let mut out = [0u64; 8];
        let mut carry = 0u128;
        for (i, limb) in out.iter_mut().enumerate() {
            let t = self.0[i] as u128 + other.0[i] as u128 + carry;
            *limb = t as u64;
            carry = t >> 64;
        }
        Wide(out)
    }

    fn neg(self) -> Wide {
        Wide(self.0.map(|l| !l)).add(w(1))
    }

    fn mul(self, other: Wide) -> Wide {
        let mut out = [0u64; 8];
        for i in 0..8 {
            let mut carry = 0u128;
            for j in 0..8 - i {
                let t = out[i + j] as u128 + self.0[i] as u128 * other.0[j] as u128 + carry;
                out[i + j] = t as u64;
                carry = t >> 64;
            }
        }
        Wide(out)
    }

    fn signum(self) -> i32 {
        if self.0[7] >> 63 == 1 {
            -1
        } else if self.0 == [0; 8] {
            0
        } else {
            1
        }
    }
}

/// `x` is in lowest terms with a positive denominator.
fn is_reduced(x: Rational) -> bool {
    x.denom() > 0 && reference::gcd(x.numer(), x.denom()) == 1
}

fn frac(x: Rational) -> reference::Frac {
    (x.numer(), x.denom())
}

/// One component: 0, ±1, `i128::MAX`, `i128::MIN`, or a random value
/// of random bit length up to 126 bits, times a smooth factor so that
/// GCDs are often non-trivial.
fn component() -> impl Strategy<Value = i128> {
    (
        0u32..24,
        0u32..=126,
        (any::<u64>(), any::<u64>()),
        0u32..6,
        any::<bool>(),
    )
        .prop_map(|(pick, bits, (hi, lo), smooth, neg)| match pick {
            0 => 0,
            1 => 1,
            2 => -1,
            3 => i128::MAX,
            4 => i128::MIN,
            _ => {
                let raw = (u128::from(hi) << 64) | u128::from(lo);
                let mag = (raw >> (128 - bits.max(1))) as i128;
                let factor = [1i128, 2, 6, 30, 210, 1 << 40][smooth as usize];
                let v = mag.checked_mul(factor).unwrap_or(mag);
                if neg {
                    -v
                } else {
                    v
                }
            }
        })
}

/// A rational built from two drawn components (`None` when the pair is
/// not a valid fraction, e.g. a zero denominator).
fn near_ceiling() -> impl Strategy<Value = Option<Rational>> {
    (component(), component()).prop_map(|(n, d)| Rational::checked_new(n, d).ok())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn gcd_matches_euclid(a in component(), b in component()) {
        prop_assert_eq!(gcd(a, b), reference::gcd(a, b));
    }

    #[test]
    fn add_matches_reference(x in near_ceiling(), y in near_ceiling()) {
        let (Some(x), Some(y)) = (x, y) else { return Ok(()); };
        let fast = x.checked_add(&y);
        match reference::add(frac(x), frac(y)) {
            Some(want) => prop_assert_eq!(fast.map(frac), Ok(want)),
            None => if let Ok(s) = fast {
                // s = a/b + c/d  <=>  s.n·b·d = s.d·(a·d + c·b)
                prop_assert!(is_reduced(s));
                let (a, b, c, d) = (w(x.numer()), w(x.denom()), w(y.numer()), w(y.denom()));
                let lhs = w(s.numer()).mul(b).mul(d);
                let rhs = w(s.denom()).mul(a.mul(d).add(c.mul(b)));
                prop_assert_eq!(lhs, rhs);
            },
        }
    }

    #[test]
    fn sub_matches_reference(x in near_ceiling(), y in near_ceiling()) {
        let (Some(x), Some(y)) = (x, y) else { return Ok(()); };
        let Ok(neg_y) = y.checked_neg() else { return Ok(()); };
        let fast = x.checked_sub(&y);
        if let Some(want) = reference::add(frac(x), frac(neg_y)) {
            prop_assert_eq!(fast.map(frac), Ok(want));
        }
    }

    #[test]
    fn mul_matches_reference(x in near_ceiling(), y in near_ceiling()) {
        let (Some(x), Some(y)) = (x, y) else { return Ok(()); };
        let fast = x.checked_mul(&y);
        match reference::mul(frac(x), frac(y)) {
            Some(want) => prop_assert_eq!(fast.map(frac), Ok(want)),
            None => if let Ok(p) = fast {
                // p = (a·c)/(b·d)  <=>  p.n·b·d = p.d·a·c
                prop_assert!(is_reduced(p));
                let lhs = w(p.numer()).mul(w(x.denom())).mul(w(y.denom()));
                let rhs = w(p.denom()).mul(w(x.numer())).mul(w(y.numer()));
                prop_assert_eq!(lhs, rhs);
            },
        }
    }

    #[test]
    fn div_matches_reference(x in near_ceiling(), y in near_ceiling()) {
        let (Some(x), Some(y)) = (x, y) else { return Ok(()); };
        let fast = x.checked_div(&y);
        match reference::div(frac(x), frac(y)) {
            Some(want) => prop_assert_eq!(fast.map(frac), Ok(want)),
            None if y.is_zero() => prop_assert!(fast.is_err()),
            None => if let Ok(q) = fast {
                // q = (a·d)/(b·c)  <=>  q.n·b·c = q.d·a·d
                prop_assert!(is_reduced(q));
                let lhs = w(q.numer()).mul(w(x.denom())).mul(w(y.numer()));
                let rhs = w(q.denom()).mul(w(x.numer())).mul(w(y.denom()));
                prop_assert_eq!(lhs, rhs);
            },
        }
    }

    #[test]
    fn recip_matches_reference(x in near_ceiling()) {
        let Some(x) = x else { return Ok(()); };
        prop_assert_eq!(x.checked_recip().ok().map(frac), reference::recip(frac(x)));
    }

    #[test]
    fn cmp_is_exact(x in near_ceiling(), y in near_ceiling()) {
        let (Some(x), Some(y)) = (x, y) else { return Ok(()); };
        // sign(a/b − c/d) = sign(a·d − c·b), b and d positive.
        let diff = w(x.numer()).mul(w(y.denom())).add(w(y.numer()).mul(w(x.denom())).neg());
        prop_assert_eq!(x.cmp(&y) as i32, diff.signum());
        prop_assert_eq!(y.cmp(&x) as i32, -diff.signum());
    }

    #[test]
    fn cmp_resolves_neighbours_below_f64_resolution(n in (1i128 << 90)..(1i128 << 120), neg in any::<bool>()) {
        // n/(n+2) < (n+2)/(n+4) for odd n; the cross products overflow
        // i128 and the values agree to ~2^-90, far past f64 resolution.
        let n = n | 1;
        let (mut x, mut y) = (Rational::new(n, n + 2), Rational::new(n + 2, n + 4));
        if neg {
            (x, y) = (-y, -x);
        }
        prop_assert!(x.numer().checked_mul(y.denom()).is_none());
        prop_assert_eq!(x.to_f64(), y.to_f64());
        prop_assert!(x < y);
        prop_assert!(y > x);
        prop_assert_eq!(x.cmp(&x), std::cmp::Ordering::Equal);
    }

    #[test]
    fn decimal_string_matches_scaled_rounding(x in near_ceiling(), digits in 0u32..8) {
        // Where |num|·10^digits and the rounding offset fit in i128, the
        // long division agrees with rounding the scaled numerator.
        let Some(x) = x else { return Ok(()); };
        let scale = 10i128.pow(digits);
        let Some(scaled) = x.numer().checked_mul(scale) else { return Ok(()); };
        let half = x.denom() / 2;
        let Some(offset) = (if scaled >= 0 { scaled.checked_add(half) } else { scaled.checked_sub(half) }) else {
            return Ok(());
        };
        let rounded = offset / x.denom();
        let sign = if rounded < 0 { "-" } else { "" };
        let (ip, fp) = (rounded.unsigned_abs() / scale as u128, rounded.unsigned_abs() % scale as u128);
        let want = if digits == 0 {
            format!("{sign}{ip}")
        } else {
            format!("{sign}{ip}.{fp:0width$}", width = digits as usize)
        };
        prop_assert_eq!(x.to_decimal_string(digits), want);
    }
}

#[test]
fn decimal_string_is_exact_past_the_scaling_range() {
    let third = i128::MAX / 3; // 56713727820156410577229101238628035242
    assert_eq!(
        Rational::from_int(third).to_decimal_string(3),
        "56713727820156410577229101238628035242.000"
    );
    assert_eq!(
        Rational::new(third, 11).to_decimal_string(3),
        "5155793438196037325202645567148003203.818"
    );
    assert_eq!(
        Rational::new(-third, 13).to_decimal_string(5),
        "-4362594447704339275171469326048310403.23077"
    );
    assert_eq!(
        Rational::new(-third, 1000).to_decimal_string(3),
        "-56713727820156410577229101238628035.242"
    );
    assert_eq!(
        Rational::new(third, 10_000).to_decimal_string(3),
        "5671372782015641057722910123862803.524"
    );
    assert_eq!(
        Rational::new(i128::MAX, 2).to_decimal_string(0),
        "85070591730234615865843651857942052864"
    );
    assert_eq!(
        Rational::new(i128::MIN, 1).to_decimal_string(1),
        format!("{}.0", i128::MIN)
    );
    assert_eq!(Rational::new(-1, 3000).to_decimal_string(3), "0.000");
    assert_eq!(Rational::new(999, 1000).to_decimal_string(2), "1.00");
}

// ---------------------------------------------------------------------
// Digit-kernel oracle: every number the kernel writes must equal std
// formatting of the same value — `Rational`'s `Display` against its
// components through `{}`, and the JSON writer's `uint`, `int`,
// `rational` and `fixed` against `{}` and `{:.6}`.
// ---------------------------------------------------------------------

/// `r` as std formats its components: `n/d`, or `n` when integral.
fn std_rational(r: Rational) -> String {
    if r.denom() == 1 {
        format!("{}", r.numer())
    } else {
        format!("{}/{}", r.numer(), r.denom())
    }
}

/// One value written into a JSON array by `write`, brackets stripped.
fn json_value(write: impl FnOnce(&mut JsonWriter)) -> String {
    let mut w = JsonWriter::new();
    w.begin_array();
    write(&mut w);
    w.end_array();
    let doc = w.finish();
    doc[1..doc.len() - 1].to_string()
}

/// Check every kernel surface on `n` (and `n` as the numerator and
/// the denominator of a rational).
fn check_integer(n: i128) -> Result<(), TestCaseError> {
    prop_assert_eq!(json_value(|w| w.int(n)), format!("{n}"));
    if let Ok(u) = u64::try_from(n) {
        prop_assert_eq!(json_value(|w| w.uint(u)), format!("{u}"));
    }
    let r = Rational::from_int(n);
    prop_assert_eq!(r.to_string(), format!("{n}"));
    prop_assert_eq!(json_value(|w| w.rational(&r)), format!("\"{n}\""));
    for d in [3, 7, 10, 1_000_000_007, i128::MAX] {
        if let Ok(r) = Rational::checked_new(n, d) {
            check_rational(r)?;
            if let Ok(recip) = r.checked_recip() {
                check_rational(recip)?;
            }
        }
    }
    Ok(())
}

fn check_rational(r: Rational) -> Result<(), TestCaseError> {
    let want = std_rational(r);
    prop_assert_eq!(r.to_string(), want.clone());
    prop_assert_eq!(json_value(|w| w.rational(&r)), format!("\"{want}\""));
    Ok(())
}

/// The boundaries of the kernel: small values, both sides of every
/// power of ten (the limb radix 10¹⁹ and the 39-digit 10³⁸ included),
/// the `u64` edge where a second limb starts, and the `i128` extremes.
fn kernel_boundaries() -> Vec<i128> {
    let mut values = vec![
        0,
        9,
        10,
        99,
        100,
        i128::from(u64::MAX),
        i128::from(u64::MAX) + 1,
        i128::MAX,
        i128::MIN + 1,
        -i128::MAX,
    ];
    for k in 0..=38 {
        let p = 10i128.pow(k);
        values.extend([p - 1, p, p + 1]);
    }
    let negated: Vec<i128> = values.iter().map(|v| -v).collect();
    values.extend(negated);
    values
}

#[test]
fn digit_kernel_matches_std_on_boundaries() {
    for n in kernel_boundaries() {
        check_integer(n).unwrap_or_else(|e| panic!("{n}: {e:?}"));
    }
    check_integer(i128::MIN).unwrap();
    // Pairs of boundaries as numerator and denominator.
    for n in kernel_boundaries() {
        for d in kernel_boundaries().into_iter().filter(|&d| d > 0) {
            let r = Rational::checked_new(n, d).expect("d > 0");
            check_rational(r).unwrap_or_else(|e| panic!("{n}/{d}: {e:?}"));
        }
    }
}

/// `x` as `JsonWriter::fixed` writes it, and as `{:.digits$}` does.
fn fixed_pair(x: f64, digits: usize) -> (String, String) {
    (json_value(|w| w.fixed(x, digits)), format!("{x:.digits$}"))
}

#[test]
fn fixed_matches_std_on_ties_and_edges() {
    // Exact binary ties round half to even: 1/128 = 0.0078125.
    for k in 0..=30 {
        let x = 1.0 / f64::from(1u32 << k);
        for digits in 0..=9 {
            let (got, want) = fixed_pair(x, digits);
            assert_eq!(got, want, "2^-{k} to {digits}");
            let (got, want) = fixed_pair(-x, digits);
            assert_eq!(got, want, "-2^-{k} to {digits}");
        }
    }
    for x in [
        0.0,
        -0.0,
        0.0000005,
        0.0000015,
        0.9999995,
        1.0000005,
        0.001772,
        4503599627370495.5,
        9007199254740993.0,
        9.223372036854775e18,
        9.3e18,
        1e300,
        f64::MIN_POSITIVE,
        f64::from_bits(1),
        f64::MAX,
    ] {
        let (got, want) = fixed_pair(x, 6);
        assert_eq!(got, want, "{x:e}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn display_matches_std(x in near_ceiling()) {
        let Some(x) = x else { return Ok(()); };
        check_rational(x)?;
    }

    #[test]
    fn json_integers_match_std(n in component(), hi in any::<u64>(), lo in any::<u64>()) {
        check_integer(n)?;
        let u = hi >> (lo % 64);
        prop_assert_eq!(json_value(|w| w.uint(u)), format!("{u}"));
        let wide = ((u128::from(hi) << 64) | u128::from(lo)) as i128;
        check_integer(wide)?;
    }

    #[test]
    fn fixed_matches_std(bits in any::<u64>(), num in any::<u64>(), den in 1u64..1_000_000, digits in 0usize..=9) {
        // Any finite bit pattern, and quotients like the analysis's
        // throughput approximations.
        let x = f64::from_bits(bits);
        if x.is_finite() {
            let (got, want) = fixed_pair(x, digits);
            prop_assert_eq!(got, want);
        }
        let q = (num % 1_000_000) as f64 / den as f64;
        let (got, want) = fixed_pair(q, digits);
        prop_assert_eq!(got, want);
    }
}
