//! The [`Rational`] number type.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::iter::{Product, Sum};
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use std::str::FromStr;

use crate::digits::MAX_RATIONAL_LEN;
use crate::error::ArithmeticError;
use crate::gcd;

/// An exact rational number: a reduced fraction `num / den` with
/// `den > 0` and `gcd(num, den) == 1`.
///
/// `Rational` is the workspace-wide scalar: time delays, probabilities,
/// polynomial coefficients and matrix entries are all `Rational`.
///
/// # Examples
///
/// ```
/// use tpn_rational::Rational;
///
/// let t: Rational = "106.7".parse().unwrap();
/// assert_eq!(t, Rational::new(1067, 10));
/// assert_eq!((t + t).to_string(), "1067/5");
/// assert_eq!(t.to_decimal_string(1), "106.7");
/// ```
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Rational {
    num: i128,
    den: i128, // invariant: den > 0, gcd(num, den) == 1
}

impl Rational {
    /// Zero.
    pub const ZERO: Rational = Rational { num: 0, den: 1 };
    /// One.
    pub const ONE: Rational = Rational { num: 1, den: 1 };

    /// Construct a rational from a numerator and denominator.
    ///
    /// # Panics
    /// Panics if `den == 0`. Use [`Rational::checked_new`] for a fallible
    /// constructor.
    pub fn new(num: i128, den: i128) -> Rational {
        Rational::checked_new(num, den).expect("Rational::new: invalid fraction")
    }

    /// Construct a rational, reporting failure instead of panicking.
    pub fn checked_new(num: i128, den: i128) -> Result<Rational, ArithmeticError> {
        if den == 0 {
            return Err(ArithmeticError::DivisionByZero);
        }
        if num == 0 {
            return Ok(Rational::ZERO);
        }
        let g = gcd(num, den);
        let mut num = num / g;
        let mut den = den / g;
        if den < 0 {
            num = num.checked_neg().ok_or(ArithmeticError::Overflow)?;
            den = den.checked_neg().ok_or(ArithmeticError::Overflow)?;
        }
        Ok(Rational { num, den })
    }

    /// Construct a rational equal to an integer.
    pub const fn from_int(n: i128) -> Rational {
        Rational { num: n, den: 1 }
    }

    /// A fraction the caller has already reduced: `den > 0` and
    /// `gcd(num, den) == 1`.
    pub(crate) const fn from_reduced(num: i128, den: i128) -> Rational {
        Rational { num, den }
    }

    /// The reduced numerator (sign-carrying).
    pub fn numer(&self) -> i128 {
        self.num
    }

    /// The reduced denominator (always positive).
    pub fn denom(&self) -> i128 {
        self.den
    }

    /// `true` iff this value is zero.
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// `true` iff this value is one.
    pub fn is_one(&self) -> bool {
        self.num == 1 && self.den == 1
    }

    /// `true` iff this value is strictly positive.
    pub fn is_positive(&self) -> bool {
        self.num > 0
    }

    /// `true` iff this value is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.num < 0
    }

    /// `true` iff the value is an integer.
    pub fn is_integer(&self) -> bool {
        self.den == 1
    }

    /// Sign of the value: `-1`, `0` or `1`.
    pub fn signum(&self) -> i32 {
        match self.num.cmp(&0) {
            Ordering::Less => -1,
            Ordering::Equal => 0,
            Ordering::Greater => 1,
        }
    }

    /// Absolute value.
    pub fn abs(&self) -> Rational {
        Rational {
            num: self.num.abs(),
            den: self.den,
        }
    }

    /// Checked addition.
    pub fn checked_add(&self, other: &Rational) -> Result<Rational, ArithmeticError> {
        if self.num == 0 {
            return Ok(*other);
        }
        if other.num == 0 {
            return Ok(*self);
        }
        // Knuth, TAOCP 4.5.1: with g = gcd(b, d),
        //   a/b + c/d = t / ((b/g)·d)   where t = a·(d/g) + c·(b/g),
        // and gcd(t, (b/g)·d) = gcd(t, g). So g = 1 needs no further
        // reduction, and otherwise the only other GCD is taken on the
        // small g. No intermediate exceeds the lcm route's.
        let ovf = ArithmeticError::Overflow;
        let g = gcd(self.den, other.den);
        if g == 1 {
            let lhs = self.num.checked_mul(other.den).ok_or(ovf)?;
            let rhs = other.num.checked_mul(self.den).ok_or(ovf)?;
            return Ok(Rational {
                num: lhs.checked_add(rhs).ok_or(ovf)?,
                den: self.den.checked_mul(other.den).ok_or(ovf)?,
            });
        }
        let db = self.den / g;
        let dd = other.den / g;
        let lhs = self.num.checked_mul(dd).ok_or(ovf)?;
        let rhs = other.num.checked_mul(db).ok_or(ovf)?;
        let t = lhs.checked_add(rhs).ok_or(ovf)?;
        if t == 0 {
            return Ok(Rational::ZERO);
        }
        let g2 = gcd(t, g);
        Ok(Rational {
            num: t / g2,
            den: db.checked_mul(other.den / g2).ok_or(ovf)?,
        })
    }

    /// Checked subtraction.
    pub fn checked_sub(&self, other: &Rational) -> Result<Rational, ArithmeticError> {
        self.checked_add(&other.checked_neg()?)
    }

    /// Checked negation.
    pub fn checked_neg(&self) -> Result<Rational, ArithmeticError> {
        Ok(Rational {
            num: self.num.checked_neg().ok_or(ArithmeticError::Overflow)?,
            den: self.den,
        })
    }

    /// Checked multiplication.
    pub fn checked_mul(&self, other: &Rational) -> Result<Rational, ArithmeticError> {
        if self.num == 0 || other.num == 0 {
            return Ok(Rational::ZERO);
        }
        // Cross-cancel before multiplying to keep intermediates small.
        // Both operands are reduced, so the cross-cancelled product is
        // too: no third GCD.
        let g1 = gcd(self.num, other.den);
        let g2 = gcd(other.num, self.den);
        let num = (self.num / g1)
            .checked_mul(other.num / g2)
            .ok_or(ArithmeticError::Overflow)?;
        let den = (self.den / g2)
            .checked_mul(other.den / g1)
            .ok_or(ArithmeticError::Overflow)?;
        Ok(Rational { num, den })
    }

    /// Checked division.
    pub fn checked_div(&self, other: &Rational) -> Result<Rational, ArithmeticError> {
        self.checked_mul(&other.checked_recip()?)
    }

    /// Checked reciprocal.
    pub fn checked_recip(&self) -> Result<Rational, ArithmeticError> {
        // Already reduced: swap the components and move the sign up.
        match self.num.cmp(&0) {
            Ordering::Equal => Err(ArithmeticError::DivisionByZero),
            Ordering::Greater => Ok(Rational {
                num: self.den,
                den: self.num,
            }),
            Ordering::Less => Ok(Rational {
                num: -self.den,
                den: self.num.checked_neg().ok_or(ArithmeticError::Overflow)?,
            }),
        }
    }

    /// Reciprocal.
    ///
    /// # Panics
    /// Panics if the value is zero.
    pub fn recip(&self) -> Rational {
        self.checked_recip().expect("Rational::recip of zero")
    }

    /// Integer power (negative exponents take the reciprocal).
    pub fn checked_pow(&self, exp: i32) -> Result<Rational, ArithmeticError> {
        if exp == 0 {
            return Ok(Rational::ONE);
        }
        let base = if exp < 0 {
            self.checked_recip()?
        } else {
            *self
        };
        let mut acc = Rational::ONE;
        for _ in 0..exp.unsigned_abs() {
            acc = acc.checked_mul(&base)?;
        }
        Ok(acc)
    }

    /// Integer power. Panics on overflow or `0^negative`.
    pub fn pow(&self, exp: i32) -> Rational {
        self.checked_pow(exp).expect("Rational::pow overflow")
    }

    /// The largest integer `<= self`.
    pub fn floor(&self) -> i128 {
        if self.num >= 0 {
            self.num / self.den
        } else {
            // Round toward negative infinity.
            (self.num - (self.den - 1)) / self.den
        }
    }

    /// The smallest integer `>= self`.
    pub fn ceil(&self) -> i128 {
        -((-*self).floor())
    }

    /// Smaller of two values.
    pub fn min(self, other: Rational) -> Rational {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Larger of two values.
    pub fn max(self, other: Rational) -> Rational {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Convert to `f64` (inexact for large components).
    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Best rational approximation of an `f64` with denominator at most
    /// `max_den`, by continued fractions. Returns `None` for non-finite
    /// inputs.
    ///
    /// This is used at the simulator boundary, where measured statistics
    /// are floats; analytic code never goes through floats.
    pub fn from_f64_approx(x: f64, max_den: i128) -> Option<Rational> {
        if !x.is_finite() || max_den < 1 {
            return None;
        }
        let neg = x < 0.0;
        let mut x = x.abs();
        // Continued-fraction convergents p/q.
        let (mut p0, mut q0, mut p1, mut q1) = (0i128, 1i128, 1i128, 0i128);
        for _ in 0..64 {
            let a = x.floor();
            if a >= i128::MAX as f64 {
                return None;
            }
            let a_i = a as i128;
            let p2 = a_i.checked_mul(p1)?.checked_add(p0)?;
            let q2 = a_i.checked_mul(q1)?.checked_add(q0)?;
            if q2 > max_den {
                break;
            }
            p0 = p1;
            q0 = q1;
            p1 = p2;
            q1 = q2;
            let frac = x - a;
            if frac < 1e-15 {
                break;
            }
            x = 1.0 / frac;
        }
        if q1 == 0 {
            return None;
        }
        let r = Rational::checked_new(if neg { -p1 } else { p1 }, q1).ok()?;
        Some(r)
    }

    /// Render as a decimal string with `digits` fractional digits,
    /// rounding half away from zero. `1067/10` with 1 digit renders as
    /// `"106.7"`.
    pub fn to_decimal_string(&self, digits: u32) -> String {
        // Exact long division of |num| by den: the integer part, then one
        // remainder digit at a time, so nothing is scaled past i128.
        let den = self.den.unsigned_abs();
        let mag = self.num.unsigned_abs();
        let mut int_part = mag / den;
        let mut rem = mag % den;
        let mut frac = Vec::with_capacity(digits as usize);
        for _ in 0..digits {
            // 10·rem / den by repeated addition: rem < den < 2^127, so the
            // accumulator stays below 2·den and never overflows.
            let (mut acc, mut digit) = (0u128, 0u8);
            for _ in 0..10 {
                acc += rem;
                if acc >= den {
                    acc -= den;
                    digit += 1;
                }
            }
            frac.push(digit);
            rem = acc;
        }
        // Round half away from zero: up iff rem / den >= 1/2. A carry out
        // of the last fractional digit moves into the integer part.
        if rem >= den - rem
            && frac.iter_mut().rev().all(|d| {
                *d = (*d + 1) % 10;
                *d == 0
            })
        {
            int_part += 1;
        }
        let sign = if self.num < 0 && (int_part != 0 || frac.iter().any(|&d| d != 0)) {
            "-"
        } else {
            ""
        };
        if digits == 0 {
            format!("{sign}{int_part}")
        } else {
            let frac: String = frac.iter().map(|&d| char::from(b'0' + d)).collect();
            format!("{sign}{int_part}.{frac}")
        }
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::ZERO
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// `n/d`, or `n` when integral, written by the digit kernel in one
/// `write_str`: formatter flags (width, fill, precision) are ignored.
impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.render(&mut [0; MAX_RATIONAL_LEN]))
    }
}

impl Hash for Rational {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Invariant: reduced form is canonical, so field-wise hashing is
        // consistent with Eq.
        self.num.hash(state);
        self.den.hash(state);
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // a/b ? c/d  <=>  a*d ? c*b   (b, d > 0).
        if let (Some(l), Some(r)) = (
            self.num.checked_mul(other.den),
            other.num.checked_mul(self.den),
        ) {
            return l.cmp(&r);
        }
        // The cross products overflow i128: compare signs, then the
        // magnitudes |a|·d and |c|·b as exact 256-bit products.
        match self.signum().cmp(&other.signum()) {
            Ordering::Equal => {}
            unequal => return unequal,
        }
        let l = mul_wide(self.num.unsigned_abs(), other.den.unsigned_abs());
        let r = mul_wide(other.num.unsigned_abs(), self.den.unsigned_abs());
        if self.num < 0 {
            r.cmp(&l)
        } else {
            l.cmp(&r)
        }
    }
}

/// The exact 256-bit product `a·b` as `(high, low)` 128-bit halves,
/// so tuple order is numeric order. Schoolbook over `u64` limbs.
fn mul_wide(a: u128, b: u128) -> (u128, u128) {
    const LO: u128 = u64::MAX as u128;
    let (a1, a0) = (a >> 64, a & LO);
    let (b1, b0) = (b >> 64, b & LO);
    let p00 = a0 * b0;
    let p01 = a0 * b1;
    let p10 = a1 * b0;
    // At most 3·(2^64 − 1): no overflow.
    let mid = (p00 >> 64) + (p01 & LO) + (p10 & LO);
    let low = (p00 & LO) | (mid << 64);
    let high = a1 * b1 + (p01 >> 64) + (p10 >> 64) + (mid >> 64);
    (high, low)
}

macro_rules! binop {
    ($trait:ident, $method:ident, $checked:ident, $assign_trait:ident, $assign_method:ident) => {
        impl $trait for Rational {
            type Output = Rational;
            fn $method(self, rhs: Rational) -> Rational {
                self.$checked(&rhs)
                    .expect(concat!("Rational::", stringify!($method), " overflow"))
            }
        }
        impl<'a> $trait<&'a Rational> for Rational {
            type Output = Rational;
            fn $method(self, rhs: &'a Rational) -> Rational {
                self.$checked(rhs)
                    .expect(concat!("Rational::", stringify!($method), " overflow"))
            }
        }
        impl<'a> $trait<Rational> for &'a Rational {
            type Output = Rational;
            fn $method(self, rhs: Rational) -> Rational {
                self.$checked(&rhs)
                    .expect(concat!("Rational::", stringify!($method), " overflow"))
            }
        }
        impl<'a, 'b> $trait<&'b Rational> for &'a Rational {
            type Output = Rational;
            fn $method(self, rhs: &'b Rational) -> Rational {
                self.$checked(rhs)
                    .expect(concat!("Rational::", stringify!($method), " overflow"))
            }
        }
        impl $assign_trait for Rational {
            fn $assign_method(&mut self, rhs: Rational) {
                *self = $trait::$method(*self, rhs);
            }
        }
    };
}

binop!(Add, add, checked_add, AddAssign, add_assign);
binop!(Sub, sub, checked_sub, SubAssign, sub_assign);
binop!(Mul, mul, checked_mul, MulAssign, mul_assign);
binop!(Div, div, checked_div, DivAssign, div_assign);

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        self.checked_neg().expect("Rational::neg overflow")
    }
}

impl Neg for &Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        self.checked_neg().expect("Rational::neg overflow")
    }
}

impl Sum for Rational {
    fn sum<I: Iterator<Item = Rational>>(iter: I) -> Rational {
        iter.fold(Rational::ZERO, |a, b| a + b)
    }
}

impl Product for Rational {
    fn product<I: Iterator<Item = Rational>>(iter: I) -> Rational {
        iter.fold(Rational::ONE, |a, b| a * b)
    }
}

macro_rules! from_int {
    ($($t:ty),*) => {
        $(
            impl From<$t> for Rational {
                fn from(n: $t) -> Rational {
                    Rational::from_int(n as i128)
                }
            }
        )*
    };
}

from_int!(i8, i16, i32, i64, i128, u8, u16, u32, u64);

impl FromStr for Rational {
    type Err = crate::ParseRationalError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        crate::parse::parse_rational(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    #[test]
    fn construction_normalises() {
        assert_eq!(r(2, 4), r(1, 2));
        assert_eq!(r(-2, -4), r(1, 2));
        assert_eq!(r(2, -4), r(-1, 2));
        assert_eq!(r(0, 5), Rational::ZERO);
        assert_eq!(r(7, 1).numer(), 7);
        assert_eq!(r(7, 1).denom(), 1);
    }

    #[test]
    #[should_panic(expected = "invalid fraction")]
    fn zero_denominator_panics() {
        let _ = Rational::new(1, 0);
    }

    #[test]
    fn arithmetic() {
        assert_eq!(r(1, 2) + r(1, 3), r(5, 6));
        assert_eq!(r(1, 2) - r(1, 3), r(1, 6));
        assert_eq!(r(2, 3) * r(3, 4), r(1, 2));
        assert_eq!(r(1, 2) / r(1, 4), r(2, 1));
        assert_eq!(-r(1, 2), r(-1, 2));
        assert_eq!(r(1, 2).recip(), r(2, 1));
    }

    #[test]
    fn ordering() {
        assert!(r(1, 3) < r(1, 2));
        assert!(r(-1, 2) < r(0, 1));
        assert!(r(7, 3) > r(2, 1));
        assert_eq!(r(3, 6).cmp(&r(1, 2)), Ordering::Equal);
        assert_eq!(r(1, 3).min(r(1, 2)), r(1, 3));
        assert_eq!(r(1, 3).max(r(1, 2)), r(1, 2));
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(r(7, 2).floor(), 3);
        assert_eq!(r(7, 2).ceil(), 4);
        assert_eq!(r(-7, 2).floor(), -4);
        assert_eq!(r(-7, 2).ceil(), -3);
        assert_eq!(r(4, 2).floor(), 2);
        assert_eq!(r(4, 2).ceil(), 2);
    }

    #[test]
    fn pow() {
        assert_eq!(r(2, 3).pow(2), r(4, 9));
        assert_eq!(r(2, 3).pow(0), Rational::ONE);
        assert_eq!(r(2, 3).pow(-1), r(3, 2));
        assert_eq!(r(2, 1).pow(-2), r(1, 4));
        assert!(Rational::ZERO.checked_pow(-1).is_err());
    }

    #[test]
    fn display() {
        assert_eq!(r(3, 1).to_string(), "3");
        assert_eq!(r(-3, 2).to_string(), "-3/2");
        assert_eq!(r(1067, 10).to_decimal_string(1), "106.7");
        assert_eq!(r(1067, 10).to_decimal_string(3), "106.700");
        assert_eq!(r(1, 3).to_decimal_string(4), "0.3333");
        assert_eq!(r(2, 3).to_decimal_string(2), "0.67");
        assert_eq!(r(-2, 3).to_decimal_string(2), "-0.67");
        assert_eq!(r(5, 2).to_decimal_string(0), "3"); // round half away
    }

    #[test]
    fn f64_roundtrip() {
        assert_eq!(r(1, 2).to_f64(), 0.5);
        assert_eq!(Rational::from_f64_approx(0.5, 1_000), Some(r(1, 2)));
        assert_eq!(Rational::from_f64_approx(106.7, 1_000), Some(r(1067, 10)));
        assert_eq!(Rational::from_f64_approx(-0.25, 1_000), Some(r(-1, 4)));
        assert_eq!(Rational::from_f64_approx(f64::NAN, 10), None);
        assert_eq!(Rational::from_f64_approx(f64::INFINITY, 10), None);
        // pi with small denominator: 22/7
        assert_eq!(
            Rational::from_f64_approx(std::f64::consts::PI, 10),
            Some(r(22, 7))
        );
    }

    #[test]
    fn sums_products() {
        let xs = [r(1, 2), r(1, 3), r(1, 6)];
        assert_eq!(xs.iter().copied().sum::<Rational>(), Rational::ONE);
        assert_eq!(xs.iter().copied().product::<Rational>(), r(1, 36));
    }

    #[test]
    fn checked_overflow_detected() {
        let big = Rational::from_int(i128::MAX);
        assert_eq!(
            big.checked_add(&Rational::ONE),
            Err(ArithmeticError::Overflow)
        );
        assert_eq!(big.checked_mul(&big), Err(ArithmeticError::Overflow));
    }

    #[test]
    fn signs_predicates() {
        assert!(r(1, 2).is_positive());
        assert!(r(-1, 2).is_negative());
        assert!(Rational::ZERO.is_zero());
        assert!(Rational::ONE.is_one());
        assert!(r(4, 2).is_integer());
        assert!(!r(1, 2).is_integer());
        assert_eq!(r(-5, 3).signum(), -1);
        assert_eq!(Rational::ZERO.signum(), 0);
        assert_eq!(r(5, 3).signum(), 1);
        assert_eq!(r(-5, 3).abs(), r(5, 3));
    }
}
