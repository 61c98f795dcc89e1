//! Exact rational arithmetic for timed Petri net analysis.
//!
//! The analysis in Razouk's paper (SIGCOMM 1984) manipulates *exact* time
//! delays such as `106.7` ms and *exact* branching probabilities such as
//! `f4 / (f4 + f5)`. Floating point cannot represent these without drift,
//! and drift breaks the reachability-graph construction (two states whose
//! remaining-time vectors differ by an ulp would be treated as distinct).
//! Every quantity in this workspace is therefore an exact [`Rational`].
//!
//! The type is a reduced fraction over checked `i128`. All arithmetic is
//! overflow-checked: the inherent methods return [`Result`] and the
//! operator impls panic on overflow (which, with 128-bit intermediaries
//! and the magnitudes that occur in protocol models, does not happen in
//! practice — the checked API exists for the solver layers that iterate).
//!
//! Reduction is the cost of every operation, so the kernel keeps it
//! small: [`gcd`] is a binary GCD that finishes in `u64` arithmetic,
//! addition takes its second GCD only on the small common factor of
//! the denominators (Knuth, TAOCP 4.5.1), multiplication cross-cancels
//! and needs no third GCD, and the reciprocal needs none. Comparison
//! is exact for every pair of values: when the `i128` cross products
//! overflow it compares them as 256-bit products.

mod digits;
mod error;
mod parse;
mod rational;

pub use digits::{push_fixed, push_i128, push_u64};
pub use error::{ArithmeticError, ParseRationalError};
pub use rational::Rational;

/// Greatest common divisor of two `i128`s (always non-negative).
///
/// `gcd(0, 0) == 0` by convention.
pub fn gcd(a: i128, b: i128) -> i128 {
    // `unsigned_abs` avoids overflow on `i128::MIN`.
    let g = gcd_u128(a.unsigned_abs(), b.unsigned_abs());
    // The gcd of two i128s fits in i128 unless both inputs were i128::MIN
    // (gcd 2^127). We saturate instead of panicking: callers normalise
    // immediately after and surface an ArithmeticError there.
    if g > i128::MAX as u128 {
        i128::MAX
    } else {
        g as i128
    }
}

/// Binary (Stein) GCD on `u128`.
///
/// Every step is a subtraction and a shift, never a software 128-bit
/// `%`. Once both operands fit in 64 bits the loop continues in native
/// `u64` arithmetic; when only the smaller one does, a single remainder
/// brings the larger down to its size first.
fn gcd_u128(mut a: u128, mut b: u128) -> u128 {
    if a == 0 || b == 0 {
        return a | b;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        // Invariant: a is odd, b is non-zero, and the answer is
        // gcd(a, b) << shift.
        b >>= b.trailing_zeros();
        if b < a {
            std::mem::swap(&mut a, &mut b);
        }
        if let Ok(small_b) = u64::try_from(b) {
            return u128::from(gcd_odd_u64(a as u64, small_b)) << shift;
        }
        b = if a >> 64 == 0 { b % a } else { b - a };
        if b == 0 {
            return a << shift;
        }
    }
}

/// Binary (Stein) GCD on `u64`.
pub(crate) fn gcd_u64(a: u64, b: u64) -> u64 {
    if a == 0 || b == 0 {
        return a | b;
    }
    let shift = (a | b).trailing_zeros();
    gcd_odd_u64(a >> a.trailing_zeros(), b >> b.trailing_zeros()) << shift
}

/// Stein's loop on two odd `u64`s.
fn gcd_odd_u64(mut a: u64, mut b: u64) -> u64 {
    while a != b {
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        b >>= b.trailing_zeros();
    }
    a
}

/// Least common multiple, checked.
pub fn lcm(a: i128, b: i128) -> Option<i128> {
    if a == 0 || b == 0 {
        return Some(0);
    }
    let g = gcd(a, b);
    (a / g).checked_mul(b)?.checked_abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(0, 0), 0);
        assert_eq!(gcd(0, 7), 7);
        assert_eq!(gcd(7, 0), 7);
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(-12, 18), 6);
        assert_eq!(gcd(12, -18), 6);
        assert_eq!(gcd(-12, -18), 6);
        assert_eq!(gcd(1, 1), 1);
        assert_eq!(gcd(17, 13), 1);
    }

    #[test]
    fn gcd_extreme() {
        assert_eq!(gcd(i128::MIN, i128::MIN), i128::MAX); // saturated
        assert_eq!(gcd(i128::MIN, 1), 1);
        assert_eq!(gcd(i128::MAX, i128::MAX), i128::MAX);
    }

    #[test]
    fn lcm_basics() {
        assert_eq!(lcm(4, 6), Some(12));
        assert_eq!(lcm(0, 5), Some(0));
        assert_eq!(lcm(-4, 6), Some(12));
        assert_eq!(lcm(i128::MAX, i128::MAX - 1), None); // overflow
    }
}
