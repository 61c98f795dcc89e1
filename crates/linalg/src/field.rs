//! The [`Field`] abstraction.

use tpn_rational::Rational;
use tpn_symbolic::RatFn;

/// An exact field: the coefficient domain for elimination.
///
/// Implementations must be *exact* — `a.div(b).mul(b) == a` for non-zero
/// `b` — because pivoting decisions test `is_zero` structurally. The two
/// implementations used in this workspace are [`Rational`] (numeric
/// analysis) and [`RatFn`] (symbolic analysis over the frequency
/// symbols).
pub trait Field: Clone + PartialEq + std::fmt::Debug {
    /// The additive identity.
    fn zero() -> Self;
    /// The multiplicative identity.
    fn one() -> Self;
    /// The integer `n` as a field element.
    fn from_int(n: i128) -> Self;
    /// `true` iff this is the additive identity.
    fn is_zero(&self) -> bool;
    /// Addition.
    fn add(&self, other: &Self) -> Self;
    /// Subtraction.
    fn sub(&self, other: &Self) -> Self;
    /// Multiplication.
    fn mul(&self, other: &Self) -> Self;
    /// Division.
    ///
    /// # Panics
    /// May panic when `other` is zero; callers guard with
    /// [`Field::is_zero`].
    fn div(&self, other: &Self) -> Self;
    /// Negation.
    fn neg(&self) -> Self;

    /// A size heuristic used for pivot selection (smaller pivots keep
    /// intermediate expressions small). Defaults to 0 (no preference).
    fn complexity(&self) -> usize {
        0
    }
}

impl Field for Rational {
    fn zero() -> Self {
        Rational::ZERO
    }
    fn one() -> Self {
        Rational::ONE
    }
    fn from_int(n: i128) -> Self {
        Rational::from_int(n)
    }
    fn is_zero(&self) -> bool {
        Rational::is_zero(self)
    }
    fn add(&self, other: &Self) -> Self {
        self + other
    }
    fn sub(&self, other: &Self) -> Self {
        self - other
    }
    fn mul(&self, other: &Self) -> Self {
        self * other
    }
    fn div(&self, other: &Self) -> Self {
        self / other
    }
    fn neg(&self) -> Self {
        -self
    }
    fn complexity(&self) -> usize {
        (128 - self.numer().unsigned_abs().leading_zeros()) as usize
            + (128 - self.denom().unsigned_abs().leading_zeros()) as usize
    }
}

impl Field for RatFn {
    fn zero() -> Self {
        RatFn::zero()
    }
    fn one() -> Self {
        RatFn::one()
    }
    fn from_int(n: i128) -> Self {
        RatFn::constant(Rational::from_int(n))
    }
    fn is_zero(&self) -> bool {
        RatFn::is_zero(self)
    }
    fn add(&self, other: &Self) -> Self {
        self + other
    }
    fn sub(&self, other: &Self) -> Self {
        self - other
    }
    fn mul(&self, other: &Self) -> Self {
        self * other
    }
    fn div(&self, other: &Self) -> Self {
        self / other
    }
    fn neg(&self) -> Self {
        -self.clone()
    }
    fn complexity(&self) -> usize {
        self.numer().num_terms() + self.denom().num_terms()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpn_symbolic::{Poly, Symbol};

    fn check_axioms<F: Field>(a: F, b: F) {
        assert_eq!(a.add(&b), b.add(&a));
        assert_eq!(a.add(&F::zero()), a);
        assert_eq!(a.mul(&F::one()), a);
        assert_eq!(a.mul(&F::from_int(2)), a.add(&a));
        assert_eq!(a.sub(&a), F::zero());
        assert_eq!(a.add(&a.neg()), F::zero());
        if !b.is_zero() {
            assert_eq!(a.div(&b).mul(&b), a);
        }
    }

    #[test]
    fn rational_field() {
        check_axioms(Rational::new(3, 4), Rational::new(-2, 5));
        assert!(Rational::ZERO.complexity() < Rational::new(123456, 789).complexity());
    }

    #[test]
    fn ratfn_field() {
        let x = RatFn::symbol(Symbol::intern("fld_x"));
        let y = RatFn::new(Poly::one(), Poly::symbol(Symbol::intern("fld_y")));
        check_axioms(x.clone(), y.clone());
        assert!(RatFn::one().complexity() <= (x.clone() + y).complexity());
    }
}
