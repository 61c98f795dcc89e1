//! Property tests for exact linear algebra: solver correctness against
//! matrix–vector multiplication and algebraic identities of
//! rank/determinant/inverse.

use proptest::prelude::*;
use tpn_linalg::{LinalgError, Matrix};
use tpn_rational::Rational;

fn small() -> impl Strategy<Value = Rational> {
    (-5i128..=5, 1i128..=3).prop_map(|(n, d)| Rational::new(n, d))
}

fn square(n: usize) -> impl Strategy<Value = Matrix<Rational>> {
    proptest::collection::vec(proptest::collection::vec(small(), n), n).prop_map(Matrix::from_rows)
}

fn vector(n: usize) -> impl Strategy<Value = Vec<Rational>> {
    proptest::collection::vec(small(), n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn solve_then_multiply_roundtrips(a in square(3), b in vector(3)) {
        match a.solve(&b) {
            Ok(x) => {
                prop_assert_eq!(a.mul_vec(&x).unwrap(), b);
                // unique solution ⇒ full rank ⇒ non-zero determinant
                prop_assert!(!a.determinant().unwrap().is_zero());
            }
            Err(LinalgError::Singular) => {
                prop_assert_eq!(a.determinant().unwrap(), Rational::ZERO);
            }
            Err(e) => return Err(TestCaseError::fail(format!("unexpected {e}"))),
        }
    }

    #[test]
    fn inverse_is_two_sided(a in square(3)) {
        if let Ok(inv) = a.inverse() {
            prop_assert_eq!(a.mul_mat(&inv).unwrap(), Matrix::identity(3));
            prop_assert_eq!(inv.mul_mat(&a).unwrap(), Matrix::identity(3));
        } else {
            prop_assert_eq!(a.determinant().unwrap(), Rational::ZERO);
        }
    }

    #[test]
    fn determinant_multiplicative(a in square(3), b in square(3)) {
        let ab = a.mul_mat(&b).unwrap();
        prop_assert_eq!(
            ab.determinant().unwrap(),
            a.determinant().unwrap() * b.determinant().unwrap()
        );
    }

    #[test]
    fn null_space_spans_the_kernel(a in square(3)) {
        let basis = a.null_space();
        prop_assert_eq!(basis.len(), 3 - a.rank());
        for v in &basis {
            prop_assert_eq!(a.mul_vec(v).unwrap(), vec![Rational::ZERO; 3]);
            prop_assert!(!v.iter().all(Rational::is_zero));
        }
    }

    #[test]
    fn rank_of_transpose_equal(a in square(3)) {
        prop_assert_eq!(a.rank(), a.transpose().rank());
    }
}
