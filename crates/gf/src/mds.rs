//! Redundant generator matrices: `d′ × d` matrices in which **any** `d`
//! rows are linearly independent.
//!
//! §4.4(b) of the paper requires exactly this property so that a node can
//! decode its information from any `d` of the `d′` slices it was sent.
//! Two constructions are provided:
//!
//! * [`random_verified`] — a uniformly random matrix, with all `C(d′, d)`
//!   row-subsets checked for invertibility (retrying on the rare failure).
//!   Matches the paper's "random matrix of rank d" language and the
//!   randomized-network-coding result it cites (reference 18 there:
//!   random matrices have the property w.h.p.).
//! * [`randomized_cauchy`] — a Cauchy matrix with rows and columns scaled
//!   by random nonzero constants. Every square submatrix of a Cauchy
//!   matrix is invertible (Cauchy determinant formula), and nonzero
//!   row/column scaling preserves that, so the property holds
//!   *deterministically* — used when `C(d′, d)` is too large to verify.

use rand::Rng;

use crate::field::Field;
use crate::matrix::Matrix;

/// Upper bound on `C(d′, d)` beyond which [`generator`] switches from
/// verified-random to randomized-Cauchy construction.
const VERIFY_LIMIT: u64 = 4096;

/// Number of `d`-subsets of `d′` rows, saturating.
fn binomial(n: usize, k: usize) -> u64 {
    let k = k.min(n - k);
    let mut acc: u64 = 1;
    for i in 0..k {
        acc = acc.saturating_mul((n - i) as u64) / (i as u64 + 1);
        if acc > u64::MAX / (n as u64 + 1) {
            return u64::MAX;
        }
    }
    acc
}

/// Visit every `k`-subset of `0..n` (lexicographic), aborting early if the
/// callback returns `false`.
fn for_each_subset(n: usize, k: usize, mut f: impl FnMut(&[usize]) -> bool) -> bool {
    let mut idx: Vec<usize> = (0..k).collect();
    loop {
        if !f(&idx) {
            return false;
        }
        // Advance to next combination.
        let mut i = k;
        loop {
            if i == 0 {
                return true;
            }
            i -= 1;
            if idx[i] != i + n - k {
                break;
            }
            if i == 0 {
                return true;
            }
        }
        idx[i] += 1;
        for j in i + 1..k {
            idx[j] = idx[j - 1] + 1;
        }
    }
}

/// Check that every `d × d` row-submatrix of `m` is invertible.
pub fn all_row_subsets_invertible<F: Field>(m: &Matrix<F>) -> bool {
    let (dp, d) = (m.nrows(), m.ncols());
    if dp < d {
        return false;
    }
    for_each_subset(dp, d, |rows| m.select_rows(rows).is_invertible())
}

/// Random `d′ × d` matrix with the any-`d`-rows-invertible property,
/// verified exhaustively; retries until one is found.
///
/// # Panics
/// Panics if `d′ < d` or if `C(d′, d)` exceeds the verification budget
/// (use [`randomized_cauchy`] or [`generator`] instead).
pub fn random_verified<F: Field, R: Rng + ?Sized>(
    d_prime: usize,
    d: usize,
    rng: &mut R,
) -> Matrix<F> {
    assert!(d_prime >= d, "d' must be >= d");
    assert!(
        binomial(d_prime, d) <= VERIFY_LIMIT,
        "too many subsets to verify; use randomized_cauchy"
    );
    loop {
        let m = Matrix::random(d_prime, d, rng);
        if all_row_subsets_invertible(&m) {
            return m;
        }
    }
}

/// Randomized Cauchy `d′ × d` matrix: provably any-`d`-rows invertible.
///
/// `C[i][j] = r_i · s_j / (x_i + y_j)` with distinct `x_i`, `y_j` drawn
/// from disjoint ranges of the field and random nonzero `r_i`, `s_j`.
///
/// # Panics
/// Panics if `d′ + d` exceeds the field order (cannot pick disjoint
/// evaluation points).
pub fn randomized_cauchy<F: Field, R: Rng + ?Sized>(
    d_prime: usize,
    d: usize,
    rng: &mut R,
) -> Matrix<F> {
    assert!(d_prime >= d, "d' must be >= d");
    assert!(
        (d_prime + d) as u64 <= F::ORDER,
        "field too small for Cauchy construction"
    );
    let xs: Vec<F> = (0..d_prime as u64).map(F::from_u64).collect();
    let ys: Vec<F> = (d_prime as u64..(d_prime + d) as u64)
        .map(F::from_u64)
        .collect();
    let r: Vec<F> = (0..d_prime).map(|_| F::random_nonzero(rng)).collect();
    let s: Vec<F> = (0..d).map(|_| F::random_nonzero(rng)).collect();
    let mut m = Matrix::zero(d_prime, d);
    for i in 0..d_prime {
        for j in 0..d {
            let denom = xs[i].add(ys[j]);
            debug_assert!(!denom.is_zero(), "Cauchy points collide");
            m.set(i, j, r[i].mul(s[j]).div(denom));
        }
    }
    m
}

/// Produce a `d′ × d` generator with the any-`d`-rows property, choosing
/// the construction automatically:
/// verified-random when cheap to check, randomized Cauchy otherwise.
pub fn generator<F: Field, R: Rng + ?Sized>(d_prime: usize, d: usize, rng: &mut R) -> Matrix<F> {
    assert!(d >= 1, "d must be >= 1");
    assert!(d_prime >= d, "d' must be >= d");
    if d_prime == d {
        return Matrix::random_invertible(d, rng);
    }
    if binomial(d_prime, d) <= VERIFY_LIMIT {
        random_verified(d_prime, d, rng)
    } else {
        randomized_cauchy(d_prime, d, rng)
    }
}

/// Produce a **super-regular** `d′ × d` generator: *every* square
/// submatrix (any rows × any columns) is invertible, not just full
/// `d`-row selections.
///
/// This is the generator `slicing-codec`'s `encode` uses, because
/// pi-security (Lemma 5.1) needs the system seen by an attacker holding
/// any `m < d` slices to remain underdetermined *for every choice of
/// fixed message components* — which is exactly the statement that every
/// `m × m` submatrix of the observed rows is invertible. Randomized
/// Cauchy matrices have this property deterministically (the Cauchy
/// determinant is a product of nonzero factors, and row/column scaling
/// by nonzero constants preserves it).
pub fn strong_generator<F: Field, R: Rng + ?Sized>(
    d_prime: usize,
    d: usize,
    rng: &mut R,
) -> Matrix<F> {
    assert!(d >= 1, "d must be >= 1");
    assert!(d_prime >= d, "d' must be >= d");
    randomized_cauchy(d_prime, d, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Gf256;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn binomial_values() {
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(10, 3), 120);
        assert_eq!(binomial(6, 6), 1);
        assert_eq!(binomial(8, 1), 8);
    }

    #[test]
    fn subset_enumeration_counts() {
        let mut count = 0;
        for_each_subset(6, 3, |_| {
            count += 1;
            true
        });
        assert_eq!(count, 20);
    }

    #[test]
    fn random_verified_has_property() {
        let mut rng = rng();
        for (dp, d) in [(3, 2), (5, 3), (6, 2), (4, 4)] {
            let m = random_verified::<Gf256, _>(dp, d, &mut rng);
            assert!(all_row_subsets_invertible(&m));
        }
    }

    #[test]
    fn cauchy_has_property() {
        let mut rng = rng();
        for (dp, d) in [(3, 2), (6, 3), (9, 4), (12, 2)] {
            let m = randomized_cauchy::<Gf256, _>(dp, d, &mut rng);
            assert!(all_row_subsets_invertible(&m), "failed at ({dp},{d})");
        }
    }

    #[test]
    fn generator_square_case_is_invertible() {
        let mut rng = rng();
        let m = generator::<Gf256, _>(4, 4, &mut rng);
        assert!(m.is_invertible());
    }

    #[test]
    fn generator_large_dims_uses_cauchy() {
        let mut rng = rng();
        // C(40, 20) is astronomically large; must not try to verify.
        let m = generator::<Gf256, _>(40, 20, &mut rng);
        assert_eq!(m.nrows(), 40);
        assert_eq!(m.ncols(), 20);
        // Spot-check a handful of random subsets.
        use rand::seq::SliceRandom;
        for _ in 0..16 {
            let mut rows: Vec<usize> = (0..40).collect();
            rows.shuffle(&mut rng);
            rows.truncate(20);
            assert!(m.select_rows(&rows).is_invertible());
        }
    }

    #[test]
    #[should_panic(expected = "d' must be >= d")]
    fn rejects_dprime_below_d() {
        let mut rng = rng();
        let _ = generator::<Gf256, _>(2, 3, &mut rng);
    }

    /// Super-regularity: every square submatrix (rows × columns) of the
    /// strong generator is invertible.
    #[test]
    fn strong_generator_every_square_submatrix_invertible() {
        let mut rng = rng();
        for (dp, d) in [(3usize, 3usize), (4, 3), (5, 2), (4, 4)] {
            let g = strong_generator::<Gf256, _>(dp, d, &mut rng);
            for k in 1..=d {
                let ok = for_each_subset(dp, k, |rows| {
                    for_each_subset(d, k, |cols| {
                        let sub = g.select_rows(rows);
                        // Select columns via transpose + select_rows.
                        let subsub = sub.transpose().select_rows(cols);
                        subsub.is_invertible()
                    })
                });
                assert!(ok, "singular {k}x{k} submatrix at ({dp},{d})");
            }
        }
    }
}
