//! The [`Field`] trait: the arithmetic interface all coding is generic over.

use std::fmt::Debug;
use std::hash::Hash;

use rand::Rng;

/// A finite field element.
///
/// Implementations are small `Copy` wrappers over an unsigned integer.
/// The provided field, [`crate::Gf256`], has characteristic 2, so
/// addition and subtraction coincide (XOR); the trait still exposes `sub`
/// separately so generic code reads like the algebra in the paper.
pub trait Field: Copy + Clone + Eq + PartialEq + Debug + Hash + Send + Sync + 'static {
    /// Number of bytes in the canonical little-endian encoding of an element.
    const BYTES: usize;
    /// The field order (number of elements), as u64.
    const ORDER: u64;

    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// Whether this element is the additive identity.
    fn is_zero(&self) -> bool {
        *self == Self::zero()
    }

    /// Field addition.
    fn add(self, rhs: Self) -> Self;
    /// Field subtraction.
    fn sub(self, rhs: Self) -> Self;
    /// Field multiplication.
    fn mul(self, rhs: Self) -> Self;
    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics if `self` is zero.
    fn inv(self) -> Self;

    /// Field division (`self * rhs.inv()`).
    ///
    /// # Panics
    /// Panics if `rhs` is zero.
    fn div(self, rhs: Self) -> Self {
        self.mul(rhs.inv())
    }

    /// Exponentiation by squaring.
    fn pow(self, mut e: u64) -> Self {
        let mut base = self;
        let mut acc = Self::one();
        while e > 0 {
            if e & 1 == 1 {
                acc = acc.mul(base);
            }
            base = base.mul(base);
            e >>= 1;
        }
        acc
    }

    /// Construct an element from an integer, reduced modulo the field order.
    fn from_u64(v: u64) -> Self;
    /// The canonical integer representation of this element.
    fn to_u64(self) -> u64;

    /// Sample a uniformly random element.
    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self::from_u64(rng.gen::<u64>() % Self::ORDER)
    }

    /// Sample a uniformly random *nonzero* element.
    fn random_nonzero<R: Rng + ?Sized>(rng: &mut R) -> Self {
        loop {
            let v = Self::random(rng);
            if !v.is_zero() {
                return v;
            }
        }
    }

    /// Write the canonical little-endian encoding into `out`
    /// (`out.len() == Self::BYTES`).
    fn write_bytes(self, out: &mut [u8]);
    /// Read an element from its canonical little-endian encoding.
    fn read_bytes(bytes: &[u8]) -> Self;

    // ---- bulk slice hooks ------------------------------------------------
    //
    // All matrix and dot-product code routes through these hooks, so an
    // implementation's bulk kernels cover `mul_mat`, `mul_vec`, `rank`,
    // `inverse`, `solve` and the `mds` generator constructions at once.
    // `Gf256` streams them through the runtime-dispatched kernels of
    // [`crate::bulk`].

    /// Dot product `Σ a[i]·b[i]` over equal-length slices.
    fn dot_slices(a: &[Self], b: &[Self]) -> Self;

    /// `acc[i] += c · src[i]` for all `i` (axpy).
    fn axpy_slices(acc: &mut [Self], c: Self, src: &[Self]);

    /// `row[i] = c · row[i]` for all `i` (in-place scale).
    fn scale_slices(row: &mut [Self], c: Self);

    /// `dst[i] -= c · src[i]` for all `i` — the Gaussian-elimination row
    /// update. Coincides with [`Field::axpy_slices`] in characteristic 2.
    fn sub_scaled_slices(dst: &mut [Self], c: Self, src: &[Self]);
}

/// Dot product of two equal-length slices of field elements.
///
/// This is the inner loop of all slicing encode/decode/recombine
/// operations, kept free-standing so benches can measure it directly.
/// Dispatches through [`Field::dot_slices`].
#[inline]
pub fn dot<F: Field>(a: &[F], b: &[F]) -> F {
    debug_assert_eq!(a.len(), b.len());
    F::dot_slices(a, b)
}

/// `acc[i] += c * src[i]` for all `i` — the axpy kernel used by matrix
/// multiplication and network-coding recombination. Dispatches through
/// [`Field::axpy_slices`].
#[inline]
pub fn axpy<F: Field>(acc: &mut [F], c: F, src: &[F]) {
    debug_assert_eq!(acc.len(), src.len());
    F::axpy_slices(acc, c, src);
}

/// `row[i] *= c` for all `i` — the pivot-normalization kernel of
/// Gaussian elimination.
#[inline]
pub fn scale<F: Field>(row: &mut [F], c: F) {
    F::scale_slices(row, c);
}

/// `dst[i] -= c * src[i]` for all `i` — the row-elimination kernel of
/// Gaussian elimination (rank, inversion, solving).
#[inline]
pub fn sub_scaled<F: Field>(dst: &mut [F], c: F, src: &[F]) {
    debug_assert_eq!(dst.len(), src.len());
    F::sub_scaled_slices(dst, c, src);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Gf256;

    fn axioms_hold<F: Field>() {
        let mut rng = rand::thread_rng();
        for _ in 0..200 {
            let a = F::random(&mut rng);
            let b = F::random(&mut rng);
            let c = F::random(&mut rng);
            // Commutativity.
            assert_eq!(a.add(b), b.add(a));
            assert_eq!(a.mul(b), b.mul(a));
            // Associativity.
            assert_eq!(a.add(b).add(c), a.add(b.add(c)));
            assert_eq!(a.mul(b).mul(c), a.mul(b.mul(c)));
            // Distributivity.
            assert_eq!(a.mul(b.add(c)), a.mul(b).add(a.mul(c)));
            // Identities.
            assert_eq!(a.add(F::zero()), a);
            assert_eq!(a.mul(F::one()), a);
            // Inverses.
            assert_eq!(a.sub(a), F::zero());
            if !a.is_zero() {
                assert_eq!(a.mul(a.inv()), F::one());
                assert_eq!(a.div(a), F::one());
            }
        }
    }

    #[test]
    fn gf256_axioms() {
        axioms_hold::<Gf256>();
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let mut rng = rand::thread_rng();
        let a = Gf256::random_nonzero(&mut rng);
        let mut acc = Gf256::one();
        for e in 0..20u64 {
            assert_eq!(a.pow(e), acc);
            acc = acc.mul(a);
        }
    }

    #[test]
    fn dot_and_axpy_agree() {
        let mut rng = rand::thread_rng();
        let a: Vec<Gf256> = (0..16).map(|_| Gf256::random(&mut rng)).collect();
        let b: Vec<Gf256> = (0..16).map(|_| Gf256::random(&mut rng)).collect();
        let d = dot(&a, &b);
        // Compute the same dot product via axpy into a 1-element accumulator
        // per term.
        let mut acc = Gf256::zero();
        for i in 0..16 {
            let mut cell = [acc];
            axpy(&mut cell, a[i], &[b[i]]);
            acc = cell[0];
        }
        assert_eq!(acc, d);
    }

    #[test]
    fn bulk_hooks_match_scalar_semantics() {
        // Gf256's kernel-backed hooks must agree with element-wise
        // scalar loops for every kernel the matrix code uses.
        let mut rng = rand::thread_rng();
        for len in [0usize, 1, 7, 64, 255] {
            let a: Vec<Gf256> = (0..len).map(|_| Gf256::random(&mut rng)).collect();
            let b: Vec<Gf256> = (0..len).map(|_| Gf256::random(&mut rng)).collect();
            for c in [Gf256::new(0), Gf256::new(1), Gf256::new(0xA7)] {
                // dot
                let mut want = Gf256::zero();
                for (&x, &y) in a.iter().zip(b.iter()) {
                    want = want.add(x.mul(y));
                }
                assert_eq!(dot(&a, &b), want, "dot len {len}");
                // axpy
                let mut got = a.clone();
                axpy(&mut got, c, &b);
                let want: Vec<Gf256> = a
                    .iter()
                    .zip(b.iter())
                    .map(|(&x, &y)| x.add(c.mul(y)))
                    .collect();
                assert_eq!(got, want, "axpy len {len} c {c:?}");
                // scale
                let mut got = a.clone();
                scale(&mut got, c);
                let want: Vec<Gf256> = a.iter().map(|&x| x.mul(c)).collect();
                assert_eq!(got, want, "scale len {len} c {c:?}");
                // sub_scaled
                let mut got = a.clone();
                sub_scaled(&mut got, c, &b);
                let want: Vec<Gf256> = a
                    .iter()
                    .zip(b.iter())
                    .map(|(&x, &y)| x.sub(c.mul(y)))
                    .collect();
                assert_eq!(got, want, "sub_scaled len {len} c {c:?}");
            }
        }
    }

    #[test]
    fn byte_round_trip() {
        for v in 0..=255u8 {
            let a = Gf256::new(v);
            let mut buf = [0u8; Gf256::BYTES];
            a.write_bytes(&mut buf);
            assert_eq!(Gf256::read_bytes(&buf), a);
        }
    }
}
