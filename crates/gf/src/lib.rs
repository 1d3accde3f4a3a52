//! Finite-field arithmetic and linear algebra for information slicing.
//!
//! Everything the paper's coding layer needs lives here:
//!
//! * [`Field`] — the trait all coded arithmetic is generic over. The paper
//!   (note 1, §4.3.2) works in a generic `F_{p^q}`; this implementation
//!   instantiates it as GF(2⁸) only, [`Gf256`]: a byte of payload is one
//!   element, so slicing a buffer needs no re-packing.
//! * [`Matrix`] — dense row-major matrices with Gauss–Jordan inversion,
//!   rank, multiplication and linear solving. Used for the random
//!   transform `A`, its inverse at the receiving node (`I = A⁻¹ I*`,
//!   §4.3.5), and the redundant `d′ × d` transform of §4.4.
//! * [`mds`] — constructions of `d′ × d` matrices in which *any* `d` rows
//!   are linearly independent ("any d of d′ slices decode", §4.4(b)):
//!   verified-random generation and provably-MDS randomized Cauchy
//!   matrices.
//! * [`bulk`] — the byte-slice kernels (`mul_add_slice`, `mul_slice`,
//!   `xor_slice`, `dot_slice8`, `mul_add_fused`) every packet payload in
//!   the workspace is coded through.
//! * [`simd`] — the runtime-dispatched backends behind those kernels:
//!   SSSE3/AVX2 split-nibble and PCLMULQDQ kernels on x86_64, NEON on
//!   aarch64, with the table-driven SWAR paths as the always-available
//!   fallback and a pure-scalar oracle (`SLICING_GF_FORCE` pins one).
//!
//! All randomness is taken through `rand::Rng` so protocol code and tests
//! can seed deterministically.
//!
//! `unsafe` is denied crate-wide except inside [`simd`]'s `std::arch`
//! kernels and the `#[repr(transparent)]` slice casts that feed them;
//! every unsafe block carries a SAFETY comment and is covered by the
//! proptest oracle suite.

#![deny(unsafe_code)]

pub mod bulk;
pub mod field;
pub mod gf256;
pub mod matrix;
pub mod mds;
pub mod simd;

pub use field::{axpy, dot, scale, sub_scaled, Field};
pub use gf256::Gf256;
pub use matrix::Matrix;
pub use simd::Backend;
