//! aarch64 NEON kernels: `TBL` split-nibble table multiplies and
//! `vmull_p8` carry-less dot products.
//!
//! NEON is baseline on aarch64, so unlike the x86_64 module there is no
//! width split — everything runs on 128-bit vectors. The structure
//! mirrors [`super::x86`]: safe wrappers around `#[target_feature]`
//! inner loops and scalar table-row tails.
//!
//! One convenience x86 lacks: `vmull_p8` is a native 8-lane carry-less
//! 8×8→16 multiply, so the dot product accumulates unreduced lane
//! products directly, with one reduction at the end.

use std::arch::aarch64::*;

use crate::bulk;
use crate::simd::tables::{self, NIB8};

/// Matches the x86 kernel: outputs fused per group of four accumulators.
pub(crate) const FUSED_GROUP: usize = 4;

// ---- slice transforms -----------------------------------------------------

const OP_AXPY: u8 = 0;
const OP_MUL_INTO: u8 = 1;
const OP_MUL: u8 = 2;
const OP_MUL_XOR: u8 = 3;
const OP_XOR_MUL: u8 = 4;

/// One 16-lane split-nibble multiply via two `TBL` lookups.
/// Register-only (no memory access), so it is a *safe* target-feature
/// fn: the engines that call it already carry the `neon` feature.
#[inline]
#[target_feature(enable = "neon")]
fn mul_block(tlo: uint8x16_t, thi: uint8x16_t, v: uint8x16_t) -> uint8x16_t {
    let lo = vandq_u8(v, vdupq_n_u8(0x0f));
    let hi = vshrq_n_u8(v, 4);
    veorq_u8(vqtbl1q_u8(tlo, lo), vqtbl1q_u8(thi, hi))
}

/// NEON transform engine over 16-byte blocks (32-byte main loop);
/// returns bytes processed. `other` must equal `dst` for `OP_MUL` and
/// may not otherwise alias.
///
/// # Safety
///
/// `dst` and `other` must each be valid for `len` bytes (`dst` for
/// writes); they must not partially overlap (equal is fine). NEON is
/// baseline on aarch64, so there is no feature precondition.
#[target_feature(enable = "neon")]
unsafe fn transform8<const OP: u8>(
    dst: *mut u8,
    other: *const u8,
    len: usize,
    tab: &[u8; 32],
) -> usize {
    // SAFETY: per the fn contract, every `dst`/`other` offset below is
    // `< len`; `vld1q_u8`/`vst1q_u8` are unaligned ops; `tab` is a
    // 32-byte array so `tab + 16` is in bounds.
    unsafe {
        let tlo = vld1q_u8(tab.as_ptr());
        let thi = vld1q_u8(tab.as_ptr().add(16));
        let mut i = 0usize;
        macro_rules! block {
            ($off:expr) => {{
                let o = $off;
                let r = match OP {
                    OP_AXPY => {
                        let d = vld1q_u8(dst.add(o));
                        let s = vld1q_u8(other.add(o));
                        veorq_u8(d, mul_block(tlo, thi, s))
                    }
                    OP_MUL_INTO => mul_block(tlo, thi, vld1q_u8(other.add(o))),
                    OP_MUL => mul_block(tlo, thi, vld1q_u8(dst.add(o))),
                    OP_MUL_XOR => {
                        let d = vld1q_u8(dst.add(o));
                        let p = vld1q_u8(other.add(o));
                        veorq_u8(mul_block(tlo, thi, d), p)
                    }
                    _ => {
                        let d = vld1q_u8(dst.add(o));
                        let p = vld1q_u8(other.add(o));
                        mul_block(tlo, thi, veorq_u8(d, p))
                    }
                };
                vst1q_u8(dst.add(o), r);
            }};
        }
        while i + 32 <= len {
            block!(i);
            block!(i + 16);
            i += 32;
        }
        if i + 16 <= len {
            block!(i);
            i += 16;
        }
        i
    }
}

#[inline]
fn run_transform8<const OP: u8>(dst: *mut u8, other: *const u8, len: usize, c: u8) -> usize {
    // SAFETY: NEON is baseline on aarch64; pointers cover `len` valid
    // bytes per the safe wrappers' slice arguments.
    unsafe { transform8::<OP>(dst, other, len, &NIB8[c as usize]) }
}

/// `dst[i] ^= c · src[i]` (generic `c`).
pub(crate) fn axpy8(dst: &mut [u8], c: u8, src: &[u8]) {
    debug_assert_eq!(dst.len(), src.len());
    let n = run_transform8::<OP_AXPY>(dst.as_mut_ptr(), src.as_ptr(), dst.len(), c);
    let row = bulk::mul_row(c);
    for (d, &s) in dst[n..].iter_mut().zip(&src[n..]) {
        *d ^= row[s as usize];
    }
}

/// `dst[i] = c · dst[i]` (in-place scale).
pub(crate) fn mul8(dst: &mut [u8], c: u8) {
    let n = run_transform8::<OP_MUL>(dst.as_mut_ptr(), dst.as_ptr(), dst.len(), c);
    let row = bulk::mul_row(c);
    for d in dst[n..].iter_mut() {
        *d = row[*d as usize];
    }
}

/// `dst[i] = c · src[i]` (scale into a destination).
pub(crate) fn mul8_into(dst: &mut [u8], c: u8, src: &[u8]) {
    debug_assert_eq!(dst.len(), src.len());
    let n = run_transform8::<OP_MUL_INTO>(dst.as_mut_ptr(), src.as_ptr(), dst.len(), c);
    let row = bulk::mul_row(c);
    for (d, &s) in dst[n..].iter_mut().zip(&src[n..]) {
        *d = row[s as usize];
    }
}

/// `dst[i] = c · dst[i] ^ pad[i]` (fused forward per-hop transform).
pub(crate) fn mul_xor8(dst: &mut [u8], c: u8, pad: &[u8]) {
    debug_assert_eq!(dst.len(), pad.len());
    let n = run_transform8::<OP_MUL_XOR>(dst.as_mut_ptr(), pad.as_ptr(), dst.len(), c);
    let row = bulk::mul_row(c);
    for (d, &p) in dst[n..].iter_mut().zip(&pad[n..]) {
        *d = row[*d as usize] ^ p;
    }
}

/// `dst[i] = c · (dst[i] ^ pad[i])` (fused inverse per-hop transform).
pub(crate) fn xor_mul8(dst: &mut [u8], c: u8, pad: &[u8]) {
    debug_assert_eq!(dst.len(), pad.len());
    let n = run_transform8::<OP_XOR_MUL>(dst.as_mut_ptr(), pad.as_ptr(), dst.len(), c);
    let row = bulk::mul_row(c);
    for (d, &p) in dst[n..].iter_mut().zip(&pad[n..]) {
        *d = row[(*d ^ p) as usize];
    }
}

// ---- fused multi-accumulator ----------------------------------------------

/// NEON fused multi-accumulator kernel, as `fused8_avx2` on x86.
///
/// # Safety
///
/// Every pointer in `outs` and `srcs` must be valid for `len` bytes
/// (`outs` for writes), all mutually disjoint; `coeffs` must hold
/// `outs.len() · srcs.len()` entries; `outs.len() ≤ FUSED_GROUP`.
#[target_feature(enable = "neon")]
unsafe fn fused8_neon(outs: &[*mut u8], coeffs: &[u8], srcs: &[*const u8], len: usize) -> usize {
    // SAFETY: per the fn contract, each indexed offset is `< len` on a
    // live disjoint buffer and `NIB8` rows are 32 bytes.
    unsafe {
        let g = outs.len();
        let nsrc = srcs.len();
        let nib = vdupq_n_u8(0x0f);
        let blocks = len / 16 * 16;
        for (si, &sp) in srcs.iter().enumerate() {
            // Hoist this source's per-output tables out of the block loop
            // (2·FUSED_GROUP table registers fit the 32-register file).
            let mut tlo = [vdupq_n_u8(0); FUSED_GROUP];
            let mut thi = [vdupq_n_u8(0); FUSED_GROUP];
            let mut live = [false; FUSED_GROUP];
            for j in 0..g {
                let c = coeffs[j * nsrc + si];
                if c == 0 {
                    continue;
                }
                let tab = &NIB8[c as usize];
                tlo[j] = vld1q_u8(tab.as_ptr());
                thi[j] = vld1q_u8(tab.as_ptr().add(16));
                live[j] = true;
            }
            if !live.contains(&true) {
                continue;
            }
            let mut i = 0usize;
            while i + 16 <= len {
                let s = vld1q_u8(sp.add(i));
                let lo = vandq_u8(s, nib);
                let hi = vshrq_n_u8(s, 4);
                for j in 0..g {
                    if !live[j] {
                        continue;
                    }
                    let op = outs[j].add(i);
                    let acc = vld1q_u8(op);
                    let prod = veorq_u8(vqtbl1q_u8(tlo[j], lo), vqtbl1q_u8(thi[j], hi));
                    vst1q_u8(op, veorq_u8(acc, prod));
                }
                i += 16;
            }
        }
        blocks
    }
}

/// Fused multi-coefficient accumulate (output-major coefficients), as
/// on x86: each source block is loaded once per group of
/// [`FUSED_GROUP`] outputs.
pub(crate) fn fused8(outs: &mut [&mut [u8]], coeffs: &[u8], srcs: &[&[u8]]) {
    let nsrc = srcs.len();
    let len = srcs.first().map_or(0, |s| s.len());
    let src_ptrs: Vec<*const u8> = srcs.iter().map(|s| s.as_ptr()).collect();
    for (chunk_idx, chunk) in outs.chunks_mut(FUSED_GROUP).enumerate() {
        let cbase = chunk_idx * FUSED_GROUP * nsrc;
        let coeffs = &coeffs[cbase..cbase + chunk.len() * nsrc];
        let out_ptrs: Vec<*mut u8> = chunk.iter_mut().map(|o| o.as_mut_ptr()).collect();
        // SAFETY: the `&mut` outputs are disjoint; every pointer covers
        // `len` bytes (asserted by the dispatcher).
        let n = unsafe { fused8_neon(&out_ptrs, coeffs, &src_ptrs, len) };
        for (j, out) in chunk.iter_mut().enumerate() {
            for (si, src) in srcs.iter().enumerate() {
                let c = coeffs[j * nsrc + si];
                if c == 0 {
                    continue;
                }
                let row = bulk::mul_row(c);
                for (d, &s) in out[n..].iter_mut().zip(&src[n..]) {
                    *d ^= row[s as usize];
                }
            }
        }
    }
}

// ---- dot product (vmull_p8) -----------------------------------------------

/// Horizontal XOR of eight 16-bit lanes. Safe: the only memory touched
/// is a local array.
#[inline]
#[target_feature(enable = "neon")]
fn xor_across_u16(v: uint16x8_t) -> u16 {
    let mut lanes = [0u16; 8];
    // SAFETY: `lanes` is a live local [u16; 8] — exactly the 16 bytes
    // `vst1q_u16` writes.
    unsafe { vst1q_u16(lanes.as_mut_ptr(), v) };
    lanes.iter().fold(0, |a, &b| a ^ b)
}

/// GF(2⁸) dot core: 8 unreduced carry-less lane products per
/// `vmull_p8`, XOR-accumulated; returns the unreduced 15-bit
/// accumulator and bytes consumed.
///
/// # Safety
///
/// `a` and `b` must each be valid for `len` bytes.
#[target_feature(enable = "neon")]
unsafe fn dot8_neon(a: *const u8, b: *const u8, len: usize) -> (u32, usize) {
    // SAFETY: per the fn contract, offsets stay `< len` and the loads
    // are unaligned ops.
    unsafe {
        let mut acc = vdupq_n_u16(0);
        let n = len / 16 * 16;
        let mut i = 0usize;
        while i < n {
            let va = vld1q_u8(a.add(i));
            let vb = vld1q_u8(b.add(i));
            let p_lo = vmull_p8(
                vreinterpret_p8_u8(vget_low_u8(va)),
                vreinterpret_p8_u8(vget_low_u8(vb)),
            );
            let p_hi = vmull_p8(
                vreinterpret_p8_u8(vget_high_u8(va)),
                vreinterpret_p8_u8(vget_high_u8(vb)),
            );
            acc = veorq_u16(acc, vreinterpretq_u16_p16(p_lo));
            acc = veorq_u16(acc, vreinterpretq_u16_p16(p_hi));
            i += 16;
        }
        (xor_across_u16(acc) as u32, n)
    }
}

/// Dot product `Σ a[i]·b[i]` over GF(2⁸). Always available on NEON.
pub(crate) fn dot8(a: &[u8], b: &[u8]) -> Option<u8> {
    debug_assert_eq!(a.len(), b.len());
    // SAFETY: NEON is baseline; pointers cover `len` bytes.
    let (un, n) = unsafe { dot8_neon(a.as_ptr(), b.as_ptr(), a.len()) };
    let mut acc = tables::reduce15(un);
    for (&x, &y) in a[n..].iter().zip(&b[n..]) {
        acc ^= bulk::mul_row(x)[y as usize];
    }
    Some(acc)
}
