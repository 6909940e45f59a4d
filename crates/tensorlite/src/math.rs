//! A bit-exact, branch-free `tanh` for the GELU kernels.
//!
//! [`tanh`] is a port of the fdlibm `tanhf` on top of the fdlibm `expm1f`
//! (the version with the polynomial terms Q1–Q5), the algorithm glibc runs
//! for `tanhf` (`sysdeps/ieee754/flt-32/s_tanhf.c` and `s_expm1f.c`). It
//! returns the same bits as that `tanhf` for every `f32` input, NaN
//! payloads included.
//!
//! The C code branches on the argument's range. Here every path is
//! computed and the result is picked with compares, so a loop that calls
//! [`tanh`] inlines it and auto-vectorizes. Each path performs the same
//! IEEE operations in the same order as its C branch, so picking a path by
//! select instead of by jump cannot change a bit (DESIGN.md §26).

/// High part of ln 2 (its trailing bits are zero, so `k * LN2_HI` is exact
/// for the `k` used here).
const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
/// Low part of ln 2: `LN2_HI + LN2_LO` is ln 2 to about 2^-43.
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
/// 1 / ln 2.
const INV_LN2: f32 = f32::from_bits(0x3fb8_aa3b);
/// Scaled coefficients of the rational approximation to `expm1` on
/// `[-0.5 ln 2, 0.5 ln 2]`.
const Q1: f32 = f32::from_bits(0xbd08_8889);
const Q2: f32 = f32::from_bits(0x3ad0_0d01);
const Q3: f32 = f32::from_bits(0xb8a6_70cd);
const Q4: f32 = f32::from_bits(0x3686_7e54);
const Q5: f32 = f32::from_bits(0xb457_edbb);

/// Truncates `v` toward zero the way C's `(int)` conversion does, exactly
/// for |v| < 2^22: adding 1.5 * 2^23 leaves the integer in the low
/// mantissa bits. Unlike the saturating `as i32`, this keeps the calling
/// loop vectorizable. Larger `v` give garbage, only ever in lanes whose
/// result is discarded.
#[inline(always)]
fn trunc_to_i32(v: f32) -> i32 {
    ((v.trunc() + 12_582_912.0).to_bits() as i32).wrapping_sub(0x4b40_0000)
}

/// Multiplies `y` by 2^k by adding `k` to its exponent field, as the C
/// code's `SET_FLOAT_WORD(y, i + (k << 23))` does.
#[inline(always)]
fn add_exponent(y: f32, k: i32) -> f32 {
    f32::from_bits((y.to_bits() as i32).wrapping_add(k << 23) as u32)
}

/// `e^x - 1`, bit for bit as fdlibm's `expm1f`.
#[inline(always)]
fn expm1(x_in: f32) -> f32 {
    let hx = x_in.to_bits() & 0x7fff_ffff;
    let neg = x_in.is_sign_negative();
    // |x| < 2^-25 returns x itself (below). Its other paths would square
    // x into subnormals, which cost a microcode assist per operation, so
    // they run on 0 instead; their results are discarded either way.
    let tiny = hx < 0x3300_0000;
    let x = if tiny { 0.0 } else { x_in };

    // Argument reduction x = k ln2 + (r - c) for |x| > 0.5 ln2: k = ±1
    // below 1.5 ln2, else k rounds x / ln2 half away from zero.
    let kf = (INV_LN2 * x + 0.5f32.copysign(x)).trunc();
    let near = hx < 0x3f85_1592;
    let hi = if near {
        x - LN2_HI.copysign(x)
    } else {
        x - kf * LN2_HI
    };
    let lo = if near {
        LN2_LO.copysign(x)
    } else {
        kf * LN2_LO
    };
    let k_near = if neg { -1 } else { 1 };
    let k_far = trunc_to_i32(kf);
    let reduced = hi - lo;
    let reduce = hx > 0x3eb1_7218;
    let r = if reduce { reduced } else { x };
    let c = if reduce { (hi - reduced) - lo } else { 0.0 };
    let k = if !reduce {
        0
    } else if near {
        k_near
    } else {
        k_far
    };

    // expm1(r) on the primary range.
    let hfx = 0.5 * r;
    let hxs = r * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e0 = hxs * ((r1 - t) / (6.0 - r * t));
    let e = (r * (e0 - c) - c) - hxs;

    // Reconstruct 2^k (1 + expm1(r)) - 1, one formula per range of k.
    let y_k0 = r - (r * e0 - hxs);
    let y_km1 = 0.5 * (r - e) - 0.5;
    let y_k1 = if r < -0.25 {
        -2.0 * (e - (r + 0.5))
    } else {
        1.0 + 2.0 * (r - e)
    };
    let y_wide = add_exponent(1.0 - (e - r), k) - 1.0;
    // 2^-k; for 2 <= k < 23, 1 - 2^-k is exact and equals the C code's
    // `0x3f800000 - (0x1000000 >> k)`.
    let two_neg_k = f32::from_bits((0x7f_i32.wrapping_sub(k) << 23) as u32);
    let y_low = add_exponent((1.0 - two_neg_k) - (e - r), k);
    let y_high = add_exponent((r - (e + two_neg_k)) + 1.0, k);
    let y = if k <= -2 || k > 56 {
        y_wide
    } else if k < 23 {
        y_low
    } else {
        y_high
    };
    let y = if k == 0 {
        y_k0
    } else if k == -1 {
        y_km1
    } else if k == 1 {
        y_k1
    } else {
        y
    };

    // |x| < 2^-25: the C code's `x - ((huge + x) - huge)` is exactly x.
    let y = if tiny { x_in } else { y };
    // x <= -27 ln2 (and -inf): `tiny - one` rounds to -1.
    let y = if neg && hx >= 0x4195_b844 { -1.0 } else { y };
    // x >= 88.72... (and +inf): overflow to +inf.
    let y = if !neg && hx >= 0x42b1_7218 {
        f32::INFINITY
    } else {
        y
    };
    if hx > 0x7f80_0000 {
        x_in + x_in
    } else {
        y
    }
}

/// Hyperbolic tangent, bit for bit as fdlibm's `tanhf` (and so as
/// `f32::tanh` on a glibc host), with no branch on the argument.
#[inline(always)]
pub(crate) fn tanh(x: f32) -> f32 {
    let ix = x.to_bits() & 0x7fff_ffff;
    let neg = x.is_sign_negative();
    let ax = x.abs();
    // |x| >= 1: tanh = 1 - 2 / (expm1(2|x|) + 2); below: -t / (t + 2) with
    // t = expm1(-2|x|).
    let big = ix >= 0x3f80_0000;
    let t = expm1(if big { 2.0 * ax } else { -2.0 * ax });
    let z_big = 1.0 - 2.0 / (t + 2.0);
    let z_small = -t / (t + 2.0);
    let z = if big { z_big } else { z_small };
    // |x| >= 22: the C code's `one - tiny` rounds to 1.
    let z = if ix >= 0x41b0_0000 { 1.0 } else { z };
    let z = if neg { -z } else { z };
    // |x| < 2^-55, zero included.
    let z = if ix < 0x2400_0000 { x * (1.0 + x) } else { z };
    // ±inf gives ±1; NaN propagates through the division.
    let inv = 1.0 / x;
    let special = if neg { inv - 1.0 } else { inv + 1.0 };
    if ix >= 0x7f80_0000 {
        special
    } else {
        z
    }
}

/// Test support shared by the exhaustive `#[ignore]`d tests of this module
/// and of [`crate::f16`].
#[cfg(test)]
pub(crate) mod exhaustive {
    use crate::pool::Pool;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Counts the `f32` inputs (all 2^32 bit patterns) where `port` and
    /// `host` differ in any bit, split over the calling thread's pool, and
    /// returns the count and the smallest mismatching input. `port` runs
    /// over blocks of consecutive inputs, so it inlines and vectorizes as
    /// in the GELU loops.
    pub(crate) fn exhaustive_mismatches(
        port: impl Fn(f32) -> f32 + Sync,
        host: fn(f32) -> f32,
    ) -> (u64, Option<u32>) {
        const PARTS: u64 = 64;
        const BLOCK: u64 = 4096;
        let span = (1u64 << 32) / PARTS;
        let count = AtomicU64::new(0);
        let first = AtomicU64::new(u64::MAX);
        Pool::current().run_parts((0..PARTS).collect(), |_, part| {
            let (mut xs, mut ys) = (vec![0.0f32; BLOCK as usize], vec![0.0f32; BLOCK as usize]);
            for start in (part * span..(part + 1) * span).step_by(BLOCK as usize) {
                for (x, bits) in xs.iter_mut().zip(start..) {
                    *x = f32::from_bits(bits as u32);
                }
                for (y, &x) in ys.iter_mut().zip(&xs) {
                    *y = port(x);
                }
                for (bits, (&x, &y)) in (start..).zip(xs.iter().zip(&ys)) {
                    if y.to_bits() != host(x).to_bits() {
                        count.fetch_add(1, Ordering::Relaxed);
                        first.fetch_min(bits, Ordering::Relaxed);
                    }
                }
            }
        });
        let first = first.into_inner();
        (count.into_inner(), u32::try_from(first).ok())
    }
}

#[cfg(test)]
mod tests {
    use super::exhaustive::exhaustive_mismatches;
    use super::*;

    /// `(input, tanh(input))` bit pairs at the branch boundaries, recorded
    /// from glibc 2.36's `tanhf` on x86-64: ±0 and the smallest subnormal;
    /// |x| = 2^-55, 1 and 22 (the tanh ranges) ±1 ulp; the |x| whose
    /// expm1 argument 2|x| is 0.5 ln2, 1.5 ln2, 2^-25 and 27 ln2 (the
    /// expm1 ranges) ±1 ulp, each with both signs; ±inf; quiet and
    /// signalling NaNs with payloads (x86-64 keeps the payload and sets the
    /// quiet bit).
    const BOUNDARY: [(u32, u32); 52] = [
        (0x0000_0000, 0x0000_0000),
        (0x8000_0000, 0x8000_0000),
        (0x0000_0001, 0x0000_0001),
        (0x8000_0001, 0x8000_0001),
        (0x23ff_ffff, 0x23ff_ffff),
        (0xa3ff_ffff, 0xa3ff_ffff),
        (0x2400_0000, 0x2400_0000),
        (0xa400_0000, 0xa400_0000),
        (0x2400_0001, 0x2400_0001),
        (0xa400_0001, 0xa400_0001),
        (0x3f7f_ffff, 0x3f42_f7d5),
        (0xbf7f_ffff, 0xbf42_f7d5),
        (0x3f80_0000, 0x3f42_f7d6),
        (0xbf80_0000, 0xbf42_f7d6),
        (0x3f80_0001, 0x3f42_f7d6),
        (0xbf80_0001, 0xbf42_f7d6),
        (0x41af_ffff, 0x3f80_0000),
        (0xc1af_ffff, 0xbf80_0000),
        (0x41b0_0000, 0x3f80_0000),
        (0xc1b0_0000, 0xbf80_0000),
        (0x41b0_0001, 0x3f80_0000),
        (0xc1b0_0001, 0xbf80_0000),
        (0x3e31_7217, 0x3e2f_b0cc),
        (0xbe31_7217, 0xbe2f_b0cc),
        (0x3e31_7218, 0x3e2f_b0cd),
        (0xbe31_7218, 0xbe2f_b0cd),
        (0x3e31_7219, 0x3e2f_b0cd),
        (0xbe31_7219, 0xbe2f_b0cd),
        (0x3f05_1591, 0x3ef4_86f8),
        (0xbf05_1591, 0xbef4_86f8),
        (0x3f05_1592, 0x3ef4_86f8),
        (0xbf05_1592, 0xbef4_86f8),
        (0x3f05_1593, 0x3ef4_86fb),
        (0xbf05_1593, 0xbef4_86fb),
        (0x327f_ffff, 0x327f_ffff),
        (0xb27f_ffff, 0xb27f_ffff),
        (0x3280_0000, 0x3280_0000),
        (0xb280_0000, 0xb280_0000),
        (0x3280_0001, 0x3280_0001),
        (0xb280_0001, 0xb280_0001),
        (0x4115_b843, 0x3f80_0000),
        (0xc115_b843, 0xbf80_0000),
        (0x4115_b844, 0x3f80_0000),
        (0xc115_b844, 0xbf80_0000),
        (0x4115_b845, 0x3f80_0000),
        (0xc115_b845, 0xbf80_0000),
        (0x7f80_0000, 0x3f80_0000),
        (0xff80_0000, 0xbf80_0000),
        (0x7fc0_0000, 0x7fc0_0000),
        (0x7fa0_0001, 0x7fe0_0001),
        (0xffc1_2345, 0xffc1_2345),
        (0xff80_0001, 0xffc0_0001),
    ];

    /// FNV-1a (64-bit) over the little-endian bytes of `words`.
    fn fnv1a(words: impl Iterator<Item = u32>) -> u64 {
        words
            .flat_map(u32::to_le_bytes)
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    /// Every 4099th bit pattern from 0: 1,047,809 inputs covering every
    /// sign, exponent and NaN class.
    fn sweep() -> impl Iterator<Item = f32> {
        (0..=u32::MAX).step_by(4099).map(f32::from_bits)
    }

    #[test]
    fn tanh_matches_recorded_boundary_bits() {
        for (x, want) in BOUNDARY {
            let got = tanh(f32::from_bits(x)).to_bits();
            assert_eq!(
                got, want,
                "tanh({x:#010x}) = {got:#010x}, want {want:#010x}"
            );
        }
    }

    /// Digests recorded from glibc 2.36's `tanhf` and `expm1f` on x86-64
    /// over [`sweep`]; they pin the port's bits without the host's libm.
    #[test]
    fn tanh_and_expm1_match_recorded_sweep_digests() {
        assert_eq!(
            fnv1a(sweep().map(|x| tanh(x).to_bits())),
            0xf9b8_c6a9_7656_4d6b
        );
        assert_eq!(
            fnv1a(sweep().map(|x| expm1(x).to_bits())),
            0x85f2_4ed7_8ef1_7a77
        );
    }

    /// Every `f32` input against the host libm's `tanhf`. Slow (tens of
    /// seconds per thread in release); run with `cargo test --release -p
    /// tensorlite --lib math -- --ignored`.
    #[test]
    #[ignore]
    fn tanh_matches_host_libm_on_every_input() {
        assert_eq!(exhaustive_mismatches(tanh, f32::tanh), (0, None));
    }

    /// Every `f32` input against the host libm's `expm1f`, including the
    /// branches `tanh` never reaches (k = 1 and 2, overflow, -inf).
    #[test]
    #[ignore]
    fn expm1_matches_host_libm_on_every_input() {
        assert_eq!(exhaustive_mismatches(expm1, f32::exp_m1), (0, None));
    }
}
