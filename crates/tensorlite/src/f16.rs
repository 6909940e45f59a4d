//! Software half-precision floats.
//!
//! Implemented at the bit level (no external `half` dependency) with IEEE 754
//! round-to-nearest-even semantics for `f32 → f16`, so that mixed-precision
//! overflow/underflow behaviour in the training stack is faithful: gradients
//! exceeding ±65504 become infinities, which the validation pass (§4.4 of the
//! paper) must detect.

use std::fmt;

/// IEEE 754 binary16 value.
///
/// ```
/// use tensorlite::F16;
/// assert_eq!(F16::from_f32(1.0).to_f32(), 1.0);
/// assert!(F16::from_f32(1e6).is_infinite()); // overflows f16 range
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct F16(u16);

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0);
    /// One.
    pub const ONE: F16 = F16(0x3C00);
    /// Largest finite value (65504).
    pub const MAX: F16 = F16(0x7BFF);
    /// Positive infinity.
    pub const INFINITY: F16 = F16(0x7C00);
    /// A quiet NaN.
    pub const NAN: F16 = F16(0x7E00);

    /// Creates a value from raw bits.
    pub const fn from_bits(bits: u16) -> Self {
        F16(bits)
    }

    /// Returns the raw bit pattern.
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Converts from `f32` with round-to-nearest-even.
    pub fn from_f32(value: f32) -> Self {
        F16(f32_to_f16_bits(value))
    }

    /// Converts to `f32` exactly (every f16 is representable in f32).
    pub fn to_f32(self) -> f32 {
        f16_bits_to_f32(self.0)
    }

    /// Whether the value is NaN.
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7C00) == 0x7C00 && (self.0 & 0x03FF) != 0
    }

    /// Whether the value is ±∞.
    pub fn is_infinite(self) -> bool {
        (self.0 & 0x7FFF) == 0x7C00
    }

    /// Whether the value is finite (neither NaN nor ±∞).
    pub fn is_finite(self) -> bool {
        (self.0 & 0x7C00) != 0x7C00
    }

    /// Whether the value is subnormal (non-zero with zero exponent).
    pub fn is_subnormal(self) -> bool {
        (self.0 & 0x7C00) == 0 && (self.0 & 0x03FF) != 0
    }
}

impl From<F16> for f32 {
    fn from(h: F16) -> f32 {
        h.to_f32()
    }
}

impl fmt::Display for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

/// bfloat16 value (truncated-mantissa f32 with round-to-nearest-even).
///
/// Included because the adaptive-precision discussion in the paper applies
/// equally to bf16 pipelines; the reproduction's mixed-precision engine can
/// run in either format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Bf16(u16);

impl Bf16 {
    /// Positive zero.
    pub const ZERO: Bf16 = Bf16(0);
    /// One.
    pub const ONE: Bf16 = Bf16(0x3F80);

    /// Creates a value from raw bits.
    pub const fn from_bits(bits: u16) -> Self {
        Bf16(bits)
    }

    /// Returns the raw bit pattern.
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Converts from `f32` with round-to-nearest-even on the dropped 16 bits.
    pub fn from_f32(value: f32) -> Self {
        let bits = value.to_bits();
        if value.is_nan() {
            // Preserve NaN, force a quiet mantissa bit.
            return Bf16(((bits >> 16) as u16) | 0x0040);
        }
        let round_bit = 0x0000_8000u32;
        let lower = bits & 0x0000_FFFF;
        let mut upper = bits >> 16;
        // Round to nearest, ties to even.
        if lower > round_bit || (lower == round_bit && (upper & 1) == 1) {
            upper += 1;
        }
        Bf16(upper as u16)
    }

    /// Converts to `f32` exactly.
    pub fn to_f32(self) -> f32 {
        f32::from_bits((self.0 as u32) << 16)
    }

    /// Whether the value is NaN.
    pub fn is_nan(self) -> bool {
        self.to_f32().is_nan()
    }

    /// Whether the value is finite.
    pub fn is_finite(self) -> bool {
        self.to_f32().is_finite()
    }
}

impl From<Bf16> for f32 {
    fn from(h: Bf16) -> f32 {
        h.to_f32()
    }
}

impl fmt::Display for Bf16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

/// Converts an `f32` bit pattern to `f16` bits, round-to-nearest-even.
pub fn f32_to_f16_bits(value: f32) -> u16 {
    let bits = value.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xFF) as i32;
    let frac = bits & 0x007F_FFFF;

    if exp == 0xFF {
        // Inf or NaN.
        return if frac != 0 {
            sign | 0x7E00 // quiet NaN
        } else {
            sign | 0x7C00
        };
    }

    // Re-bias exponent: f32 bias 127 -> f16 bias 15.
    let unbiased = exp - 127;
    let new_exp = unbiased + 15;

    if new_exp >= 0x1F {
        // Overflow to infinity.
        return sign | 0x7C00;
    }

    if new_exp <= 0 {
        // Subnormal or zero.
        if new_exp < -10 {
            return sign; // too small: flush to zero
        }
        // Add the implicit leading one, then shift into subnormal position.
        let mant = frac | 0x0080_0000;
        let shift = (14 - new_exp) as u32;
        let sub = mant >> shift;
        // Round-to-nearest-even on the dropped bits.
        let round_mask = 1u32 << (shift - 1);
        let dropped = mant & ((1 << shift) - 1);
        let mut out = sub as u16;
        if dropped > round_mask || (dropped == round_mask && (out & 1) == 1) {
            out += 1;
        }
        return sign | out;
    }

    // Normal case: keep top 10 fraction bits with RNE.
    let mut out = (sign as u32) | ((new_exp as u32) << 10) | (frac >> 13);
    let dropped = frac & 0x1FFF;
    if dropped > 0x1000 || (dropped == 0x1000 && (out & 1) == 1) {
        out += 1; // may carry into exponent, which correctly rounds up
    }
    out as u16
}

/// `F16::from_f32(x).to_f32()`, bit for bit, without leaving `f32`: the
/// numeric effect of a trip through binary16, which the wire format
/// applies to every gradient element each step.
///
/// Each range is one rounding of `|x|`, chosen by selects, so a loop over
/// it vectorizes where the bit-level conversions branch per element:
///
/// - below f16's smallest normal, 2^-14, `(|x| + 0.5) - 0.5` rounds to a
///   multiple of 2^-24 (the f32 spacing in [0.5, 1)), ties to even — the
///   f16 subnormal grid, flushing `|x| <= 2^-25` to zero;
/// - up to 65520, the f32 bits round to 10 fraction bits, ties to even,
///   letting the carry ripple into the exponent as in [`f32_to_f16_bits`];
/// - from 65520 on, ±∞, and NaN becomes the quiet NaN of the same sign.
///
/// The sign is put back last, so `-0.0` and negative values that flush
/// keep it. Every `f32` input is checked against the bit-level path by an
/// exhaustive test.
#[inline]
pub fn f16_roundtrip(x: f32) -> f32 {
    let bits = x.to_bits();
    let abs = bits & 0x7FFF_FFFF;
    let subnormal = (f32::from_bits(abs) + 0.5 - 0.5).to_bits();
    let normal = (abs + 0x0FFF + ((abs >> 13) & 1)) & !0x1FFF;
    let special = if abs > 0x7F80_0000 {
        0x7FC0_0000
    } else {
        0x7F80_0000
    };
    let rounded = if abs < 0x3880_0000 {
        subnormal
    } else if abs < 0x477F_F000 {
        normal
    } else {
        special
    };
    f32::from_bits((bits & 0x8000_0000) | rounded)
}

/// Converts `f16` bits to an `f32` value, exactly.
pub fn f16_bits_to_f32(bits: u16) -> f32 {
    let sign = ((bits & 0x8000) as u32) << 16;
    let exp = ((bits >> 10) & 0x1F) as u32;
    let frac = (bits & 0x03FF) as u32;

    let out = if exp == 0 {
        if frac == 0 {
            sign // ±0
        } else {
            // Subnormal: normalize. frac * 2^-24 == 1.m * 2^(113 - 127 - s)
            // where s is the left-shift count that brings bit 10 up.
            let mut s = 0u32;
            let mut f = frac;
            while f & 0x0400 == 0 {
                f <<= 1;
                s += 1;
            }
            f &= 0x03FF;
            sign | ((113 - s) << 23) | (f << 13)
        }
    } else if exp == 0x1F {
        if frac == 0 {
            sign | 0x7F80_0000 // ±inf
        } else {
            sign | 0x7FC0_0000 | (frac << 13) // NaN
        }
    } else {
        sign | ((exp + 127 - 15) << 23) | (frac << 13)
    };
    f32::from_bits(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math::exhaustive::exhaustive_mismatches;

    fn bit_level_roundtrip(x: f32) -> f32 {
        F16::from_f32(x).to_f32()
    }

    #[test]
    fn f16_roundtrip_matches_the_bit_level_path_at_range_edges_and_on_a_sweep() {
        // Each range boundary and one f32 ulp either side: zero, f32
        // subnormals, the flush-to-zero tie 2^-25, f16's subnormal quantum
        // 2^-24, its smallest normal 2^-14, the overflow tie 65520, 65536,
        // ∞ and NaN payloads.
        let edges = [
            0x0000_0000u32,
            0x0000_0001,
            0x007F_FFFF,
            0x0080_0000,
            0x3300_0000,
            0x3380_0000,
            0x3800_0000,
            0x387F_E000,
            0x387F_F000,
            0x3880_0000,
            0x3F80_1000,
            0x3F80_3000,
            0x477F_E000,
            0x477F_EFFF,
            0x477F_F000,
            0x4780_0000,
            0x7F7F_FFFF,
            0x7F80_0000,
            0x7F80_0001,
            0x7FC0_0000,
            0x7FFF_FFFF,
        ];
        let edge_inputs = edges
            .iter()
            .flat_map(|&e| [e.wrapping_sub(1), e, e + 1])
            .flat_map(|b| [b, b | 0x8000_0000]);
        // Plus every 4093rd bit pattern (a prime stride, so every residue
        // of the dropped bits shows up).
        for bits in edge_inputs.chain((0..=u32::MAX).step_by(4093)) {
            let x = f32::from_bits(bits);
            assert_eq!(
                f16_roundtrip(x).to_bits(),
                bit_level_roundtrip(x).to_bits(),
                "input {bits:#010x}"
            );
        }
    }

    /// Every `f32` input against the bit-level conversions. Slow (tens of
    /// seconds per thread in release); run with `cargo test --release -p
    /// tensorlite --lib f16 -- --ignored`.
    #[test]
    #[ignore]
    fn f16_roundtrip_matches_the_bit_level_path_on_every_input() {
        assert_eq!(
            exhaustive_mismatches(f16_roundtrip, bit_level_roundtrip),
            (0, None)
        );
    }

    #[test]
    fn exact_small_integers_roundtrip() {
        for i in -2048..=2048 {
            let x = i as f32;
            assert_eq!(F16::from_f32(x).to_f32(), x, "failed for {x}");
        }
    }

    #[test]
    fn known_bit_patterns() {
        assert_eq!(F16::from_f32(1.0).to_bits(), 0x3C00);
        assert_eq!(F16::from_f32(-2.0).to_bits(), 0xC000);
        assert_eq!(F16::from_f32(65504.0).to_bits(), 0x7BFF);
        assert_eq!(F16::from_f32(0.5).to_bits(), 0x3800);
        assert_eq!(F16::from_f32(0.0).to_bits(), 0x0000);
        assert_eq!(F16::from_f32(-0.0).to_bits(), 0x8000);
    }

    #[test]
    fn overflow_becomes_infinity() {
        assert!(F16::from_f32(65520.0).is_infinite());
        assert!(F16::from_f32(1e10).is_infinite());
        assert!(F16::from_f32(-1e10).is_infinite());
        assert_eq!(F16::from_f32(-1e10).to_f32(), f32::NEG_INFINITY);
    }

    #[test]
    fn max_finite_preserved() {
        // 65504 is the largest finite f16.
        assert_eq!(F16::from_f32(65504.0).to_f32(), 65504.0);
        assert!(F16::from_f32(65504.0).is_finite());
    }

    #[test]
    fn nan_propagates() {
        assert!(F16::from_f32(f32::NAN).is_nan());
        assert!(F16::from_f32(f32::NAN).to_f32().is_nan());
        assert!(!F16::from_f32(f32::NAN).is_infinite());
    }

    #[test]
    fn subnormals_roundtrip() {
        // Smallest positive subnormal f16 = 2^-24.
        let tiny = 2.0f32.powi(-24);
        let h = F16::from_f32(tiny);
        assert!(h.is_subnormal());
        assert_eq!(h.to_f32(), tiny);
        // Below half of that flushes to zero.
        assert_eq!(F16::from_f32(tiny / 4.0).to_bits(), 0);
    }

    #[test]
    fn round_to_nearest_even() {
        // 1.0 + 2^-11 is exactly between 1.0 and the next f16 (1.0 + 2^-10):
        // must round to even mantissa, i.e. 1.0.
        let x = 1.0 + 2.0f32.powi(-11);
        assert_eq!(F16::from_f32(x).to_f32(), 1.0);
        // 1.0 + 3*2^-11 is between (1+2^-10) and (1+2^-9): ties to even
        // rounds up to 1.0 + 2^-9 ... actually it's a tie against the odd
        // mantissa 1, so it rounds up to mantissa 2.
        let y = 1.0 + 3.0 * 2.0f32.powi(-11);
        assert_eq!(F16::from_f32(y).to_f32(), 1.0 + 2.0f32.powi(-9));
    }

    #[test]
    fn all_f16_bit_patterns_roundtrip_through_f32() {
        for bits in 0u16..=u16::MAX {
            let h = F16::from_bits(bits);
            let f = h.to_f32();
            let back = F16::from_f32(f);
            if h.is_nan() {
                assert!(back.is_nan());
            } else {
                assert_eq!(
                    back.to_bits(),
                    bits,
                    "bits {bits:#06x} ({f}) did not roundtrip"
                );
            }
        }
    }

    #[test]
    fn precision_within_one_ulp() {
        let vals = [0.1f32, 0.333, std::f32::consts::PI, 100.7, 1e-3, 1234.5];
        for &v in &vals {
            let err = (F16::from_f32(v).to_f32() - v).abs() / v.abs();
            assert!(err < 1e-3, "relative error {err} too large for {v}");
        }
    }

    #[test]
    fn bf16_roundtrip_and_rounding() {
        assert_eq!(Bf16::from_f32(1.0).to_bits(), 0x3F80);
        assert_eq!(Bf16::from_f32(1.0).to_f32(), 1.0);
        // bf16 keeps f32 range: 1e38 stays finite.
        assert!(Bf16::from_f32(1e38).is_finite());
        assert!(Bf16::from_f32(f32::NAN).is_nan());
        // RNE: 1.0 + 2^-9 is a tie between 1.0 and 1.0+2^-7... check simple monotonicity instead.
        let a = Bf16::from_f32(1.004).to_f32();
        assert!((a - 1.004).abs() < 0.01);
    }

    #[test]
    fn display_shows_value() {
        assert_eq!(F16::ONE.to_string(), "1");
        assert_eq!(Bf16::ONE.to_string(), "1");
    }

    #[test]
    fn constants_are_correct() {
        assert_eq!(F16::ZERO.to_f32(), 0.0);
        assert_eq!(F16::ONE.to_f32(), 1.0);
        assert_eq!(F16::MAX.to_f32(), 65504.0);
        assert!(F16::INFINITY.is_infinite());
        assert!(F16::NAN.is_nan());
    }
}
