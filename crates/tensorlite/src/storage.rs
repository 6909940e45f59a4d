//! Compact bf16 storage for weight and gradient buffers.
//!
//! The compute kernels stay f32 (accumulation in full precision, exactly
//! like the paper's Grace-side optimizer and SSDTrain's offloaded
//! activation traffic); what bf16 buys is *storage and transfer traffic*:
//! a parameter or gradient held as bf16 is 2 bytes instead of 4, halving
//! the bandwidth every read/modify/write of model state costs. The
//! training stack opts in via the `TrainerBuilder` storage knob; a run's
//! [`crate::Recorder`] is made with the same precision, so its ledger
//! counts 2 bytes per element and the roofline's arithmetic-intensity
//! denominators reflect the thinner traffic.
//!
//! The storage discipline is round-trip quantization at well-defined
//! boundaries (gradients as they enter the optimizer, parameters as an
//! optimizer step commits) rather than a bf16 arithmetic type threaded
//! through the kernels: every arithmetic op still sees f32 inputs, so the
//! kernel-level bit-identity guarantees (serial vs parallel, sync vs STV)
//! are untouched — both sides of any comparison quantize identically.

use crate::cast;
use crate::f16::Bf16;

/// A dense buffer of bf16 values with f32 encode/decode endpoints — the
/// storage form of a weight or gradient shard.
///
/// ```
/// use tensorlite::storage::Bf16Vec;
/// let v = Bf16Vec::from_f32(&[1.0, 0.333, -2.5]);
/// let back = v.to_f32_vec();
/// assert_eq!(back[0], 1.0); // representable values round-trip exactly
/// assert!((back[1] - 0.333).abs() < 0.005); // 8-bit significand
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Bf16Vec {
    bits: Vec<Bf16>,
}

impl Bf16Vec {
    /// Quantizes an f32 slice (round-to-nearest-even per element).
    pub fn from_f32(src: &[f32]) -> Self {
        Bf16Vec {
            bits: cast::f32_to_bf16_slice(src),
        }
    }

    /// An all-zeros buffer of `n` elements.
    pub fn zeros(n: usize) -> Self {
        Bf16Vec {
            bits: vec![Bf16::ZERO; n],
        }
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// The raw bf16 elements.
    pub fn bits(&self) -> &[Bf16] {
        &self.bits
    }

    /// Decodes the whole buffer to f32 (exact — every bf16 is an f32).
    pub fn to_f32_vec(&self) -> Vec<f32> {
        cast::bf16_to_f32_slice(&self.bits)
    }

    /// Decodes `range` into a caller-provided f32 scratch slice, the
    /// tile-at-a-time access pattern of the optimizer (`dst.len()` sets the
    /// tile width).
    ///
    /// # Panics
    /// Panics if `start + dst.len()` exceeds the buffer length.
    pub fn decode_range_into(&self, start: usize, dst: &mut [f32]) {
        cast::bf16_to_f32_into(&self.bits[start..start + dst.len()], dst);
    }

    /// Re-quantizes from an f32 slice in place (no reallocation).
    ///
    /// # Panics
    /// Panics if the lengths differ.
    pub fn encode_from(&mut self, src: &[f32]) {
        cast::f32_to_bf16_into(src, &mut self.bits);
    }
}

/// Storage precision for the training stack's parameter/gradient buffers.
///
/// Selects how model state is *stored between kernels*; arithmetic is f32
/// regardless. Chosen per run by `TrainerBuilder::storage`, which also
/// gives the run's recorder its element size ([`crate::Recorder::new`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StoragePrecision {
    /// Full f32 storage (4 B/element) — the default.
    #[default]
    F32,
    /// bf16 storage with f32 accumulate (2 B/element): gradients quantize
    /// as they enter the optimizer, parameters re-quantize as each step
    /// commits.
    Bf16,
}

impl StoragePrecision {
    /// Bytes per stored element under this precision.
    pub const fn elem_bytes(self) -> u64 {
        match self {
            StoragePrecision::F32 => 4,
            StoragePrecision::Bf16 => 2,
        }
    }

    /// Stable kebab-case name (journal/config records).
    pub const fn name(self) -> &'static str {
        match self {
            StoragePrecision::F32 => "f32",
            StoragePrecision::Bf16 => "bf16",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_exact_for_representable_values() {
        let src = vec![0.0f32, 1.0, -2.0, 0.5, 256.0, -0.125];
        let v = Bf16Vec::from_f32(&src);
        assert_eq!(v.len(), 6);
        assert_eq!(v.to_f32_vec(), src);
    }

    #[test]
    fn tile_decode_matches_full_decode() {
        let src: Vec<f32> = (0..100).map(|i| (i as f32).sin()).collect();
        let v = Bf16Vec::from_f32(&src);
        let full = v.to_f32_vec();
        let mut tile = vec![0.0f32; 32];
        v.decode_range_into(40, &mut tile);
        assert_eq!(&full[40..72], &tile[..]);
    }

    #[test]
    fn encode_from_reuses_buffer() {
        let mut v = Bf16Vec::zeros(4);
        assert!(v.to_f32_vec().iter().all(|&x| x == 0.0));
        v.encode_from(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(v.to_f32_vec(), vec![1.0, 2.0, 3.0, 4.0]);
        assert!(!v.is_empty());
        assert_eq!(v.bits().len(), 4);
    }

    #[test]
    fn quantization_is_idempotent() {
        // Round-tripping twice equals round-tripping once: bf16 values are
        // exactly representable in f32, so the second pass is identity.
        let src: Vec<f32> = (0..50).map(|i| (i as f32 * 0.7).cos() * 1e3).collect();
        let once = Bf16Vec::from_f32(&src).to_f32_vec();
        let twice = Bf16Vec::from_f32(&once).to_f32_vec();
        assert_eq!(once, twice);
    }

    #[test]
    fn precision_names_and_sizes() {
        assert_eq!(StoragePrecision::F32.elem_bytes(), 4);
        assert_eq!(StoragePrecision::Bf16.elem_bytes(), 2);
        assert_eq!(StoragePrecision::F32.name(), "f32");
        assert_eq!(StoragePrecision::Bf16.name(), "bf16");
        assert_eq!(StoragePrecision::default(), StoragePrecision::F32);
    }
}
