//! Executable transforms for the functional loader.
//!
//! These operate on real byte buffers so that the multi-threaded CoorDL
//! implementation can be tested end to end: decode expands the raw buffer by
//! the dataset's decoded multiplier, the random crop/flip/jitter stages
//! consume per-(epoch, item) randomness, and the output embeds enough
//! provenance (item id, epoch, augmentation seed) for tests to verify the
//! exactly-once and fresh-randomness invariants that coordinated prep must
//! preserve.
//!
//! The pipeline runs as one kernel, [`ExecutablePipeline::prepare_into`]:
//! a decode followed by a crop decodes only the crop window straight from
//! the raw bytes, every other transform rewrites the output buffer in
//! place, and the output buffer is supplied by the caller, so a loader that
//! recycles buffers prepares without allocating.  The
//! result is bit-identical to applying the transforms one at a time, each
//! into a new buffer; the root `tests/prep_kernel_equivalence.rs` pins that
//! against the transform-at-a-time chain.

use crate::transforms::{PrepPipeline, TransformKind};
use dataset::ItemId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A fully pre-processed sample ready for "GPU" consumption.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedSample {
    /// The item this sample was prepared from.
    pub item: ItemId,
    /// Epoch during which it was prepared (augmentations differ per epoch).
    pub epoch: u64,
    /// The augmentation seed actually used (for reproducibility assertions).
    pub augmentation_seed: u64,
    /// The prepared payload.
    pub data: Vec<u8>,
}

/// An executable pre-processing pipeline.
#[derive(Debug, Clone)]
pub struct ExecutablePipeline {
    pipeline: PrepPipeline,
    /// Decoded size multiplier (prepared items are 5–7× larger than raw).
    decoded_multiplier: usize,
    /// Base seed combined with `(epoch, item)` for augmentation randomness.
    seed: u64,
}

impl ExecutablePipeline {
    /// Wrap `pipeline` with a decode multiplier and augmentation seed.
    pub fn new(pipeline: PrepPipeline, decoded_multiplier: usize, seed: u64) -> Self {
        assert!(decoded_multiplier >= 1);
        ExecutablePipeline {
            pipeline,
            decoded_multiplier,
            seed,
        }
    }

    /// The declarative pipeline description.
    pub fn pipeline(&self) -> &PrepPipeline {
        &self.pipeline
    }

    /// The augmentation seed for `(epoch, item)` — deterministic, so two jobs
    /// preparing the same item in the same epoch produce identical samples,
    /// while different epochs produce different augmentations.
    pub fn augmentation_seed(&self, epoch: u64, item: ItemId) -> u64 {
        self.seed
            ^ epoch.wrapping_mul(0xA076_1D64_78BD_642F)
            ^ item.wrapping_mul(0xE703_7ED1_A0B4_28DB)
    }

    /// Pre-process one raw item into a freshly allocated buffer.
    ///
    /// Equivalent to [`prepare_into`](Self::prepare_into) with an empty
    /// `Vec`; there is one implementation.
    pub fn prepare(&self, epoch: u64, item: ItemId, raw: &[u8]) -> PreparedSample {
        self.prepare_into(epoch, item, raw, Vec::new())
    }

    /// Pre-process one raw item, writing the payload into `buf`.
    ///
    /// `buf` is overwritten whatever it held before; only its allocation is
    /// reused, so a caller that recycles payload buffers (the `coordl`
    /// executor's per-epoch pool) pays for no allocation once a buffer is
    /// large enough.  The buffer is first fitted to the longest payload the
    /// kernel will write into it: a larger one gives its excess back (a
    /// cheap in-place shrink), so a recycled buffer holds no more memory
    /// than the payload it carries.  The output is bit-identical to
    /// applying the pipeline's transforms one after another, each into a
    /// new buffer:
    ///
    /// * a decode directly followed by a crop draws the crop window first
    ///   (decode draws no randomness, so the draw order is unchanged) and
    ///   then decodes only that window straight from `raw` — byte `k` of
    ///   the window is `raw[(start + k) % n] + (start + k) / n` for a raw
    ///   length `n` — instead of expanding the whole item and copying the
    ///   window out (the region-of-interest decode behind DALI's fused
    ///   decode-and-random-crop);
    /// * every other transform rewrites the buffer in place.
    pub fn prepare_into(
        &self,
        epoch: u64,
        item: ItemId,
        raw: &[u8],
        mut buf: Vec<u8>,
    ) -> PreparedSample {
        let aug_seed = self.augmentation_seed(epoch, item);
        let mut rng = SmallRng::seed_from_u64(aug_seed);
        buf.clear();
        let mut rest = self.pipeline.transforms.as_slice();
        // A decode followed by a crop reads `raw` directly, so the input is
        // never expanded just to be cut down; anything else starts from a
        // copy of `raw`.
        match rest {
            [decode, crop, ..] if is_decode(*decode) && is_crop(*crop) => {
                let (start, keep) = crop_window(raw.len() * self.decoded_multiplier, &mut rng);
                fit_capacity(&mut buf, keep);
                decode_window(raw, start, keep, &mut buf);
                rest = &rest[2..];
            }
            _ => {
                // Leave room for a later in-place decode's expansion.
                let grows = rest.iter().any(|&t| is_decode(t));
                let mult = if grows { self.decoded_multiplier } else { 1 };
                fit_capacity(&mut buf, raw.len() * mult);
                buf.extend_from_slice(raw);
            }
        }
        for &t in rest {
            self.apply_in_place(t, &mut buf, &mut rng);
        }
        PreparedSample {
            item,
            epoch,
            augmentation_seed: aug_seed,
            data: buf,
        }
    }

    /// Apply one transform to `data` in place, drawing from `rng` exactly
    /// as the transform's definition does.
    fn apply_in_place(&self, t: TransformKind, data: &mut Vec<u8>, rng: &mut SmallRng) {
        match t {
            TransformKind::DecodeImage | TransformKind::DecodeAudio => {
                // "Decode": expand the buffer by the decoded multiplier with a
                // cheap byte-mixing expansion (stand-in for entropy decode):
                // repetition `rep` of the input is shifted by `rep`.
                let n = data.len();
                data.resize(n * self.decoded_multiplier, 0);
                let (input, reps) = data.split_at_mut(n);
                for (rep, out) in reps.chunks_exact_mut(n.max(1)).enumerate() {
                    let shift = (rep + 1) as u8;
                    for (o, &b) in out.iter_mut().zip(input.iter()) {
                        *o = b.wrapping_add(shift);
                    }
                }
            }
            TransformKind::RandomResizedCrop | TransformKind::SsdCropWithBoxes => {
                let (start, keep) = crop_window(data.len(), rng);
                data.copy_within(start..start + keep, 0);
                data.truncate(keep);
            }
            TransformKind::RandomFlip => {
                if rng.gen_bool(0.5) {
                    data.reverse();
                }
            }
            TransformKind::ColorJitter | TransformKind::AudioAugment => {
                let delta: u8 = rng.gen();
                for b in data.iter_mut() {
                    *b = b.wrapping_add(delta);
                }
            }
            TransformKind::ResampleAudio => {
                // Drop every 4th byte (down-sample) — deterministic.
                let mut kept = 0;
                for i in 0..data.len() {
                    if i % 4 != 3 {
                        data[kept] = data[i];
                        kept += 1;
                    }
                }
                data.truncate(kept);
            }
            TransformKind::Tokenize => {
                // "Tokenise": fold each 4-byte window into one subword id —
                // deterministic, like a real tokeniser.  Token `j` is written
                // to index `j <= 4j`, after its window has been read.
                let tokens = data.len().div_ceil(4);
                for j in 0..tokens {
                    let window = &data[4 * j..(4 * j + 4).min(data.len())];
                    data[j] = window
                        .iter()
                        .fold(0u8, |acc, &b| acc.wrapping_mul(31).wrapping_add(b));
                }
                data.truncate(tokens);
            }
            TransformKind::MaskTokens => {
                // BERT-style MLM masking: replace ~15 % of tokens with a mask
                // marker, re-drawn every epoch.
                for b in data.iter_mut() {
                    if rng.gen_bool(0.15) {
                        *b = 0xFF;
                    }
                }
            }
            TransformKind::NormalizeToTensor => {
                // Byte-wise "normalisation": subtract the running mean.
                if data.is_empty() {
                    return;
                }
                let mean = (byte_sum(data) / data.len() as u64) as u8;
                for b in data.iter_mut() {
                    *b = b.wrapping_sub(mean);
                }
            }
        }
    }
}

fn is_decode(t: TransformKind) -> bool {
    matches!(t, TransformKind::DecodeImage | TransformKind::DecodeAudio)
}

fn is_crop(t: TransformKind) -> bool {
    matches!(
        t,
        TransformKind::RandomResizedCrop | TransformKind::SsdCropWithBoxes
    )
}

/// Draw a random contiguous 50–100 % window `(start, keep)` of a `len`-byte
/// buffer (never empty).  An empty buffer draws nothing and keeps nothing.
fn crop_window(len: usize, rng: &mut SmallRng) -> (usize, usize) {
    if len == 0 {
        return (0, 0);
    }
    let keep = rng.gen_range(len / 2..=len).max(1);
    let start = rng.gen_range(0..=len - keep);
    (start, keep)
}

/// Give the empty `buf` a capacity of exactly `len` bytes.  A buffer that
/// is too small is replaced, so its stale bytes are never copied; one that
/// is too large hands the excess back to the allocator, so a recycled
/// buffer does not keep the capacity of an earlier, larger payload.
fn fit_capacity(buf: &mut Vec<u8>, len: usize) {
    if buf.capacity() < len {
        *buf = Vec::with_capacity(len);
    } else {
        buf.shrink_to(len);
    }
}

/// Append bytes `start..start + keep` of `raw`'s decoded expansion to `out`:
/// decoded byte `p` is `raw[p % n]` shifted by its repetition `p / n`.  The
/// window is written one repetition segment at a time, so each segment is a
/// straight shifted copy of a slice of `raw`.
fn decode_window(raw: &[u8], start: usize, keep: usize, out: &mut Vec<u8>) {
    let n = raw.len();
    let (mut pos, end) = (start, start + keep);
    while pos < end {
        let (rep, offset) = (pos / n, pos % n);
        let take = (n - offset).min(end - pos);
        let shift = rep as u8;
        out.extend(
            raw[offset..offset + take]
                .iter()
                .map(|b| b.wrapping_add(shift)),
        );
        pos += take;
    }
}

/// Sum of `data`'s bytes.  Each 256-byte chunk is summed in a `u16`
/// accumulator (255 × 256 cannot overflow it), which the compiler
/// vectorises over wide lanes; the chunk sums are exact, so the total equals
/// a plain `u64` sum bit for bit.
fn byte_sum(data: &[u8]) -> u64 {
    data.chunks(256)
        .map(|chunk| chunk.iter().map(|&b| b as u16).sum::<u16>() as u64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pipeline() -> ExecutablePipeline {
        ExecutablePipeline::new(PrepPipeline::image_classification(), 6, 42)
    }

    #[test]
    fn prepare_is_deterministic_for_same_epoch_and_item() {
        let p = pipeline();
        let raw = vec![1u8, 2, 3, 4, 5, 6, 7, 8];
        let a = p.prepare(3, 10, &raw);
        let b = p.prepare(3, 10, &raw);
        assert_eq!(a, b);
    }

    #[test]
    fn different_epochs_produce_different_augmentations() {
        let p = pipeline();
        let raw: Vec<u8> = (0..=255).collect();
        let a = p.prepare(0, 5, &raw);
        let b = p.prepare(1, 5, &raw);
        assert_ne!(
            a.data, b.data,
            "random transforms must be re-drawn every epoch"
        );
        assert_ne!(a.augmentation_seed, b.augmentation_seed);
    }

    #[test]
    fn decode_expands_by_multiplier() {
        let p = ExecutablePipeline::new(
            PrepPipeline {
                name: "decode-only".into(),
                transforms: vec![TransformKind::DecodeImage],
            },
            6,
            0,
        );
        let raw = vec![9u8; 100];
        let out = p.prepare(0, 0, &raw);
        assert_eq!(out.data.len(), 600);
    }

    #[test]
    fn crop_keeps_between_half_and_all() {
        let p = ExecutablePipeline::new(
            PrepPipeline {
                name: "crop-only".into(),
                transforms: vec![TransformKind::RandomResizedCrop],
            },
            1,
            7,
        );
        let raw: Vec<u8> = (0..100).collect();
        for epoch in 0..20 {
            let out = p.prepare(epoch, 1, &raw);
            assert!(out.data.len() >= 50 && out.data.len() <= 100);
        }
    }

    #[test]
    fn prepared_sample_carries_provenance() {
        let p = pipeline();
        let s = p.prepare(2, 77, &[1, 2, 3, 4]);
        assert_eq!(s.item, 77);
        assert_eq!(s.epoch, 2);
        assert_eq!(s.augmentation_seed, p.augmentation_seed(2, 77));
    }

    #[test]
    fn audio_pipeline_runs() {
        let p = ExecutablePipeline::new(PrepPipeline::audio_classification(), 5, 1);
        let raw = vec![7u8; 64];
        let out = p.prepare(0, 0, &raw);
        assert!(!out.data.is_empty());
    }

    #[test]
    fn two_pipelines_with_same_seed_agree_across_jobs() {
        // Coordinated prep relies on this: whichever job prepares the item,
        // the result is the same as long as the (epoch, item) seed matches.
        let a = pipeline();
        let b = pipeline();
        let raw: Vec<u8> = (0..64).collect();
        assert_eq!(a.prepare(4, 9, &raw), b.prepare(4, 9, &raw));
    }

    #[test]
    fn a_recycled_buffer_is_fitted_to_its_payload() {
        // Too large or too small, a recycled buffer leaves `prepare_into`
        // holding exactly its payload, so recycling never keeps the
        // capacity of an earlier, larger payload alive.
        let raw: Vec<u8> = (0..64).collect();
        let identity = PrepPipeline {
            name: "identity".to_string(),
            transforms: vec![],
        };
        for p in [pipeline(), ExecutablePipeline::new(identity, 6, 42)] {
            for capacity in [0, 8, 4096] {
                let out = p.prepare_into(2, 7, &raw, Vec::with_capacity(capacity));
                assert_eq!(out.data.capacity(), out.data.len());
                assert_eq!(out, p.prepare(2, 7, &raw));
            }
        }
    }
}
