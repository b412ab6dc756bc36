//! Bit-identity of the fused, in-place prep kernel with the unfused chain.
//!
//! `ExecutablePipeline::prepare` and `prepare_into` run one kernel: a decode
//! followed by a crop decodes only the crop window straight from the raw
//! bytes, and every other transform rewrites the buffer in place.  The
//! reference below is the transform-at-a-time chain the kernel replaced,
//! kept verbatim: each transform consumes its input `Vec` and returns a new
//! one.  The properties compare the two over every preset, crop without
//! decode, decode without crop, arbitrary transform sequences, decode
//! multipliers 1..=32, raw lengths including 0 and 1, and recycled buffers
//! of arbitrary prior content and capacity.
//!
//! Runtime oracles that check delivered streams call the same `prepare`, so
//! they cannot catch a kernel bug on their own; this file can.

use datastalls::dataset::ItemId;
use datastalls::prep::{ExecutablePipeline, PrepPipeline, TransformKind};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The unfused reference: one new buffer per transform.
struct UnfusedPipeline {
    pipeline: PrepPipeline,
    decoded_multiplier: usize,
    seed: u64,
}

impl UnfusedPipeline {
    fn augmentation_seed(&self, epoch: u64, item: ItemId) -> u64 {
        self.seed
            ^ epoch.wrapping_mul(0xA076_1D64_78BD_642F)
            ^ item.wrapping_mul(0xE703_7ED1_A0B4_28DB)
    }

    fn prepare(&self, epoch: u64, item: ItemId, raw: &[u8]) -> Vec<u8> {
        let aug_seed = self.augmentation_seed(epoch, item);
        let mut rng = SmallRng::seed_from_u64(aug_seed);
        let mut data = raw.to_vec();
        for t in &self.pipeline.transforms {
            data = self.apply(*t, data, &mut rng);
        }
        data
    }

    fn apply(&self, t: TransformKind, input: Vec<u8>, rng: &mut SmallRng) -> Vec<u8> {
        match t {
            TransformKind::DecodeImage | TransformKind::DecodeAudio => {
                // "Decode": expand the buffer by the decoded multiplier with a
                // cheap byte-mixing expansion (stand-in for entropy decode).
                let mut out = Vec::with_capacity(input.len() * self.decoded_multiplier);
                for rep in 0..self.decoded_multiplier {
                    out.extend(input.iter().map(|b| b.wrapping_add(rep as u8)));
                }
                out
            }
            TransformKind::RandomResizedCrop | TransformKind::SsdCropWithBoxes => {
                // Keep a random contiguous 50–100 % window (never empty).
                if input.is_empty() {
                    return input;
                }
                let len = input.len();
                let keep = rng.gen_range(len / 2..=len).max(1);
                let start = rng.gen_range(0..=len - keep);
                input[start..start + keep].to_vec()
            }
            TransformKind::RandomFlip => {
                if rng.gen_bool(0.5) {
                    input.into_iter().rev().collect()
                } else {
                    input
                }
            }
            TransformKind::ColorJitter | TransformKind::AudioAugment => {
                let delta: u8 = rng.gen();
                input.into_iter().map(|b| b.wrapping_add(delta)).collect()
            }
            TransformKind::ResampleAudio => {
                // Drop every 4th byte (down-sample) — deterministic.
                input
                    .into_iter()
                    .enumerate()
                    .filter(|(i, _)| i % 4 != 3)
                    .map(|(_, b)| b)
                    .collect()
            }
            TransformKind::Tokenize => {
                // "Tokenise": fold each 4-byte window into one subword id —
                // deterministic, like a real tokeniser.
                input
                    .chunks(4)
                    .map(|c| {
                        c.iter()
                            .fold(0u8, |acc, &b| acc.wrapping_mul(31).wrapping_add(b))
                    })
                    .collect()
            }
            TransformKind::MaskTokens => {
                // BERT-style MLM masking: replace ~15 % of tokens with a mask
                // marker, re-drawn every epoch.
                input
                    .into_iter()
                    .map(|b| if rng.gen_bool(0.15) { 0xFF } else { b })
                    .collect()
            }
            TransformKind::NormalizeToTensor => {
                // Byte-wise "normalisation": subtract the running mean.
                if input.is_empty() {
                    return input;
                }
                let mean =
                    (input.iter().map(|&b| b as u64).sum::<u64>() / input.len() as u64) as u8;
                input.into_iter().map(|b| b.wrapping_sub(mean)).collect()
            }
        }
    }
}

const ALL_KINDS: [TransformKind; 11] = [
    TransformKind::DecodeImage,
    TransformKind::RandomResizedCrop,
    TransformKind::RandomFlip,
    TransformKind::ColorJitter,
    TransformKind::NormalizeToTensor,
    TransformKind::DecodeAudio,
    TransformKind::ResampleAudio,
    TransformKind::AudioAugment,
    TransformKind::SsdCropWithBoxes,
    TransformKind::Tokenize,
    TransformKind::MaskTokens,
];

fn custom(name: &str, transforms: Vec<TransformKind>) -> PrepPipeline {
    PrepPipeline {
        name: name.into(),
        transforms,
    }
}

/// The four presets, crop without decode and decode without crop.
fn named_pipelines() -> Vec<PrepPipeline> {
    use TransformKind::*;
    vec![
        PrepPipeline::image_classification(),
        PrepPipeline::object_detection(),
        PrepPipeline::audio_classification(),
        PrepPipeline::language_model(),
        custom(
            "crop-without-decode",
            vec![RandomResizedCrop, RandomFlip, NormalizeToTensor],
        ),
        custom("ssd-crop-only", vec![SsdCropWithBoxes]),
        custom(
            "decode-without-crop",
            vec![DecodeImage, ColorJitter, NormalizeToTensor],
        ),
        custom("decode-then-flip", vec![DecodeAudio, RandomFlip]),
        custom("empty", vec![]),
    ]
}

/// An arbitrary sequence of up to six transforms, drawn from `seed`; decode
/// and crop may land anywhere, so the in-place mid-chain paths run too.  At
/// most two decodes, so the payload stays small.
fn arbitrary_pipeline(seed: u64) -> PrepPipeline {
    let mut rng = SmallRng::seed_from_u64(seed);
    let len = rng.gen_range(0usize..=6);
    let mut transforms = Vec::with_capacity(len);
    while transforms.len() < len {
        let t = ALL_KINDS[rng.gen_range(0..ALL_KINDS.len())];
        let decodes = transforms
            .iter()
            .filter(|&&k| matches!(k, TransformKind::DecodeImage | TransformKind::DecodeAudio))
            .count();
        if decodes < 2 || !matches!(t, TransformKind::DecodeImage | TransformKind::DecodeAudio) {
            transforms.push(t);
        }
    }
    custom("arbitrary", transforms)
}

fn bytes(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen()).collect()
}

/// A previously used buffer: `len` bytes of leftover content and at least
/// `extra` more bytes of spare capacity.
fn recycled(len: usize, extra: usize, seed: u64) -> Vec<u8> {
    let mut buf = Vec::with_capacity(len + extra);
    buf.extend((0..len).map(|i| (i as u64 ^ seed) as u8));
    buf
}

/// Assert `prepare` and `prepare_into` (fresh and recycled buffers) match the
/// unfused reference for one input.
fn assert_kernel_matches(
    pipeline: &PrepPipeline,
    multiplier: usize,
    seed: u64,
    (epoch, item): (u64, ItemId),
    raw: &[u8],
    dirty: Vec<u8>,
) {
    let fused = ExecutablePipeline::new(pipeline.clone(), multiplier, seed);
    let reference = UnfusedPipeline {
        pipeline: pipeline.clone(),
        decoded_multiplier: multiplier,
        seed,
    };
    let expected = reference.prepare(epoch, item, raw);
    let ctx = || {
        format!(
            "{:?} m={multiplier} raw_len={} epoch={epoch} item={item}",
            pipeline.transforms,
            raw.len()
        )
    };
    let fresh = fused.prepare(epoch, item, raw);
    assert_eq!(fresh.data, expected, "prepare: {}", ctx());
    assert_eq!(fresh.item, item);
    assert_eq!(fresh.epoch, epoch);
    assert_eq!(
        fresh.augmentation_seed,
        reference.augmentation_seed(epoch, item)
    );
    let into = fused.prepare_into(epoch, item, raw, dirty);
    assert_eq!(into, fresh, "prepare_into, recycled buffer: {}", ctx());
}

#[test]
fn named_pipelines_match_the_reference_on_a_grid() {
    for pipeline in named_pipelines() {
        for multiplier in 1..=32 {
            for len in [0usize, 1, 2, 3, 4, 5, 7, 64, 257] {
                let raw = bytes(len, (multiplier * 1000 + len) as u64);
                for epoch in 0..2 {
                    let item = (len * 7 + multiplier) as ItemId;
                    let dirty = recycled(epoch as usize * 97, 13, epoch);
                    assert_kernel_matches(&pipeline, multiplier, 42, (epoch, item), &raw, dirty);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn named_pipelines_match_the_reference(
        which in 0usize..9,
        multiplier in 1usize..=32,
        len in prop_oneof![Just(0usize), Just(1usize), 2usize..4096],
        raw_seed in 0u64..u64::MAX,
        seed in 0u64..u64::MAX,
        epoch in 0u64..1000,
        item in 0u64..1_000_000,
        dirty_len in prop_oneof![Just(0usize), 1usize..140_000],
        dirty_extra in prop_oneof![Just(0usize), 1usize..140_000],
    ) {
        let pipeline = &named_pipelines()[which];
        let raw = bytes(len, raw_seed);
        let dirty = recycled(dirty_len, dirty_extra, raw_seed ^ 1);
        assert_kernel_matches(pipeline, multiplier, seed, (epoch, item), &raw, dirty);
    }

    #[test]
    fn arbitrary_pipelines_match_the_reference(
        pipeline_seed in 0u64..u64::MAX,
        multiplier in 1usize..=32,
        len in prop_oneof![Just(0usize), Just(1usize), 2usize..256],
        raw_seed in 0u64..u64::MAX,
        seed in 0u64..u64::MAX,
        epoch in 0u64..1000,
        item in 0u64..1_000_000,
        dirty_len in prop_oneof![Just(0usize), 1usize..70_000],
    ) {
        let pipeline = arbitrary_pipeline(pipeline_seed);
        let raw = bytes(len, raw_seed);
        let dirty = recycled(dirty_len, 0, raw_seed ^ 2);
        assert_kernel_matches(&pipeline, multiplier, seed, (epoch, item), &raw, dirty);
    }
}

#[test]
fn a_large_enough_recycled_buffer_is_reused_without_reallocation() {
    for pipeline in named_pipelines() {
        let fused = ExecutablePipeline::new(pipeline.clone(), 24, 5);
        let raw = bytes(2048, 9);
        for epoch in 0..8 {
            // Decoded size bounds every preset's output.
            let buf = recycled(100, 2048 * 24, epoch);
            let ptr = buf.as_ptr();
            let out = fused.prepare_into(epoch, 3, &raw, buf);
            assert_eq!(
                out.data.as_ptr(),
                ptr,
                "{}: the payload must stay in the recycled allocation",
                pipeline.name
            );
        }
    }
}
