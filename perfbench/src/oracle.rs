//! The consumer: a closed-loop load generator standing in for an infinitely
//! fast GPU, and the correctness oracle it applies to every batch.
//!
//! A *step* takes one batch from every stream of the workload, in stream
//! order, on one thread.  The time the consumer is blocked inside
//! `BatchStream::next` over a step is the step's wait (the data stall).
//! Checking happens after the step's batches are in hand and is part of
//! the wall clock; nothing is subtracted.
//!
//! A batch passes when its epoch, index and items match the order
//! `dataset::EpochSampler` gives for the session seed, every sample carries
//! `ExecutablePipeline::augmentation_seed(epoch, item)` and has the length
//! the prep pipeline yields for it, and — for a fixed sparse subset of items
//! — its payload equals `ExecutablePipeline::prepare` of the source bytes.
//! In [`CheckMode::Full`] every payload is additionally hashed, and
//! [`Consumer::verify_full`] later compares each hash with a reference
//! `prepare` of the same `(epoch, item)`.

use coordl::{BatchStream, CoordlError, Minibatch};
use dataset::{DataSource, EpochSampler, ItemId};
use prep::{ExecutablePipeline, PrepPipeline};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// One item in this many has its payload compared byte for byte.
const SPARSE_STRIDE: u64 = 64;

/// How much of each payload the consumer checks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CheckMode {
    /// Metadata and length of every sample; payload of a fixed sparse
    /// subset.
    #[default]
    Sparse,
    /// As `Sparse`, plus a hash of every payload for later verification.
    Full,
}

/// What the consumer expects from one stream.
pub struct StreamOracle {
    /// Streams with equal keys read the same source through the same
    /// pipeline (the jobs of a coordinated session).
    pub key: usize,
    source: Arc<dyn DataSource>,
    pipeline: ExecutablePipeline,
    decode_multiplier: usize,
    sampler: EpochSampler,
    batch_size: usize,
}

impl StreamOracle {
    /// Expect batches of `batch_size` over `source` (the reference bytes,
    /// read outside the program), shuffled with the session `seed` and
    /// prepared by an image-classification pipeline with
    /// `decode_multiplier`, seeded with the same `seed` as sessions seed
    /// their default pipeline.
    pub fn new(
        key: usize,
        source: Arc<dyn DataSource>,
        decode_multiplier: usize,
        seed: u64,
        batch_size: usize,
    ) -> Self {
        let sampler = EpochSampler::new(source.len(), seed);
        StreamOracle {
            key,
            pipeline: ExecutablePipeline::new(
                PrepPipeline::image_classification(),
                decode_multiplier,
                seed,
            ),
            source,
            decode_multiplier,
            sampler,
            batch_size,
        }
    }

    /// The pipeline the program must run.
    pub fn pipeline(&self) -> &ExecutablePipeline {
        &self.pipeline
    }

    /// The reference source.
    pub fn source(&self) -> &Arc<dyn DataSource> {
        &self.source
    }

    /// Length of the prepared payload of `item` under `aug_seed`: decode
    /// multiplies the raw length, then the random crop keeps a window drawn
    /// first from the augmentation stream; flip and normalisation keep the
    /// length.
    fn expected_len(&self, item: ItemId, aug_seed: u64) -> usize {
        let decoded = self.source.item_bytes(item) as usize * self.decode_multiplier;
        if decoded == 0 {
            return 0;
        }
        let mut rng = SmallRng::seed_from_u64(aug_seed);
        rng.gen_range(decoded / 2..=decoded).max(1)
    }

    fn reference(&self, epoch: u64, item: ItemId) -> Vec<u8> {
        self.pipeline
            .prepare(epoch, item, &self.source.read(item))
            .data
    }
}

fn in_sparse_subset(item: ItemId) -> bool {
    splitmix(item).is_multiple_of(SPARSE_STRIDE)
}

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01B3).rotate_left(23) ^ (h >> 29)
}

/// A 64-bit hash of a payload, eight bytes at a time.
fn payload_hash(data: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64 ^ data.len() as u64;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        h = mix(h, u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
    }
    for &b in chunks.remainder() {
        h = mix(h, u64::from(b));
    }
    splitmix(h)
}

/// Counts and timings a consumer gathers.
#[derive(Debug, Default)]
pub struct Consumer {
    mode: CheckMode,
    /// Steps attempted.
    pub attempted: u64,
    /// Steps that failed (stream error, early end, rejected batch).
    pub failed: u64,
    /// Samples received over all streams in recorded epochs.
    pub samples: u64,
    /// Per-step wait in nanoseconds, recorded epochs only.
    pub step_wait_ns: Vec<u64>,
    /// Per-stream time inside `next`, recorded epochs only.
    pub stream_wait_ns: Vec<u64>,
    /// Time spent checking batches, recorded epochs only.
    pub check_ns: u64,
    /// Digest of everything received (metadata, lengths, checked payloads).
    pub digest: u64,
    /// The first failure seen, for the report.
    pub first_failure: Option<String>,
    hashes: Vec<(usize, u64, ItemId, u64)>,
    corrupt_at: Option<(u64, usize, Corruption)>,
}

/// How [`Consumer::corrupt_at`] damages a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corruption {
    /// Drop the last byte of the first sample.
    Length,
    /// Flip every byte of the first sample, keeping its length.
    Payload,
}

impl Consumer {
    /// A consumer checking with `mode`.
    pub fn new(mode: CheckMode) -> Self {
        Consumer {
            mode,
            ..Consumer::default()
        }
    }

    /// Corrupt the first stream's batch at `(epoch, step)` before checking
    /// it: a self-test that the oracle rejects bad output.
    pub fn corrupt_at(&mut self, epoch: u64, step: usize, how: Corruption) {
        self.corrupt_at = Some((epoch, step, how));
    }

    /// Consume one epoch from `streams` (one per oracle), recording waits
    /// and samples when `record` is set.
    pub fn drive(
        &mut self,
        epoch: u64,
        streams: &mut [BatchStream],
        oracles: &[Arc<StreamOracle>],
        record: bool,
    ) {
        assert_eq!(streams.len(), oracles.len(), "one oracle per stream");
        if self.stream_wait_ns.len() < streams.len() {
            self.stream_wait_ns.resize(streams.len(), 0);
        }
        let orders: Vec<Vec<ItemId>> = oracles
            .iter()
            .map(|o| o.sampler.permutation(epoch))
            .collect();
        let totals: Vec<usize> = orders
            .iter()
            .zip(oracles)
            .map(|(order, o)| order.len().div_ceil(o.batch_size))
            .collect();
        let steps = totals.iter().copied().max().unwrap_or(0);
        let mut alive = vec![true; streams.len()];
        let mut got: Vec<Option<Result<Arc<Minibatch>, CoordlError>>> =
            Vec::with_capacity(streams.len());
        for step in 0..steps {
            got.clear();
            let step_start = Instant::now();
            for (j, stream) in streams.iter_mut().enumerate() {
                if step >= totals[j] || !alive[j] {
                    got.push(None);
                    continue;
                }
                let t = Instant::now();
                got.push(stream.next());
                if record {
                    self.stream_wait_ns[j] += t.elapsed().as_nanos() as u64;
                }
            }
            let wait = step_start.elapsed().as_nanos() as u64;
            let check_start = Instant::now();
            let mut ok = true;
            for (j, batch) in got.drain(..).enumerate() {
                if step >= totals[j] {
                    continue;
                }
                let problem = match batch {
                    None => {
                        alive[j] = false;
                        Some(format!("stream {j} ended before batch {step}"))
                    }
                    Some(Err(e)) => {
                        alive[j] = false;
                        Some(format!("stream {j} batch {step}: {e}"))
                    }
                    Some(Ok(mb)) => {
                        if record {
                            self.samples += mb.len() as u64;
                        }
                        let mb = match self.corrupt_at {
                            Some((e, s, how)) if j == 0 && e == epoch && s == step => {
                                corrupt(&mb, how)
                            }
                            _ => mb,
                        };
                        let lo = step * oracles[j].batch_size;
                        let hi = (lo + oracles[j].batch_size).min(orders[j].len());
                        self.check(&mb, epoch, step, &orders[j][lo..hi], &oracles[j])
                            .err()
                            .map(|why| format!("stream {j} batch {step}: {why}"))
                    }
                };
                if let Some(why) = problem {
                    ok = false;
                    self.first_failure.get_or_insert(why);
                }
            }
            self.attempted += 1;
            self.failed += u64::from(!ok);
            if record {
                self.step_wait_ns.push(wait);
                self.check_ns += check_start.elapsed().as_nanos() as u64;
            }
        }
        // Every stream must now be exhausted: an extra batch is a failure.
        for (j, stream) in streams.iter_mut().enumerate() {
            if alive[j] && stream.next().is_some() {
                self.attempted += 1;
                self.failed += 1;
                self.first_failure.get_or_insert(format!(
                    "stream {j} delivered past the end of epoch {epoch}"
                ));
            }
        }
    }

    fn check(
        &mut self,
        mb: &Minibatch,
        epoch: u64,
        step: usize,
        expected: &[ItemId],
        oracle: &StreamOracle,
    ) -> Result<(), String> {
        if mb.epoch != epoch || mb.index != step {
            return Err(format!(
                "is epoch {} index {}, expected epoch {epoch} index {step}",
                mb.epoch, mb.index
            ));
        }
        if mb.samples.len() != expected.len() {
            return Err(format!(
                "has {} samples, expected {}",
                mb.samples.len(),
                expected.len()
            ));
        }
        let mut digest = mix(self.digest, epoch ^ ((step as u64) << 32));
        for (sample, &item) in mb.samples.iter().zip(expected) {
            if sample.item != item || sample.epoch != epoch {
                return Err(format!(
                    "sample (epoch {}, item {}) where (epoch {epoch}, item {item}) was due",
                    sample.epoch, sample.item
                ));
            }
            let seed = oracle.pipeline.augmentation_seed(epoch, item);
            if sample.augmentation_seed != seed {
                return Err(format!("item {item} has the wrong augmentation seed"));
            }
            let len = oracle.expected_len(item, seed);
            if sample.data.len() != len {
                return Err(format!(
                    "item {item} payload is {} bytes, expected {len}",
                    sample.data.len()
                ));
            }
            digest = mix(mix(mix(digest, item), seed), len as u64);
            if in_sparse_subset(item) {
                if sample.data != oracle.reference(epoch, item) {
                    return Err(format!("item {item} payload differs from the reference"));
                }
                digest = mix(digest, payload_hash(&sample.data));
            } else if self.mode == CheckMode::Full {
                let h = payload_hash(&sample.data);
                self.hashes.push((oracle.key, epoch, item, h));
                digest = mix(digest, h);
            }
        }
        self.digest = digest;
        Ok(())
    }

    /// In [`CheckMode::Full`], compare every recorded payload hash with a
    /// reference `prepare` of the same `(epoch, item)`, counting each
    /// mismatch as a failed step.  Returns the number of payloads verified.
    pub fn verify_full(&mut self, oracles: &[Arc<StreamOracle>]) -> usize {
        let mut hashes = std::mem::take(&mut self.hashes);
        hashes.sort_unstable();
        let mut verified = 0;
        let mut i = 0;
        while i < hashes.len() {
            let (key, epoch, item, hash) = hashes[i];
            let mut j = i;
            while j < hashes.len()
                && hashes[j].0 == key
                && hashes[j].1 == epoch
                && hashes[j].2 == item
            {
                j += 1;
            }
            let oracle = oracles
                .iter()
                .find(|o| o.key == key)
                .expect("hash recorded for a known oracle");
            let reference = payload_hash(&oracle.reference(epoch, item));
            let bad = hashes[i..j].iter().filter(|h| h.3 != reference).count() as u64;
            if bad > 0 || hash != reference {
                self.failed += bad;
                self.first_failure.get_or_insert(format!(
                    "epoch {epoch} item {item} payload differs from the reference"
                ));
            }
            verified += j - i;
            i = j;
        }
        verified
    }
}

/// A copy of `mb` with its first sample damaged `how`.
fn corrupt(mb: &Minibatch, how: Corruption) -> Arc<Minibatch> {
    let mut bad = mb.clone();
    if let Some(sample) = bad.samples.first_mut() {
        if how == Corruption::Length {
            sample.data.pop();
        }
        for b in &mut sample.data {
            *b ^= 0xFF;
        }
    }
    Arc::new(bad)
}
