//! Prepared minibatches, and the pool their payload buffers return to.

use dataset::ItemId;
use parking_lot::Mutex;
use prep::PreparedSample;
use std::fmt;
use std::sync::Arc;

/// A fully prepared minibatch, ready for consumption by the training loop.
///
/// A minibatch delivered by a session's executor carries a handle to that
/// epoch's [`PayloadPool`]: when the last reference to it drops, its sample
/// buffers go back to the pool (up to the pool's cap) for the next prep
/// step to overwrite.  A minibatch built with [`Minibatch::new`] has no pool
/// and frees its buffers as usual.  A clone shares the original's pool.
#[derive(Debug, Clone)]
pub struct Minibatch {
    /// Epoch this minibatch belongs to.
    pub epoch: u64,
    /// Index of the minibatch within the epoch (0-based, in training order).
    pub index: usize,
    /// The prepared samples, in the order dictated by the epoch permutation.
    pub samples: Vec<PreparedSample>,
    pool: Option<Arc<PayloadPool>>,
}

impl Minibatch {
    /// A minibatch of `samples` that recycles nothing on drop.
    pub fn new(epoch: u64, index: usize, samples: Vec<PreparedSample>) -> Self {
        Minibatch {
            epoch,
            index,
            samples,
            pool: None,
        }
    }

    /// A minibatch whose sample buffers return to `pool` on drop.
    pub(crate) fn pooled(
        epoch: u64,
        index: usize,
        samples: Vec<PreparedSample>,
        pool: Arc<PayloadPool>,
    ) -> Self {
        Minibatch {
            epoch,
            index,
            samples,
            pool: Some(pool),
        }
    }

    /// The pool this minibatch's buffers return to, if any.
    pub fn payload_pool(&self) -> Option<&Arc<PayloadPool>> {
        self.pool.as_ref()
    }

    /// Number of samples in the minibatch.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when the minibatch holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The item ids of the samples, in order.
    pub fn item_ids(&self) -> Vec<ItemId> {
        self.samples.iter().map(|s| s.item).collect()
    }

    /// Total prepared payload size in bytes (used for staging-area memory
    /// accounting).
    pub fn payload_bytes(&self) -> u64 {
        self.samples.iter().map(|s| s.data.len() as u64).sum()
    }
}

/// Equality of content: the pool handle is not compared.
impl PartialEq for Minibatch {
    fn eq(&self, other: &Self) -> bool {
        self.epoch == other.epoch && self.index == other.index && self.samples == other.samples
    }
}

impl Drop for Minibatch {
    fn drop(&mut self) {
        if let Some(pool) = &self.pool {
            // Buffers past the cap are freed with `samples`, after the pool
            // lock is released.
            pool.give_back(&mut self.samples);
        }
    }
}

/// A small bounded free list of payload buffers, shared by one epoch's prep
/// workers and the minibatches they deliver.
///
/// Workers take a buffer per sample and prepare into it; dropped
/// minibatches give theirs back, and whatever does not fit under the cap is
/// freed.  A buffer's content is never read again: `prep` overwrites it, so
/// only its allocation is reused.
pub struct PayloadPool {
    idle: Mutex<Vec<Vec<u8>>>,
    cap: usize,
}

impl PayloadPool {
    /// An empty pool that keeps at most `cap` idle buffers.
    pub(crate) fn new(cap: usize) -> Self {
        PayloadPool {
            idle: Mutex::new(Vec::with_capacity(cap)),
            cap,
        }
    }

    /// An idle buffer, or a new empty one when the pool is dry.
    pub(crate) fn take(&self) -> Vec<u8> {
        self.idle.lock().pop().unwrap_or_default()
    }

    /// Move the payloads of the leading `samples` into the pool while there
    /// is room under the cap; the rest stay in `samples`.
    fn give_back(&self, samples: &mut Vec<PreparedSample>) {
        let mut idle = self.idle.lock();
        let room = self.cap.saturating_sub(idle.len()).min(samples.len());
        idle.extend(samples.drain(..room).map(|s| s.data));
    }

    /// The most idle buffers the pool keeps.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Buffers currently idle in the pool.
    pub fn idle(&self) -> usize {
        self.idle.lock().len()
    }
}

impl fmt::Debug for PayloadPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PayloadPool")
            .field("cap", &self.cap)
            .field("idle", &self.idle())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(item: u64, len: usize) -> PreparedSample {
        PreparedSample {
            item,
            epoch: 0,
            augmentation_seed: 0,
            data: vec![0u8; len],
        }
    }

    #[test]
    fn accessors() {
        let mb = Minibatch::new(1, 3, vec![sample(10, 4), sample(11, 6)]);
        assert_eq!(mb.len(), 2);
        assert!(!mb.is_empty());
        assert_eq!(mb.item_ids(), vec![10, 11]);
        assert_eq!(mb.payload_bytes(), 10);
        assert!(mb.payload_pool().is_none());
    }

    #[test]
    fn empty_minibatch() {
        let mb = Minibatch::new(0, 0, vec![]);
        assert!(mb.is_empty());
        assert_eq!(mb.payload_bytes(), 0);
    }

    #[test]
    fn dropped_batches_refill_the_pool_up_to_its_cap() {
        let pool = Arc::new(PayloadPool::new(3));
        let batch = |n: usize| {
            let samples = (0..n).map(|i| sample(i as u64, 64)).collect();
            Minibatch::pooled(0, 0, samples, Arc::clone(&pool))
        };
        drop(batch(2));
        assert_eq!(pool.idle(), 2);
        drop(batch(5));
        assert_eq!(pool.idle(), 3, "the cap bounds idle buffers");
        let buf = pool.take();
        assert!(buf.capacity() >= 64, "a recycled allocation comes back");
        assert_eq!(pool.idle(), 2);
    }

    #[test]
    fn equality_ignores_the_pool() {
        let pool = Arc::new(PayloadPool::new(1));
        let pooled = Minibatch::pooled(2, 5, vec![sample(1, 3)], pool);
        assert_eq!(pooled, Minibatch::new(2, 5, vec![sample(1, 3)]));
        assert_eq!(pooled.clone(), pooled);
    }
}
