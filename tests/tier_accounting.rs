//! Byte-accounting, victim-order, concurrency and persistence regression
//! tests for the cache hierarchy.
//!
//! The tier-demotion path moves *exactly* the keys each policy evicts, in
//! *exactly* the order it evicts them — so the victim logs behind
//! `set_eviction_tracking` / `take_evicted` are pinned here for all three
//! evicting policies, including CLOCK's second-chance rotation.  The
//! runtime's one byte cache, `TieredByteCache`, must never let resident
//! bytes exceed capacity, under key replacement (re-admitting an existing
//! key with different bytes), demotion churn or concurrent sharded access;
//! and its persistent levels must warm up across restarts that change the
//! level's capacity or the cache's shard count.

use datastalls::cache::{Cache, ClockCache, FifoCache, LruCache, PolicyKind};
use datastalls::coordl::{
    ByteTierSpec, CacheTier, CoordlError, Mode, Session, SessionConfig, TieredByteCache,
};
use datastalls::dataset::{DataSource, DatasetSpec, SyntheticItemStore};
use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use vfs::{FileHandle, MemVfs, SpillStore, Vfs, VfsError, VfsStats};

fn payload(tag: u64, len: usize) -> Arc<Vec<u8>> {
    Arc::new(vec![tag as u8; len])
}

// ---------------------------------------------------------------------------
// Victim order
// ---------------------------------------------------------------------------

#[test]
fn lru_victim_log_is_exact_recency_order() {
    let mut c = LruCache::new(3);
    c.set_eviction_tracking(true);
    for k in [1u64, 2, 3] {
        c.access(k, 1);
    }
    c.access(1, 1); // recency now 2 < 3 < 1
    c.access(4, 1); // evicts 2
    c.access(5, 1); // evicts 3
    c.access(6, 1); // evicts 1
    assert_eq!(c.take_evicted(), vec![2, 3, 1]);
    assert!(c.take_evicted().is_empty(), "log drains");
}

#[test]
fn fifo_victim_log_is_exact_insertion_order() {
    let mut c = FifoCache::new(2);
    c.set_eviction_tracking(true);
    for k in [7u64, 8] {
        c.access(k, 1);
    }
    c.access(7, 1); // hit: FIFO does not promote
    c.access(9, 1); // evicts 7
    c.access(10, 1); // evicts 8
    assert_eq!(c.take_evicted(), vec![7, 8]);
}

#[test]
fn clock_victim_log_follows_second_chance_order_exactly() {
    // Hand-computed trace against the ring/swap_remove implementation:
    //   insert 1,2,3            ring [1,2,3], all unreferenced
    //   hit 2                   ref(2)
    //   insert 4: hand at 1 (unref) -> evict 1; 3 swaps into slot 0
    //   hit 3                   ref(3)
    //   insert 5: hand clears 3, clears 2, lands on 4 (unref) -> evict 4
    //   insert 6: hand at slot of 5 (unref, no second chance yet) -> evict 5
    let mut c = ClockCache::new(3);
    c.set_eviction_tracking(true);
    for k in [1u64, 2, 3] {
        c.access(k, 1);
    }
    c.access(2, 1);
    c.access(4, 1);
    c.access(3, 1);
    c.access(5, 1);
    c.access(6, 1);
    assert_eq!(c.take_evicted(), vec![1, 4, 5]);
    // The referenced entries survived their second chance.
    assert!(c.contains(&2) && c.contains(&3) && c.contains(&6));
}

#[test]
fn demotion_preserves_each_policy_victim_order() {
    // A FIFO lower tier receives victims in arrival order, so after churn
    // its insertion order *is* the upper tier's eviction order.  Drive the
    // same accesses through each upper policy and check the lower tier's
    // eventual FIFO eviction order replays the upper tier's victim log.
    for kind in [PolicyKind::Lru, PolicyKind::Fifo, PolicyKind::Clock] {
        // Reference run: the raw policy with tracking on.
        let mut reference = datastalls::cache::build_cache(kind, 3);
        reference.set_eviction_tracking(true);
        let trace: Vec<u64> = vec![1, 2, 3, 2, 4, 3, 5, 6, 1, 7];
        for &k in &trace {
            reference.access(k, 1);
        }
        let expected_victims = reference.take_evicted();
        assert!(expected_victims.len() >= 3, "{kind:?} trace must churn");

        // Tiered run: the same upper tier demoting into a roomy FIFO tier.
        // The chain drives the upper policy through the identical access
        // sequence (a promotion is an admission attempt, exactly like the
        // raw policy's miss), so its victim stream is the reference's.
        let tier = TieredByteCache::new(vec![
            ByteTierSpec::dram(kind, 3),
            ByteTierSpec::sata_ssd(PolicyKind::Fifo, 64),
        ]);
        for &k in &trace {
            if tier.lookup(k).is_none() {
                tier.admit(k, payload(k, 1));
            }
        }
        let snaps = tier.tier_snapshots();
        assert!(
            snaps[1].demoted_in > 0,
            "{kind:?}: the trace must demote victims"
        );
        // Nothing falls off a 64-byte FIFO tier on a 1-byte trace: every
        // victim the reference evicted must still be chain-resident.
        for v in &expected_victims {
            assert!(
                tier.contains(*v),
                "{kind:?}: victim {v} lost during demotion"
            );
        }
        // Demotions pair up across the boundary...
        assert_eq!(
            snaps[0].demoted_out, snaps[1].demoted_in,
            "{kind:?}: every demoted-out victim lands below"
        );
        // ...and the chain's upper tier evicted exactly as many entries as
        // the reference policy did (same policy code, same access stream).
        assert_eq!(
            snaps[0].evictions,
            reference.stats().evictions,
            "{kind:?}: eviction count"
        );
    }
}

// ---------------------------------------------------------------------------
// Resident-bytes <= capacity under replacement and demotion
// ---------------------------------------------------------------------------

#[test]
fn minio_byte_cache_replacement_keeps_first_copy_and_capacity() {
    let cache = TieredByteCache::single(PolicyKind::MinIo, 100);
    // Two workers race on key 1: both lookups miss, both fetches count.
    assert!(cache.lookup(1).is_none());
    assert!(cache.lookup(1).is_none());
    cache.admit(1, payload(1, 60));
    // Re-admitting the same key with different bytes must not change the
    // accounting or the resident copy.
    let kept = cache.admit(1, payload(9, 80));
    assert_eq!(kept.as_slice(), &[1u8; 60], "first copy wins");
    assert_eq!(cache.misses(), 2, "one miss per fetch, racing admits too");
    assert_eq!(cache.used_bytes(), 60);
    cache.admit(2, payload(2, 40));
    assert_eq!(cache.used_bytes(), 100);
    assert!(cache.used_bytes() <= 100);
    // Over-capacity admissions bypass without corrupting the accounting.
    cache.admit(3, payload(3, 10));
    assert_eq!(cache.used_bytes(), 100);
    assert!(!cache.contains(3));
    assert_eq!(cache.lookup(1).unwrap().as_slice(), &[1u8; 60]);
}

#[test]
fn single_level_tier_replacement_never_exceeds_capacity() {
    for kind in [
        PolicyKind::Lru,
        PolicyKind::Fifo,
        PolicyKind::Clock,
        PolicyKind::MinIo,
    ] {
        let cache = TieredByteCache::single(kind, 64);
        // Churn with varied sizes, re-admitting keys with *different*
        // payload sizes (the replacement case).
        for round in 0..4u64 {
            for k in 0..12u64 {
                let size = 4 + ((k + round) % 5) as usize * 7;
                if cache.lookup(k).is_none() {
                    cache.admit(k, payload(k, size));
                }
                assert!(
                    cache.used_bytes() <= cache.capacity_bytes(),
                    "{kind:?}: {} > {}",
                    cache.used_bytes(),
                    cache.capacity_bytes()
                );
            }
        }
        // The payload map and the policy agree on residency.
        let resident = (0..12u64).filter(|&k| cache.contains(k)).count();
        assert_eq!(resident, cache.resident_items(), "{kind:?}");
    }
}

#[test]
fn tiered_byte_cache_invariants_hold_under_demotion_churn() {
    for kind in [PolicyKind::Lru, PolicyKind::Fifo, PolicyKind::Clock] {
        let tier = TieredByteCache::new(vec![
            ByteTierSpec::dram(kind, 48),
            ByteTierSpec::sata_ssd(kind, 32),
        ]);
        for round in 0..5u64 {
            for k in 0..20u64 {
                let size = 3 + ((k * 7 + round) % 6) as usize * 5;
                if tier.lookup(k).is_none() {
                    tier.admit(k, payload(k, size));
                }
                let snaps = tier.tier_snapshots();
                for level in &snaps {
                    assert!(
                        level.used_bytes <= level.capacity_bytes,
                        "{kind:?} level {}: {} > {}",
                        level.name,
                        level.used_bytes,
                        level.capacity_bytes
                    );
                }
                // Payloads exist exactly for chain-resident keys.
                for probe in 0..20u64 {
                    assert_eq!(
                        tier.contains(probe),
                        tier.lookup(probe).is_some(),
                        "{kind:?}: payload map out of sync for {probe}"
                    );
                }
            }
        }
        let snaps = tier.tier_snapshots();
        assert!(
            snaps[1].demoted_in > 0,
            "{kind:?}: churn must have demoted victims"
        );
    }
}

#[test]
fn lookup_probe_does_not_change_residency() {
    // `contains` + `lookup` agreement above relies on lookup hits touching
    // recency only; a miss must not admit or evict anything.
    let tier = TieredByteCache::new(vec![
        ByteTierSpec::dram(PolicyKind::Lru, 16),
        ByteTierSpec::sata_ssd(PolicyKind::Lru, 16),
    ]);
    for k in 0..8u64 {
        tier.admit(k, payload(k, 4));
    }
    let before: Vec<bool> = (0..8).map(|k| tier.contains(k)).collect();
    for _ in 0..3 {
        assert!(tier.lookup(999).is_none());
    }
    let after: Vec<bool> = (0..8).map(|k| tier.contains(k)).collect();
    assert_eq!(before, after);
}

// ---------------------------------------------------------------------------
// Concurrency
// ---------------------------------------------------------------------------

#[test]
fn concurrent_sharded_fetches_conserve_bytes_and_counters() {
    // 8 threads over 4 shards of two MinIO levels: every fetch is counted
    // exactly once, both levels fill exactly, and every hit serves the
    // bytes its own thread admitted.
    let cache = Arc::new(TieredByteCache::new_sharded(
        vec![
            ByteTierSpec::dram(PolicyKind::MinIo, 400),
            ByteTierSpec::sata_ssd(PolicyKind::MinIo, 400),
        ],
        4,
    ));
    let threads: Vec<_> = (0..8u64)
        .map(|t| {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                // Disjoint key ranges per thread: every fetch is either a
                // first-touch miss or a repeat hit, deterministically.
                for pass in 0..3 {
                    for k in (t * 1000)..(t * 1000 + 200) {
                        match cache.lookup(k) {
                            Some(bytes) => assert_eq!(bytes.as_slice(), &[t as u8]),
                            None => {
                                assert!(pass == 0 || !cache.contains(k), "resident key hit");
                                cache.admit(k, payload(t, 1));
                            }
                        }
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    // 8 threads x 200 keys x 3 passes, every fetch accounted exactly once.
    assert_eq!(cache.hits() + cache.misses(), 8 * 200 * 3);
    let levels = cache.tier_snapshots();
    assert_eq!(levels[0].hits + levels[0].misses, 8 * 200 * 3);
    assert_eq!(
        levels.iter().map(|l| l.hits).sum::<u64>(),
        cache.hits(),
        "the chain saw every hit the wrapper counted"
    );
    assert_eq!(cache.used_bytes(), 800, "both levels filled exactly");
    assert_eq!(cache.resident_items(), 800);
    assert_eq!(cache.hits(), 2 * 800, "residents hit on passes 1 and 2");
}

// ---------------------------------------------------------------------------
// Persistent levels across restarts
// ---------------------------------------------------------------------------

/// A small DRAM level over a persistent MinIO SSD level of `ssd` bytes.
fn persistent_tiers(fs: &Arc<dyn Vfs>, ssd: u64) -> Vec<ByteTierSpec> {
    vec![
        ByteTierSpec::dram(PolicyKind::MinIo, 8),
        ByteTierSpec::sata_ssd(PolicyKind::MinIo, ssd).persistent(Arc::clone(fs), "ssd"),
    ]
}

/// Fetch items `0..n` of 2 bytes each (payload byte = item id).
fn fill(cache: &TieredByteCache, n: u64) {
    for k in 0..n {
        if cache.lookup(k).is_none() {
            cache.admit(k, payload(k, 2));
        }
    }
}

fn stored_keys(fs: &Arc<dyn Vfs>) -> Vec<u64> {
    let store = SpillStore::open(Arc::clone(fs), "ssd").expect("spill store opens");
    store.entries().map(|(key, _)| key).collect()
}

#[test]
fn a_shrunk_persistent_level_retires_what_no_longer_fits() {
    let fs: Arc<dyn Vfs> = Arc::new(MemVfs::new());
    fill(&TieredByteCache::new(persistent_tiers(&fs, 40)), 30);
    assert_eq!(stored_keys(&fs).len(), 20, "40 SSD bytes hold 20 items");

    // Restart with half the SSD: only the first 10 recorded keys fit.
    let shrunk = TieredByteCache::new(persistent_tiers(&fs, 20));
    assert_eq!(shrunk.resident_items(), 10);
    let kept = stored_keys(&fs);
    assert_eq!(kept.len(), 10, "the other 10 entries were retired");
    for &k in &kept {
        assert_eq!(shrunk.lookup(k).unwrap().as_slice(), &[k as u8; 2]);
    }
    drop(shrunk);

    // Growing the level back does not resurrect the retired entries.
    let regrown = TieredByteCache::new(persistent_tiers(&fs, 40));
    assert_eq!(regrown.resident_items(), 10);
    assert_eq!(stored_keys(&fs), kept);
}

#[test]
fn a_persistent_level_warms_the_same_files_under_any_shard_count() {
    let fs: Arc<dyn Vfs> = Arc::new(MemVfs::new());
    fill(
        &TieredByteCache::new_sharded(persistent_tiers(&fs, 1 << 20), 2),
        30,
    );
    let stored = stored_keys(&fs);
    assert_eq!(
        stored.len(),
        30 - 4,
        "DRAM keeps four items, the SSD the rest"
    );
    assert!(
        !fs.exists("ssd/shard-0/MANIFEST"),
        "one store for every shard"
    );
    for shards in [1, 2, 4, 7] {
        let reborn = TieredByteCache::new_sharded(persistent_tiers(&fs, 1 << 20), shards);
        assert_eq!(reborn.resident_items(), stored.len(), "{shards} shards");
        assert_eq!(reborn.hits(), 0, "warm contents, cold statistics");
        for &k in &stored {
            let (bytes, level) = reborn.lookup_traced(k).expect("warmed key");
            assert_eq!(bytes.as_slice(), &[k as u8; 2], "{shards} shards, key {k}");
            assert_eq!(level, 1, "warmed into the persistent level");
        }
        drop(reborn);
        assert_eq!(stored_keys(&fs), stored, "{shards} shards retired nothing");
    }
}

/// A [`MemVfs`] whose payload reads fail — a disk that lists its files but
/// cannot read them back.
struct UnreadablePayloads {
    inner: MemVfs,
    payloads: Mutex<HashSet<FileHandle>>,
    broken: std::sync::atomic::AtomicBool,
}

impl Vfs for UnreadablePayloads {
    fn open(&self, path: &str, create: bool) -> Result<FileHandle, VfsError> {
        let file = self.inner.open(path, create)?;
        if path.ends_with(".item") {
            self.payloads.lock().unwrap().insert(file);
        }
        Ok(file)
    }
    fn read_at(&self, file: FileHandle, offset: u64, len: usize) -> Result<Vec<u8>, VfsError> {
        let broken = self.broken.load(std::sync::atomic::Ordering::Relaxed);
        if broken && self.payloads.lock().unwrap().contains(&file) {
            return Err(VfsError::Io {
                path: "payload".into(),
                detail: "media error".into(),
            });
        }
        self.inner.read_at(file, offset, len)
    }
    fn write_at(&self, file: FileHandle, offset: u64, data: &[u8]) -> Result<(), VfsError> {
        self.inner.write_at(file, offset, data)
    }
    fn sync(&self, file: FileHandle) -> Result<(), VfsError> {
        self.inner.sync(file)
    }
    fn len(&self, file: FileHandle) -> Result<u64, VfsError> {
        self.inner.len(file)
    }
    fn close(&self, file: FileHandle) -> Result<(), VfsError> {
        // Handles are recycled: a closed payload handle may name the
        // manifest next.
        self.payloads.lock().unwrap().remove(&file);
        self.inner.close(file)
    }
    fn exists(&self, path: &str) -> bool {
        self.inner.exists(path)
    }
    fn remove(&self, path: &str) -> Result<(), VfsError> {
        self.inner.remove(path)
    }
    fn name(&self) -> &'static str {
        "unreadable-payloads"
    }
    fn stats(&self) -> VfsStats {
        self.inner.stats()
    }
}

#[test]
fn a_session_over_a_failing_spill_store_is_a_typed_error() {
    let items = 40;
    let source: Arc<dyn DataSource> = Arc::new(SyntheticItemStore::new(
        DatasetSpec::new("spill-fail", items, 64, 0.0, 4.0),
        3,
    ));
    let disk = Arc::new(UnreadablePayloads {
        inner: MemVfs::new(),
        payloads: Mutex::new(HashSet::new()),
        broken: false.into(),
    });
    let fs: Arc<dyn Vfs> = Arc::clone(&disk) as Arc<dyn Vfs>;
    let build = |fs: &Arc<dyn Vfs>, dir: &str| {
        Session::builder(Arc::clone(&source), SessionConfig::default())
            .mode(Mode::Single)
            .cache_tiers(vec![
                ByteTierSpec::dram(PolicyKind::MinIo, 64 * 4),
                ByteTierSpec::sata_ssd(PolicyKind::MinIo, 1 << 20).persistent(Arc::clone(fs), dir),
            ])
            .build()
    };
    {
        let session = build(&fs, "ssd").expect("a healthy store builds");
        assert!(session.epoch(0).stream(0).all(|mb| mb.is_ok()));
    }
    assert!(fs.exists("ssd/MANIFEST"), "items spilled to the SSD level");
    // Replaying an unreadable payload fails the build, it does not panic.
    disk.broken
        .store(true, std::sync::atomic::Ordering::Relaxed);
    match build(&fs, "ssd") {
        Err(CoordlError::InvalidConfig(msg)) => assert!(msg.contains("replaying"), "{msg}"),
        Err(other) => panic!("expected InvalidConfig, got {other:?}"),
        Ok(_) => panic!("an unreadable spill store must not build"),
    }
    // So does a store that cannot be opened at all.
    match build(&fs, "../outside") {
        Err(CoordlError::InvalidConfig(msg)) => assert!(msg.contains("failed to open"), "{msg}"),
        Err(other) => panic!("expected InvalidConfig, got {other:?}"),
        Ok(_) => panic!("an unopenable spill store must not build"),
    }
}
