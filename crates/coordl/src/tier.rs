//! Pluggable byte-cache tiers.
//!
//! A [`CacheTier`] sits between a [`Session`](crate::Session)'s prep workers
//! and its [`FetchBackend`](crate::FetchBackend).  The crate has one
//! byte-cache engine, [`TieredByteCache`]: a `dcache::TierChain` of real byte
//! tiers (DRAM MinIO/LRU/FIFO/CLOCK spilling into a profiled local-SSD tier,
//! and so on) split into key-routed shards.  Every policy-built session tier
//! is one, and a multi-tenant [`Server`](crate::Server) shares one between
//! its tenants.  Its levels run the *same* `coordl-cache` policy code the
//! simulator's [`storage::StorageNode`] uses, so the runtime reproduces both
//! CoorDL's never-evict MinIO policy (§4.1) and the page-cache thrashing the
//! paper measures.

use crate::error::CoordlError;
use dataset::ItemId;
use dcache::{shard_of_key, ChainAccess, ChainSource, PolicyKind, TierChain, TierSpec};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;
use storage::{AccessPattern, DeviceProfile};
use vfs::{SpillStore, Vfs};

/// A thread-safe byte cache tier keyed by item id.
///
/// `lookup` and `admit` mirror the two halves of a fetch: every lookup miss
/// is expected to be followed by an `admit` of the bytes read from the next
/// tier down, which is when the policy decides whether to retain them (and
/// what to evict).  Hit/miss counters therefore count *fetches*, exactly as
/// the simulator's cache statistics do.
pub trait CacheTier: Send + Sync {
    /// Look `item` up, returning its bytes on a hit.
    fn lookup(&self, item: ItemId) -> Option<Arc<Vec<u8>>>;

    /// Offer `bytes` for `item` after a miss.  The tier admits (and possibly
    /// evicts) according to its policy; the caller always keeps a usable
    /// reference.
    fn admit(&self, item: ItemId, bytes: Arc<Vec<u8>>) -> Arc<Vec<u8>>;

    /// Whether `item` is currently resident.
    fn contains(&self, item: ItemId) -> bool;

    /// Bytes currently resident.
    fn used_bytes(&self) -> u64;

    /// Capacity in bytes.
    fn capacity_bytes(&self) -> u64;

    /// Number of resident items.
    fn resident_items(&self) -> usize;

    /// Lookup hits since construction.
    fn hits(&self) -> u64;

    /// Lookup misses since construction.
    fn misses(&self) -> u64;

    /// Name of the replacement policy.
    fn policy_name(&self) -> &'static str;

    /// Like [`CacheTier::lookup`], additionally reporting which level of the
    /// tier's hierarchy served the hit (0 for flat tiers).
    fn lookup_traced(&self, item: ItemId) -> Option<(Arc<Vec<u8>>, usize)> {
        self.lookup(item).map(|bytes| (bytes, 0))
    }

    /// Per-level statistics of the tier's hierarchy (a single level for flat
    /// tiers).
    fn tier_snapshots(&self) -> Vec<TierSnapshot> {
        vec![TierSnapshot {
            name: "dram",
            policy: self.policy_name(),
            capacity_bytes: self.capacity_bytes(),
            used_bytes: self.used_bytes(),
            resident_items: self.resident_items(),
            hits: self.hits(),
            misses: self.misses(),
            evictions: 0,
            demoted_in: 0,
            demoted_out: 0,
            device_seconds: 0.0,
        }]
    }
}

/// A point-in-time view of one level of a cache-tier hierarchy, used by
/// reports and `dstool validate`'s per-tier hit-ratio rows.
#[derive(Debug, Clone, PartialEq)]
pub struct TierSnapshot {
    /// Level name (`"dram"`, `"ssd"`, ...).
    pub name: &'static str,
    /// Replacement policy at this level.
    pub policy: &'static str,
    /// Capacity in bytes.
    pub capacity_bytes: u64,
    /// Bytes resident.
    pub used_bytes: u64,
    /// Items resident.
    pub resident_items: usize,
    /// Fetches served by this level.
    pub hits: u64,
    /// Fetches that consulted this level and fell through.
    pub misses: u64,
    /// Entries this level's policy evicted on the fetch path (0 for flat
    /// tiers, which do not track evictions at the wrapper level).
    pub evictions: u64,
    /// Victims accepted from the level above (demotion).
    pub demoted_in: u64,
    /// Victims this level evicted that were offered below.
    pub demoted_out: u64,
    /// Modelled busy time of this level's backing device across all hits,
    /// in seconds (0 for unprofiled DRAM levels).
    pub device_seconds: f64,
}

// ---------------------------------------------------------------------------
// Tiered byte cache: a TierChain holding real payloads
// ---------------------------------------------------------------------------

/// Where a [`TieredByteCache`] level keeps its payloads.
///
/// `Memory` (the default) holds everything in the shared in-memory payload
/// map — the behaviour every existing digest was produced with.  `Vfs`
/// additionally persists the level's resident set through a
/// [`SpillStore`] under a VFS directory: demoted victims landing at the
/// level are written to files, and a later cache built over the same VFS
/// root warms the level back up from the manifest — the persistent-SSD
/// restart story.
#[derive(Clone)]
pub enum TierBacking {
    /// Payloads live only in memory (the default; zero behaviour change).
    Memory,
    /// Payloads resident at this level are mirrored to files under `dir`
    /// of `vfs`, and replayed into the level on construction.
    Vfs {
        /// The filesystem the level persists through.
        vfs: Arc<dyn Vfs>,
        /// Directory (within the VFS namespace) owned by this level.
        dir: String,
    },
}

impl TierBacking {
    /// Whether this is the in-memory backing.
    pub fn is_memory(&self) -> bool {
        matches!(self, TierBacking::Memory)
    }
}

impl std::fmt::Debug for TierBacking {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TierBacking::Memory => write!(f, "Memory"),
            TierBacking::Vfs { vfs, dir } => write!(f, "Vfs({}:{dir})", vfs.name()),
        }
    }
}

impl PartialEq for TierBacking {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (TierBacking::Memory, TierBacking::Memory) => true,
            (TierBacking::Vfs { vfs: a, dir: da }, TierBacking::Vfs { vfs: b, dir: db }) => {
                Arc::ptr_eq(a, b) && da == db
            }
            _ => false,
        }
    }
}

/// Description of one level of a [`TieredByteCache`].
#[derive(Debug, Clone, PartialEq)]
pub struct ByteTierSpec {
    /// Level name used in reports (`"dram"`, `"ssd"`, ...).
    pub name: &'static str,
    /// Replacement policy governing residency at this level.
    pub policy: PolicyKind,
    /// Capacity in bytes.
    pub capacity_bytes: u64,
    /// Device backing the level: `None` for DRAM (hits cost memory
    /// bandwidth), `Some(profile)` for a real device whose modelled busy
    /// time is accounted per hit (random small-item reads).
    pub profile: Option<DeviceProfile>,
    /// Where the level's payloads live (see [`TierBacking`]).
    pub backing: TierBacking,
}

impl ByteTierSpec {
    /// A DRAM level of `capacity_bytes` under `policy`.
    pub fn dram(policy: PolicyKind, capacity_bytes: u64) -> Self {
        ByteTierSpec {
            name: "dram",
            policy,
            capacity_bytes,
            profile: None,
            backing: TierBacking::Memory,
        }
    }

    /// A local SATA-SSD level of `capacity_bytes` under `policy` (§4.2 /
    /// Table 2: 530 MB/s random reads).
    pub fn sata_ssd(policy: PolicyKind, capacity_bytes: u64) -> Self {
        ByteTierSpec {
            name: "ssd",
            policy,
            capacity_bytes,
            profile: Some(DeviceProfile::sata_ssd()),
            backing: TierBacking::Memory,
        }
    }

    /// Persist this level through `dir` of `vfs`: spilled victims land in
    /// files and a rebuilt cache over the same VFS warms the level from the
    /// on-disk manifest.
    pub fn persistent(mut self, vfs: Arc<dyn Vfs>, dir: impl Into<String>) -> Self {
        self.backing = TierBacking::Vfs {
            vfs,
            dir: dir.into(),
        };
        self
    }

    fn tier_spec(&self) -> TierSpec {
        TierSpec {
            name: self.name,
            policy: self.policy,
            capacity_bytes: self.capacity_bytes,
            cost: match &self.profile {
                None => storage::dram_tier_cost(),
                Some(p) => p.tier_cost(AccessPattern::Random),
            },
        }
    }
}

/// Intern a hierarchy label: leak it at most once per distinct string (the
/// label space is the tiny set of tier-layout names, so the table stays a
/// handful of entries for the process lifetime).
fn intern_label(label: String) -> &'static str {
    static LABELS: std::sync::Mutex<Vec<&'static str>> = std::sync::Mutex::new(Vec::new());
    // Interning is idempotent, so a panic between lock and push leaves the
    // table merely shorter, never wrong: recover from poisoning instead of
    // propagating one tenant's panic to every later label lookup.
    let mut labels = LABELS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(existing) = labels.iter().find(|l| **l == label) {
        return existing;
    }
    let leaked: &'static str = Box::leak(label.into_boxed_str());
    labels.push(leaked);
    leaked
}

/// One key-routed shard of a [`TieredByteCache`]: its slice of every
/// level's capacity and the payloads of the keys routed to it.
struct Shard {
    chain: TierChain,
    /// One payload per resident key, shared by every level that holds it.
    bytes: HashMap<u64, Arc<Vec<u8>>>,
    // Fetch counters live here, not in the chain: a lookup miss raced by
    // another worker's admit never reaches the chain, yet it was a fetch.
    // One hit or one miss per lookup, always.
    hits: u64,
    misses: u64,
    /// Modelled per-level device busy seconds across all hits.
    level_seconds: Vec<f64>,
}

/// A lookup hit through [`TieredByteCache::lookup_floored`], reported back
/// to a wrapper that keeps its own books.
pub(crate) struct Hit<B> {
    /// The resident payload.
    pub(crate) bytes: Arc<Vec<u8>>,
    /// The level that served the hit.
    pub(crate) level: usize,
    /// The level a promotion admitted the key into, if the hit promoted it.
    pub(crate) promoted_to: Option<usize>,
    /// Modelled device seconds of the hit (0 at unprofiled DRAM levels).
    pub(crate) device_seconds: f64,
    /// What the floor callback returned alongside the floor.
    pub(crate) books: B,
}

/// An admission through [`TieredByteCache::admit_floored`], reported back
/// to a wrapper that keeps its own books.
pub(crate) struct Admission<B> {
    /// The level the key was admitted into (`None`: every level at or below
    /// the floor bypassed it).
    pub(crate) level: Option<usize>,
    /// What the floor callback returned alongside the floor.
    pub(crate) books: B,
}

/// The crate's byte-cache engine: a `dcache::TierChain` hierarchy decides
/// residency, demotion and per-level statistics while this wrapper stores
/// the actual payloads (dropped the moment a key falls off the chain).
///
/// A single-level cache is its policy: driven through one fetch sequence,
/// its hits, misses, residency and used bytes equal those of
/// `dcache::build_cache` with the same policy and capacity (pinned by
/// `tests/session_equivalence.rs`).
///
/// **Sharding.**  A cache built with `num_shards > 1` splits every level
/// into `num_shards` independent chains (`cap / S` bytes per shard, the
/// first `cap % S` shards one byte larger) and routes each key to its shard
/// by [`dcache::shard_of_key`] — the same routing the executor's fetch pool
/// partitions plan items by.  Because owners are aligned, every shard sees
/// its keys in plan order no matter how many fetch threads run, so a
/// sharded cache's hits/misses/evictions are a pure function of the plan
/// and the shard count.
///
/// **Persistence.**  Each [`TierBacking::Vfs`] level keeps one
/// [`SpillStore`] shared by every shard and locked strictly after the shard
/// lock.  Construction replays it, routing each key to its shard, so a
/// cache rebuilt over the same VFS warms up whatever its shard count.
pub struct TieredByteCache {
    shards: Vec<Mutex<Shard>>,
    /// The durable mirror of each persistent level (`None` for memory
    /// levels).
    spills: Vec<Option<Mutex<SpillStore>>>,
    /// The *aggregate* level descriptions (full capacities) the cache was
    /// built from.
    specs: Vec<ByteTierSpec>,
    name: &'static str,
}

impl TieredByteCache {
    /// Build a hierarchy from `specs`, ordered fastest (level 0) first.
    ///
    /// # Panics
    /// Panics when `specs` is empty or a persistent level's VFS fails.
    pub fn new(specs: Vec<ByteTierSpec>) -> Self {
        Self::new_sharded(specs, 1)
    }

    /// Like [`TieredByteCache::new`] with the hierarchy split into
    /// `num_shards` independent key-routed shards (see the type docs).
    ///
    /// # Panics
    /// Panics when `specs` is empty, `num_shards` is zero, or a persistent
    /// level's VFS fails.
    pub fn new_sharded(specs: Vec<ByteTierSpec>, num_shards: usize) -> Self {
        Self::try_new_sharded(specs, num_shards).expect("tier construction failed")
    }

    /// Like [`TieredByteCache::new`], surfacing persistent-level VFS
    /// failures as [`CoordlError::InvalidConfig`] instead of panicking.
    pub fn try_new(specs: Vec<ByteTierSpec>) -> Result<Self, CoordlError> {
        Self::try_new_sharded(specs, 1)
    }

    /// The fallible form of [`TieredByteCache::new_sharded`].
    ///
    /// Levels with [`TierBacking::Vfs`] open their [`SpillStore`] here and
    /// replay the on-disk manifest: every recorded key is re-offered to its
    /// shard's chain at that level (the admission floor keeps it out of
    /// faster levels) with its payload read back from disk, then all
    /// statistics are reset — a restarted cache starts warm but with clean
    /// counters.  Entries the level no longer holds (it shrank across the
    /// restart, or a faster level already has the key) are retired from the
    /// store, so later restarts do not replay them either.
    pub fn try_new_sharded(
        specs: Vec<ByteTierSpec>,
        num_shards: usize,
    ) -> Result<Self, CoordlError> {
        assert!(!specs.is_empty(), "need at least one tier");
        assert!(num_shards > 0, "need at least one shard");
        let split = |cap: u64, shard: usize| {
            cap / num_shards as u64 + u64::from((shard as u64) < cap % num_shards as u64)
        };
        let mut shards: Vec<Shard> = (0..num_shards)
            .map(|shard| Shard {
                chain: TierChain::new(
                    specs
                        .iter()
                        .map(|spec| TierSpec {
                            capacity_bytes: split(spec.capacity_bytes, shard),
                            ..spec.tier_spec()
                        })
                        .collect(),
                ),
                bytes: HashMap::new(),
                hits: 0,
                misses: 0,
                level_seconds: vec![0.0; specs.len()],
            })
            .collect();
        let mut spills = Vec::with_capacity(specs.len());
        for (level, spec) in specs.iter().enumerate() {
            let TierBacking::Vfs { vfs, dir } = &spec.backing else {
                spills.push(None);
                continue;
            };
            let failed = |what: String, e: vfs::VfsError| {
                CoordlError::InvalidConfig(format!(
                    "persistent tier {:?} failed {what}: {e}",
                    spec.name
                ))
            };
            let mut spill = SpillStore::open(Arc::clone(vfs), dir)
                .map_err(|e| failed(format!("to open {dir}"), e))?;
            // Replay in key order (deterministic).
            for (key, len) in spill.entries().collect::<Vec<_>>() {
                let shard = &mut shards[shard_of_key(key, num_shards)];
                let access = shard.chain.access_with_floor(key, len, level);
                if access.admitted {
                    let payload = spill
                        .read(key)
                        .map_err(|e| failed(format!("replaying item {key}"), e))?;
                    shard.bytes.insert(key, Arc::new(payload));
                } else {
                    let _ = spill.remove(key);
                }
                for victim in access.dropped {
                    shard.bytes.remove(&victim);
                    let _ = spill.remove(victim);
                }
            }
            spills.push(Some(Mutex::new(spill)));
        }
        // Warm contents, cold statistics.
        for shard in &mut shards {
            shard.chain.reset_stats();
        }
        // Single-level hierarchies report the plain policy name so existing
        // reports are unchanged; deeper chains get a composite label,
        // interned so sweeps constructing many identical hierarchies share
        // one allocation.
        let name = if specs.len() == 1 {
            specs[0].policy.name()
        } else {
            let label = specs
                .iter()
                .map(|s| format!("{}:{}", s.name, s.policy.name()))
                .collect::<Vec<_>>()
                .join("+");
            intern_label(label)
        };
        Ok(TieredByteCache {
            shards: shards.into_iter().map(Mutex::new).collect(),
            spills,
            specs,
            name,
        })
    }

    /// A single DRAM level under `policy` — the default session tier.
    pub fn single(policy: PolicyKind, capacity_bytes: u64) -> Self {
        Self::single_sharded(policy, capacity_bytes, 1)
    }

    /// A single DRAM level under `policy`, split into `num_shards` shards
    /// (what sessions with a fetch pool build).
    pub fn single_sharded(policy: PolicyKind, capacity_bytes: u64, num_shards: usize) -> Self {
        Self::new_sharded(vec![ByteTierSpec::dram(policy, capacity_bytes)], num_shards)
    }

    /// The aggregate level descriptions this hierarchy was built from.
    pub fn specs(&self) -> &[ByteTierSpec] {
        &self.specs
    }

    /// How many key-routed shards the cache is split into.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning `key` under [`dcache::shard_of_key`] routing.
    fn shard_for(&self, key: u64) -> &Mutex<Shard> {
        &self.shards[shard_of_key(key, self.shards.len())]
    }

    /// [`CacheTier::lookup_traced`] with the promotion floor chosen under
    /// the shard lock: `floor(size)` returns the lowest level a promotion
    /// may land at plus the caller's books (typically a guard on its own
    /// counters), handed back in the [`Hit`].  `None` is a miss.
    pub(crate) fn lookup_floored<B>(
        &self,
        key: u64,
        floor: impl FnOnce(u64) -> (usize, B),
    ) -> Option<Hit<B>> {
        let mut shard = self.shard_for(key).lock();
        let Some(bytes) = shard.bytes.get(&key).map(Arc::clone) else {
            shard.misses += 1;
            return None;
        };
        shard.hits += 1;
        let size = bytes.len() as u64;
        let (floor, books) = floor(size);
        // Touch recency, promote towards DRAM, demote what that displaces.
        let access = shard.chain.access_with_floor(key, size, floor);
        let ChainSource::Tier(level) = access.source else {
            unreachable!("payload implies residency")
        };
        // Only profiled levels account modelled device time; DRAM hits (the
        // hot path) skip the cost math entirely.
        let mut device_seconds = 0.0;
        if self.specs[level].profile.is_some() {
            device_seconds = shard.chain.tier_cost(level).access_seconds(size);
            shard.level_seconds[level] += device_seconds;
        }
        let promoted_to = self.commit(&mut shard, key, &bytes, &access);
        Some(Hit {
            bytes,
            level,
            promoted_to,
            device_seconds,
            books,
        })
    }

    /// [`CacheTier::admit`] with the admission floor chosen under the shard
    /// lock, like [`TieredByteCache::lookup_floored`].  Alongside the bytes
    /// to use, returns the [`Admission`] — or nothing when a racing admit
    /// already made the key resident.
    pub(crate) fn admit_floored<B>(
        &self,
        key: u64,
        bytes: Arc<Vec<u8>>,
        floor: impl FnOnce(u64) -> (usize, B),
    ) -> (Arc<Vec<u8>>, Option<Admission<B>>) {
        let mut shard = self.shard_for(key).lock();
        if let Some(resident) = shard.bytes.get(&key) {
            // A concurrent worker admitted it first; keep the resident copy.
            return (Arc::clone(resident), None);
        }
        let size = bytes.len() as u64;
        let (floor, books) = floor(size);
        let access = shard.chain.access_with_floor(key, size, floor);
        if access.admitted {
            shard.bytes.insert(key, Arc::clone(&bytes));
        }
        let level = self.commit(&mut shard, key, &bytes, &access);
        (bytes, Some(Admission { level, books }))
    }

    /// Apply a chain access's side effects to the payloads and the durable
    /// mirrors, returning the level the access admitted `key` into.
    fn commit(
        &self,
        shard: &mut Shard,
        key: u64,
        bytes: &[u8],
        access: &ChainAccess,
    ) -> Option<usize> {
        let admitted_at = if access.admitted {
            shard.chain.locate(key)
        } else {
            None
        };
        // Admissions (DRAM full or above the floor, SSD accepts; a
        // promotion) and demotion landings at a persistent level hit its
        // durable mirror too.  Stale copies at other persistent levels are
        // dropped lazily: removing them here would fight the
        // promotion-keeps-lower-copy rule.
        let landings = admitted_at
            .map(|level| (key, level))
            .into_iter()
            .chain(access.demoted.iter().copied());
        for (landed, level) in landings {
            if let Some(spill) = &self.spills[level] {
                let payload = if landed == key {
                    bytes
                } else {
                    shard
                        .bytes
                        .get(&landed)
                        .expect("demoted key must have a resident payload")
                };
                spill
                    .lock()
                    .write(landed, payload)
                    .expect("spill write failed");
            }
        }
        for victim in &access.dropped {
            shard.bytes.remove(victim);
            for spill in self.spills.iter().flatten() {
                spill
                    .lock()
                    .remove(*victim)
                    .expect("spill remove failed on drop");
            }
        }
        admitted_at
    }

    /// Remove every resident key in `range` (a departing tenant's key
    /// window): payloads, chain entries at every level and durable copies.
    /// A lifecycle operation, not an eviction: no statistics are recorded.
    pub(crate) fn remove_range(&self, range: Range<u64>) {
        for shard in &self.shards {
            let mut shard = shard.lock();
            let keys: Vec<u64> = shard
                .bytes
                .keys()
                .copied()
                .filter(|k| range.contains(k))
                .collect();
            for key in keys {
                shard.bytes.remove(&key);
                shard.chain.remove(key);
                for spill in self.spills.iter().flatten() {
                    let _ = spill.lock().remove(key);
                }
            }
        }
    }
}

impl CacheTier for TieredByteCache {
    fn lookup(&self, item: ItemId) -> Option<Arc<Vec<u8>>> {
        self.lookup_floored(item, |_| (0, ())).map(|hit| hit.bytes)
    }

    fn lookup_traced(&self, item: ItemId) -> Option<(Arc<Vec<u8>>, usize)> {
        self.lookup_floored(item, |_| (0, ()))
            .map(|hit| (hit.bytes, hit.level))
    }

    fn admit(&self, item: ItemId, bytes: Arc<Vec<u8>>) -> Arc<Vec<u8>> {
        self.admit_floored(item, bytes, |_| (0, ())).0
    }

    fn contains(&self, item: ItemId) -> bool {
        self.shard_for(item).lock().chain.contains(item)
    }

    fn used_bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock().chain.used_bytes())
            .sum()
    }

    fn capacity_bytes(&self) -> u64 {
        // Per-shard capacities sum back to the aggregate spec capacities.
        self.shards
            .iter()
            .map(|s| s.lock().chain.capacity_bytes())
            .sum()
    }

    fn resident_items(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().chain.resident_items())
            .sum()
    }

    fn hits(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().hits).sum()
    }

    fn misses(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().misses).sum()
    }

    fn policy_name(&self) -> &'static str {
        self.name
    }

    fn tier_snapshots(&self) -> Vec<TierSnapshot> {
        // Capacities come from the aggregate specs (per-shard splits sum
        // back to them); everything else is summed across shards in fixed
        // shard order, so snapshots stay deterministic.
        let mut snaps: Vec<TierSnapshot> = self
            .specs
            .iter()
            .map(|spec| TierSnapshot {
                name: spec.name,
                policy: spec.policy.name(),
                capacity_bytes: spec.capacity_bytes,
                used_bytes: 0,
                resident_items: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
                demoted_in: 0,
                demoted_out: 0,
                device_seconds: 0.0,
            })
            .collect();
        for shard in &self.shards {
            let inner = shard.lock();
            for (k, agg) in snaps.iter_mut().enumerate() {
                let stats = inner.chain.tier_stats(k);
                let demotions = inner.chain.tier_demotions(k);
                agg.used_bytes += inner.chain.tier_used_bytes(k);
                agg.resident_items += inner.chain.tier_len(k);
                agg.hits += stats.hits;
                agg.misses += stats.misses;
                agg.evictions += stats.evictions;
                agg.demoted_in += demotions.demoted_in;
                agg.demoted_out += demotions.demoted_out;
                // Unprofiled (DRAM) levels never accumulate seconds.
                agg.device_seconds += inner.level_seconds[k];
            }
        }
        snaps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfs::MemVfs;

    fn payload(item: ItemId, len: usize) -> Arc<Vec<u8>> {
        Arc::new(vec![item as u8; len])
    }

    #[test]
    fn lru_tier_evicts_payloads_with_their_entries() {
        let tier = TieredByteCache::single(PolicyKind::Lru, 2);
        for item in 0..4u64 {
            assert!(tier.lookup(item).is_none());
            tier.admit(item, payload(item, 1));
        }
        // Capacity 2: items 0 and 1 were evicted, payloads dropped with them.
        assert!(!tier.contains(0) && !tier.contains(1));
        assert!(tier.contains(2) && tier.contains(3));
        assert_eq!(tier.resident_items(), 2);
        assert_eq!(tier.used_bytes(), 2);
        assert!(tier.lookup(0).is_none());
        assert_eq!(tier.lookup(3).unwrap().as_slice(), &[3]);
    }

    #[test]
    fn lru_tier_promotes_on_lookup() {
        let tier = TieredByteCache::single(PolicyKind::Lru, 2);
        tier.admit(1, payload(1, 1));
        tier.admit(2, payload(2, 1));
        let _ = tier.lookup(1); // touch 1: 2 becomes the victim
        tier.admit(3, payload(3, 1));
        assert!(tier.contains(1) && !tier.contains(2) && tier.contains(3));
    }

    #[test]
    fn racing_admits_still_count_one_miss_per_fetch() {
        // Two workers can both lookup-miss the same item before either
        // admits it; the loser's admit is a no-op, but both fetches must be
        // accounted (one miss each), matching the bytes they actually read
        // from the backend.
        let tier = TieredByteCache::single(PolicyKind::Lru, 1 << 20);
        assert!(tier.lookup(7).is_none());
        assert!(tier.lookup(7).is_none()); // second worker, same race window
        tier.admit(7, payload(7, 4));
        let kept = tier.admit(7, Arc::new(vec![9; 4])); // loser's admit
        assert_eq!(kept.as_slice(), &[7; 4], "first copy wins");
        assert_eq!(tier.misses(), 2, "both fetches were misses");
        assert_eq!(tier.hits(), 0);
        assert_eq!(tier.resident_items(), 1);
        assert_eq!(tier.lookup(7).unwrap().as_slice(), &[7; 4]);
        assert_eq!(tier.hits(), 1);
    }

    /// Drive a full fetch (lookup, then admit on a miss) like a LoaderStack.
    fn fetch_through(tier: &dyn CacheTier, item: ItemId, len: usize) -> usize {
        match tier.lookup_traced(item) {
            Some((_, level)) => level,
            None => {
                tier.admit(item, payload(item, len));
                usize::MAX
            }
        }
    }

    #[test]
    fn single_level_tiered_cache_replays_its_policy_exactly() {
        // The contract that lets sessions route every tier through the
        // chain: same hits, misses, residency and used bytes as the raw
        // `dcache` policy driven through the same fetches, for every policy.
        for kind in [
            PolicyKind::MinIo,
            PolicyKind::Lru,
            PolicyKind::Fifo,
            PolicyKind::Clock,
        ] {
            let tiered = TieredByteCache::single(kind, 6);
            let mut oracle = dcache::build_cache(kind, 6);
            let trace: Vec<u64> = vec![1, 2, 3, 4, 1, 2, 5, 6, 7, 1, 3, 5, 7, 2];
            for &item in &trace {
                fetch_through(&tiered, item, 2);
                oracle.access(item, 2);
            }
            assert_eq!(tiered.hits(), oracle.stats().hits, "{kind:?}");
            assert_eq!(tiered.misses(), oracle.stats().misses, "{kind:?}");
            assert_eq!(tiered.used_bytes(), oracle.used_bytes(), "{kind:?}");
            assert_eq!(tiered.resident_items(), oracle.len(), "{kind:?}");
            for item in 0..8u64 {
                assert_eq!(
                    tiered.contains(item),
                    oracle.contains(&item),
                    "{kind:?} {item}"
                );
                assert_eq!(
                    tiered.lookup(item).is_some(),
                    oracle.contains(&item),
                    "{kind:?} {item}"
                );
            }
        }
    }

    #[test]
    fn minio_dram_spills_payloads_into_the_ssd_level() {
        let tier = TieredByteCache::new(vec![
            ByteTierSpec::dram(PolicyKind::MinIo, 3),
            ByteTierSpec::sata_ssd(PolicyKind::MinIo, 4),
        ]);
        for item in 0..10u64 {
            assert_eq!(fetch_through(&tier, item, 1), usize::MAX, "cold chain");
        }
        let snaps = tier.tier_snapshots();
        assert_eq!(snaps[0].resident_items, 3, "DRAM filled first");
        assert_eq!(snaps[1].resident_items, 4, "SSD extends the reach");
        assert_eq!(tier.resident_items(), 7);
        // Second epoch: levels serve what they hold, payload bytes intact.
        for item in 0..10u64 {
            let level = fetch_through(&tier, item, 1);
            match item {
                0..=2 => assert_eq!(level, 0, "item {item}"),
                3..=6 => assert_eq!(level, 1, "item {item}"),
                _ => assert_eq!(level, usize::MAX, "item {item}"),
            }
        }
        let snaps = tier.tier_snapshots();
        assert_eq!(snaps[0].hits, 3);
        assert_eq!(snaps[1].hits, 4);
        assert!(snaps[1].device_seconds > 0.0, "SSD hits cost device time");
        assert_eq!(snaps[0].device_seconds, 0.0, "DRAM is unprofiled");
        assert_eq!(tier.lookup(5).unwrap().as_slice(), &[5], "payload intact");
    }

    #[test]
    fn lru_dram_demotes_payloads_to_the_ssd_victim_tier() {
        let tier = TieredByteCache::new(vec![
            ByteTierSpec::dram(PolicyKind::Lru, 2),
            ByteTierSpec::sata_ssd(PolicyKind::Lru, 2),
        ]);
        for item in 0..4u64 {
            fetch_through(&tier, item, 1);
        }
        // DRAM holds {2,3}; victims 0,1 were demoted with their payloads.
        assert_eq!(tier.lookup_traced(0).unwrap().1, 1, "served from ssd");
        assert_eq!(tier.lookup_traced(0).unwrap().1, 0, "promoted to dram");
        let snaps = tier.tier_snapshots();
        assert_eq!(
            snaps[1].demoted_in,
            2 + 1,
            "0, 1, then 0's promotion victim"
        );
        // Promoting 0 displaced 2 into the SSD, whose LRU victim was the
        // stale key 1 — its payload fell off the chain and is gone.
        assert!(!tier.contains(1));
        assert_eq!(tier.resident_items(), 3);
        assert_eq!(tier.lookup(1), None);
        assert_eq!(tier.lookup(2).unwrap().as_slice(), &[2]);
    }

    #[test]
    fn sharded_cache_counters_are_shard_order_independent() {
        // The determinism contract behind the fetch pool: a shard only sees
        // its own keys, so interleaving *between* shards is irrelevant —
        // feeding the whole trace in plan order and feeding each shard's
        // subsequence separately produce identical counters and residency.
        let shards = 4;
        let trace: Vec<u64> = (0..40u64).chain(0..40).collect();
        let build = || TieredByteCache::single_sharded(PolicyKind::Lru, 20 * 2, shards);
        let in_plan_order = build();
        for &item in &trace {
            fetch_through(&in_plan_order, item, 2);
        }
        let per_shard = build();
        for shard in 0..shards {
            for &item in &trace {
                if shard_of_key(item, shards) == shard {
                    fetch_through(&per_shard, item, 2);
                }
            }
        }
        assert_eq!(in_plan_order.hits(), per_shard.hits());
        assert_eq!(in_plan_order.misses(), per_shard.misses());
        assert_eq!(in_plan_order.used_bytes(), per_shard.used_bytes());
        assert_eq!(in_plan_order.resident_items(), per_shard.resident_items());
        for item in 0..40u64 {
            assert_eq!(in_plan_order.contains(item), per_shard.contains(item));
        }
    }

    #[test]
    fn shard_capacities_sum_to_the_aggregate_spec() {
        // 10 bytes across 4 shards: 3+3+2+2, never silently rounded away.
        let tier = TieredByteCache::single_sharded(PolicyKind::MinIo, 10, 4);
        assert_eq!(tier.num_shards(), 4);
        assert_eq!(tier.capacity_bytes(), 10);
        let snaps = tier.tier_snapshots();
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].capacity_bytes, 10, "aggregate, not per-shard");
        for shards in [1usize, 2, 3, 4, 7] {
            let tier = TieredByteCache::single_sharded(PolicyKind::MinIo, 1003, shards);
            assert_eq!(tier.capacity_bytes(), 1003, "{shards} shards");
        }
    }

    #[test]
    fn remove_range_frees_capacity_for_new_admissions() {
        let tier = TieredByteCache::single_sharded(PolicyKind::MinIo, 8, 2);
        for item in 0..20u64 {
            fetch_through(&tier, item, 1);
        }
        let resident: Vec<u64> = (0..20).filter(|&k| tier.contains(k)).collect();
        assert_eq!(resident.len(), 8, "MinIO filled both shards exactly");
        let victim = resident[0];
        tier.remove_range(victim..victim + 1);
        assert!(!tier.contains(victim) && tier.lookup(victim).is_none());
        assert_eq!(tier.used_bytes(), 7);
        // A fresh key routed to the freed shard is admitted again.
        let shard = shard_of_key(victim, 2);
        let newcomer = (1000..2000u64)
            .find(|&k| shard_of_key(k, 2) == shard)
            .unwrap();
        tier.admit(newcomer, payload(newcomer, 1));
        assert!(tier.contains(newcomer));
        assert_eq!(tier.used_bytes(), 8);
    }

    #[test]
    fn floored_admissions_land_below_the_floor_and_report_their_level() {
        let tier = TieredByteCache::new(vec![
            ByteTierSpec::dram(PolicyKind::MinIo, 4),
            ByteTierSpec::sata_ssd(PolicyKind::MinIo, 4),
        ]);
        let (_, admission) = tier.admit_floored(1, payload(1, 1), |size| (1, size));
        let admission = admission.expect("first admission");
        assert_eq!(admission.level, Some(1), "spilled below DRAM");
        assert_eq!(admission.books, 1, "the floor saw the payload size");
        let (_, admission) = tier.admit_floored(1, payload(1, 1), |_| (0, ()));
        assert!(
            admission.is_none(),
            "already resident: the floor is never asked"
        );
        // A floored hit stays put; an unfloored one promotes into DRAM.
        let hit = tier.lookup_floored(1, |_| (1, ())).unwrap();
        assert_eq!((hit.level, hit.promoted_to), (1, None));
        assert!(hit.device_seconds > 0.0, "SSD hits cost device time");
        let hit = tier.lookup_floored(1, |_| (0, ())).unwrap();
        assert_eq!((hit.level, hit.promoted_to), (1, Some(0)));
        assert!(tier
            .lookup_floored(2, |_| -> (usize, ()) { unreachable!() })
            .is_none());
    }

    #[test]
    fn persistent_level_warms_any_shard_count_from_one_store() {
        let vfs: Arc<dyn Vfs> = Arc::new(MemVfs::new());
        let specs = || {
            vec![
                ByteTierSpec::dram(PolicyKind::Lru, 4),
                ByteTierSpec::sata_ssd(PolicyKind::MinIo, 64).persistent(Arc::clone(&vfs), "spill"),
            ]
        };
        {
            let tier = TieredByteCache::new_sharded(specs(), 2);
            for item in 0..12u64 {
                fetch_through(&tier, item, 2);
            }
            assert!(tier.resident_items() > 4, "victims demoted into the SSD");
        }
        assert!(vfs.exists("spill/MANIFEST"), "one store, no shard subdirs");
        assert!(!vfs.exists("spill/shard-0/MANIFEST"));
        let reborn = TieredByteCache::new_sharded(specs(), 3);
        assert!(reborn.resident_items() > 0, "warm restart");
        assert_eq!(reborn.hits(), 0, "warm contents, cold statistics");
        for item in 0..12u64 {
            if reborn.contains(item) {
                let (bytes, _) = reborn.lookup_traced(item).expect("resident payload");
                assert_eq!(bytes.as_slice(), &[item as u8; 2], "payload intact");
            }
        }
    }

    #[test]
    fn hit_and_miss_counters_count_fetches() {
        let tier = TieredByteCache::single(PolicyKind::Fifo, 1 << 20);
        for epoch in 0..3 {
            for item in 0..10u64 {
                match tier.lookup(item) {
                    Some(_) => assert!(epoch > 0),
                    None => {
                        tier.admit(item, payload(item, 8));
                    }
                }
            }
        }
        assert_eq!(tier.misses(), 10);
        assert_eq!(tier.hits(), 20);
    }
}
