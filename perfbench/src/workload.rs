//! The four loader workloads and the passes that measure them.
//!
//! Every workload is built from `--seed` alone through the public API:
//! a synthetic dataset, a `Session` (or a `Server` with tenant sessions),
//! and the oracles the consumer checks the streams against.  `workers`,
//! `prefetch_depth` and `fetch_threads` stay at the `SessionConfig`
//! defaults, except where a workload names a setting itself.

use crate::oracle::{CheckMode, Consumer, StreamOracle};
use crate::stats;
use crate::trace::{Phase, Recorder, TracedBackend, TracedSource, TracedTier, TracedVfs};
use coordl::{
    ByteTierSpec, CacheTier, DirectBackend, FetchBackend, FsBackend, LoaderReport, Mode, Server,
    ServerConfig, Session, SessionConfig, TenantHandle, TenantSpec, TieredByteCache,
};
use dataset::{DataSource, DatasetSpec, SyntheticItemStore};
use dcache::PolicyKind;
use prep::ExecutablePipeline;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use vfs::{MemVfs, OsVfs, Vfs};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Single mode, DRAM tier larger than the dataset, heavy prep.
    PrepBound,
    /// Single mode over real file reads, DRAM + persistent SSD spill level.
    FetchBound,
    /// Coordinated prep for four hyper-parameter-search jobs.
    HpSearch,
    /// Three tenants of one `Server` with oversubscribed quotas.
    MultiTenant,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::PrepBound,
        Workload::FetchBound,
        Workload::HpSearch,
        Workload::MultiTenant,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PrepBound => "prep-bound",
            Workload::FetchBound => "fetch-bound",
            Workload::HpSearch => "hp-search",
            Workload::MultiTenant => "multi-tenant",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn salt(self) -> u64 {
        match self {
            Workload::PrepBound => 0x11,
            Workload::FetchBound => 0x22,
            Workload::HpSearch => 0x33,
            Workload::MultiTenant => 0x44,
        }
    }
}

/// How large a workload is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's size.
    Full,
    /// A sixteenth of the items, for tests.
    Tiny,
}

struct DataShape {
    items: u64,
    avg_bytes: u64,
    decode_multiplier: usize,
}

impl Workload {
    fn shape(self, scale: Scale) -> DataShape {
        let (items, avg_bytes, decode_multiplier) = match self {
            Workload::PrepBound => (16384, 2 << 10, 24),
            Workload::FetchBound => (8192, 8 << 10, 1),
            Workload::HpSearch => (4096, 4 << 10, 6),
            // The server builds its tenants' pipelines itself, with the
            // session default decode multiplier of 6.
            Workload::MultiTenant => (2048, 4 << 10, 6),
        };
        match scale {
            Scale::Full => DataShape {
                items,
                avg_bytes,
                decode_multiplier,
            },
            Scale::Tiny => DataShape {
                items: items / 16,
                avg_bytes,
                decode_multiplier,
            },
        }
    }
}

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn total_bytes(source: &dyn DataSource) -> u64 {
    (0..source.len()).map(|i| source.item_bytes(i)).sum()
}

/// What a workload runs on: one session, or a server and its tenants.
enum Loader {
    Session(Box<Session>),
    Server {
        server: Server,
        tenants: Vec<TenantHandle>,
    },
}

/// A built workload, ready to run epochs.
pub struct Built {
    loader: Loader,
    oracles: Vec<Arc<StreamOracle>>,
    io_dir: Option<PathBuf>,
}

impl Drop for Built {
    fn drop(&mut self) {
        if let Some(dir) = &self.io_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Build `workload` for `seed`.  With `rec`, the layers are wrapped in
/// tracing decorators.  File-backed workloads keep their files under
/// `io_root/<tag>`.
pub fn build(
    workload: Workload,
    scale: Scale,
    seed: u64,
    rec: Option<&Arc<Recorder>>,
    io_root: &Path,
    tag: &str,
) -> Built {
    let shape = workload.shape(scale);
    let base = splitmix(seed ^ (workload.salt() << 56));
    let session_seed = splitmix(base ^ 1);
    let data_seed = splitmix(base ^ 2);
    let spec = |name: &str, avg: u64| DatasetSpec::new(name, shape.items, avg, 0.25, 4.0);
    let traced = |src: &Arc<dyn DataSource>| -> Arc<dyn DataSource> {
        match rec {
            Some(r) => Arc::new(TracedSource::new(Arc::clone(src), r)),
            None => Arc::clone(src),
        }
    };
    let wrap_backend = |b: Arc<dyn FetchBackend>| -> Arc<dyn FetchBackend> {
        match rec {
            Some(r) => Arc::new(TracedBackend::new(b, r)),
            None => b,
        }
    };
    let config = SessionConfig {
        seed: session_seed,
        ..SessionConfig::default()
    };
    let pipeline = ExecutablePipeline::new(
        prep::PrepPipeline::image_classification(),
        shape.decode_multiplier,
        session_seed,
    );
    let oracle = |key: usize, src: &Arc<dyn DataSource>, seed: u64, batch: usize| {
        Arc::new(StreamOracle::new(
            key,
            Arc::clone(src),
            shape.decode_multiplier,
            seed,
            batch,
        ))
    };

    match workload {
        Workload::PrepBound | Workload::HpSearch => {
            let src: Arc<dyn DataSource> = Arc::new(SyntheticItemStore::new(
                spec(workload.name(), shape.avg_bytes),
                data_seed,
            ));
            let total = total_bytes(&*src);
            let (mode, capacity) = match workload {
                Workload::PrepBound => (Mode::Single, 2 * total),
                _ => (Mode::Coordinated { jobs: 4 }, total / 2),
            };
            let config = SessionConfig {
                cache_capacity_bytes: capacity,
                ..config
            };
            let builder = match rec {
                None => Session::builder(Arc::clone(&src), config.clone()),
                Some(r) => {
                    let tsrc = traced(&src);
                    let tier: Arc<dyn CacheTier> = Arc::new(TracedTier::new(
                        Arc::new(TieredByteCache::single_sharded(
                            PolicyKind::MinIo,
                            capacity,
                            config.resolved_fetch_shards(),
                        )),
                        r,
                    ));
                    Session::builder(Arc::clone(&tsrc), config.clone())
                        .fetch_backend(wrap_backend(Arc::new(DirectBackend::new(tsrc))))
                        .cache_tier(tier)
                }
            };
            let session = builder
                .mode(mode)
                .pipeline(pipeline)
                .build()
                .expect("valid session");
            let o = oracle(0, &src, session_seed, config.batch_size);
            let oracles = vec![o; mode.num_jobs()];
            Built {
                loader: Loader::Session(Box::new(session)),
                oracles,
                io_dir: None,
            }
        }
        Workload::FetchBound => {
            let src: Arc<dyn DataSource> = Arc::new(SyntheticItemStore::new(
                spec(workload.name(), shape.avg_bytes),
                data_seed,
            ));
            let total = total_bytes(&*src);
            let dir = io_root.join(tag);
            let _ = std::fs::remove_dir_all(&dir);
            let traced_vfs = |v: Arc<dyn Vfs>| -> Arc<dyn Vfs> {
                match rec {
                    Some(r) => Arc::new(TracedVfs::new(v, r)),
                    None => v,
                }
            };
            let vfs = traced_vfs(Arc::new(
                OsVfs::new(&dir).expect("create the I/O directory"),
            ));
            let spill_vfs = traced_vfs(Arc::new(MemVfs::new()));
            let tsrc = traced(&src);
            let backend = wrap_backend(Arc::new(
                FsBackend::new(Arc::clone(&vfs), "data", &*tsrc, 0).expect("materialise DATA"),
            ));
            let tiers = vec![
                ByteTierSpec::dram(PolicyKind::MinIo, total / 4),
                ByteTierSpec::sata_ssd(PolicyKind::MinIo, total / 4).persistent(spill_vfs, "spill"),
            ];
            let builder = Session::builder(tsrc, config.clone()).fetch_backend(backend);
            let builder = match rec {
                None => builder.cache_tiers(tiers),
                Some(r) => builder.cache_tier(Arc::new(TracedTier::new(
                    Arc::new(TieredByteCache::new_sharded(
                        tiers,
                        config.resolved_fetch_shards(),
                    )),
                    r,
                ))),
            };
            let session = builder.pipeline(pipeline).build().expect("valid session");
            Built {
                loader: Loader::Session(Box::new(session)),
                oracles: vec![oracle(0, &src, session_seed, config.batch_size)],
                io_dir: Some(dir),
            }
        }
        Workload::MultiTenant => {
            // A small tenant with a large quota and two large tenants with
            // small ones.  The quotas oversubscribe the DRAM tier, so every
            // share is scaled down, and the two large tenants are held to
            // theirs.  The small tenant's unused share keeps every shard
            // below capacity, so which tenant admits first never decides
            // an admission and the counters stay a function of the seed.
            let avgs = [
                shape.avg_bytes / 4,
                shape.avg_bytes,
                shape.avg_bytes * 3 / 2,
            ];
            let sources: Vec<Arc<dyn DataSource>> = avgs
                .iter()
                .enumerate()
                .map(|(t, &avg)| -> Arc<dyn DataSource> {
                    Arc::new(SyntheticItemStore::new(
                        spec(&format!("tenant-{t}"), avg),
                        splitmix(data_seed ^ t as u64),
                    ))
                })
                .collect();
            let totals: Vec<u64> = sources.iter().map(|s| total_bytes(&**s)).collect();
            let capacity = totals[2];
            let quotas = [capacity, capacity / 4, capacity / 4];
            let server = Server::new(ServerConfig::minio(capacity, 4)).expect("valid server");
            let mut tenants = Vec::new();
            let mut oracles = Vec::new();
            for (t, src) in sources.iter().enumerate() {
                let seed = splitmix(session_seed ^ t as u64);
                let config = SessionConfig {
                    seed,
                    num_workers: 1,
                    ..SessionConfig::default()
                };
                oracles.push(oracle(t, src, seed, config.batch_size));
                tenants.push(
                    server
                        .submit(TenantSpec {
                            name: format!("tenant-{t}"),
                            dataset: traced(src),
                            quota_bytes: quotas[t],
                            session: config,
                            profile: None,
                        })
                        .expect("valid tenant"),
                );
            }
            Built {
                loader: Loader::Server { server, tenants },
                oracles,
                io_dir: None,
            }
        }
    }
}

/// Figures of one epoch that only the epoch handle knows.
#[derive(Debug, Clone, Copy, Default)]
pub struct EpochExtras {
    /// Minibatches published to the staging area (coordinated only).
    pub staging_published: u64,
    /// Staging-area high-water mark in bytes (coordinated only).
    pub staging_peak_bytes: u64,
}

impl Built {
    /// The oracles of the workload's streams.
    pub fn oracles(&self) -> &[Arc<StreamOracle>] {
        &self.oracles
    }

    /// Run `epoch`, one consumer step at a time; `record` marks a timed
    /// epoch.
    pub fn run_epoch(&self, epoch: u64, consumer: &mut Consumer, record: bool) -> EpochExtras {
        match &self.loader {
            Loader::Session(session) => {
                let run = session.epoch(epoch);
                let mut streams: Vec<_> = (0..session.num_jobs()).map(|j| run.stream(j)).collect();
                consumer.drive(epoch, &mut streams, &self.oracles, record);
                drop(streams);
                let extras =
                    run.staging()
                        .map(|s| s.stats())
                        .map_or_else(EpochExtras::default, |s| EpochExtras {
                            staging_published: s.published,
                            staging_peak_bytes: s.peak_bytes,
                        });
                drop(run);
                extras
            }
            Loader::Server { tenants, .. } => {
                let runs: Vec<_> = tenants.iter().map(|t| t.session().epoch(epoch)).collect();
                let mut streams: Vec<_> = runs.iter().map(|r| r.stream(0)).collect();
                consumer.drive(epoch, &mut streams, &self.oracles, record);
                EpochExtras::default()
            }
        }
    }

    fn reports(&self) -> Vec<LoaderReport> {
        match &self.loader {
            Loader::Session(s) => vec![s.report()],
            Loader::Server { tenants, .. } => tenants.iter().map(TenantHandle::report).collect(),
        }
    }

    /// The program's cumulative counters, summed over sessions.  Taken
    /// between epochs, when no loader thread runs, two of them bracket the
    /// timed epochs exactly.
    fn totals(&self) -> Totals {
        let mut t = Totals::default();
        for r in self.reports() {
            t.fetch_busy_s += r.fetch_busy_seconds;
            t.fetch_stall_s += r.fetch_stall_seconds;
            t.prep_busy_s += r.prep_busy_seconds;
            t.prep_stall_s += r.prep_stall_seconds;
            t.consumer_wait_s += r.consumer_wait_seconds;
            t.samples_prepared += r.samples_prepared;
            t.samples_delivered += r.samples_delivered;
            t.storage_bytes += r.bytes_from_storage;
            t.cache_bytes += r.bytes_from_cache;
            t.lower_tier_bytes += r.bytes_from_lower_tiers;
            t.cache_hits += r.cache_hits;
            t.cache_misses += r.cache_misses;
            t.lower_tier_hits += r.lower_tier_hits;
        }
        t
    }

    fn sessions(&self) -> Vec<&Session> {
        match &self.loader {
            Loader::Session(s) => vec![&**s],
            Loader::Server { tenants, .. } => tenants.iter().map(|t| t.session()).collect(),
        }
    }

    fn server_figures(&self) -> Option<ServerFigures> {
        let Loader::Server { server, tenants } = &self.loader else {
            return None;
        };
        let requested: u64 = tenants.iter().map(|t| t.quota_bytes()).sum();
        let granted: u64 = tenants.iter().map(|t| t.effective_quota_bytes()).sum();
        Some(ServerFigures {
            hit_ratio: server.aggregate_hit_ratio(),
            dram_used_mb: server.dram_used_bytes() as f64 / 1e6,
            quota_granted_frac: granted as f64 / requested as f64,
        })
    }
}

/// The `Server` accessors' view of a multi-tenant run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerFigures {
    /// Aggregate hit ratio over every fetch since the server started.
    pub hit_ratio: f64,
    /// DRAM tier bytes in use, MB.
    pub dram_used_mb: f64,
    /// Granted ÷ requested DRAM quota, summed over tenants.
    pub quota_granted_frac: f64,
}

/// The program's cumulative counters, summed over sessions
/// ([`Built::totals`]), or their growth over the timed epochs once
/// differenced.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Fetch-stage busy seconds.
    pub fetch_busy_s: f64,
    /// Fetch-stage seconds blocked on prep backpressure.
    pub fetch_stall_s: f64,
    /// Prep-worker busy seconds.
    pub prep_busy_s: f64,
    /// Prep-worker seconds blocked on their queues.
    pub prep_stall_s: f64,
    /// Seconds the program saw consumers wait.
    pub consumer_wait_s: f64,
    /// Samples prepared.
    pub samples_prepared: u64,
    /// Samples delivered.
    pub samples_delivered: u64,
    /// Bytes read from the fetch backend.
    pub storage_bytes: u64,
    /// Bytes served by cache tiers.
    pub cache_bytes: u64,
    /// Of those, bytes served below the first level.
    pub lower_tier_bytes: u64,
    /// Cache hits.
    pub cache_hits: u64,
    /// Cache misses.
    pub cache_misses: u64,
    /// Hits served below the first level.
    pub lower_tier_hits: u64,
}

impl Totals {
    /// The counters that are a pure function of the workload, so a traced
    /// run must reproduce them exactly.
    pub fn deterministic(&self) -> [u64; 8] {
        [
            self.samples_prepared,
            self.samples_delivered,
            self.storage_bytes,
            self.cache_bytes,
            self.lower_tier_bytes,
            self.cache_hits,
            self.cache_misses,
            self.lower_tier_hits,
        ]
    }

    /// The program's work between `before` and `self`.
    fn since(&self, before: &Totals) -> Totals {
        Totals {
            fetch_busy_s: self.fetch_busy_s - before.fetch_busy_s,
            fetch_stall_s: self.fetch_stall_s - before.fetch_stall_s,
            prep_busy_s: self.prep_busy_s - before.prep_busy_s,
            prep_stall_s: self.prep_stall_s - before.prep_stall_s,
            consumer_wait_s: self.consumer_wait_s - before.consumer_wait_s,
            samples_prepared: self.samples_prepared - before.samples_prepared,
            samples_delivered: self.samples_delivered - before.samples_delivered,
            storage_bytes: self.storage_bytes - before.storage_bytes,
            cache_bytes: self.cache_bytes - before.cache_bytes,
            lower_tier_bytes: self.lower_tier_bytes - before.lower_tier_bytes,
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
            lower_tier_hits: self.lower_tier_hits - before.lower_tier_hits,
        }
    }
}

/// When a pass stops its timed epochs.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After the epoch during which `seconds` have passed and at least
    /// `min_steps` steps were taken.
    Seconds {
        /// Minimum timed wall time.
        seconds: f64,
        /// Minimum timed steps.
        min_steps: usize,
    },
    /// After exactly this many timed epochs.
    Epochs(u64),
}

/// What one timed epoch delivered and cost.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EpochSample {
    /// Samples received over all streams.
    pub samples: u64,
    /// Wall seconds.
    pub wall_s: f64,
    /// Process CPU seconds.
    pub cpu_s: f64,
    /// Steps taken.
    pub steps: usize,
    /// Seconds the consumer waited over those steps.
    pub wait_s: f64,
}

/// The outcome of one measured pass of a workload.
pub struct Pass {
    /// Seconds from the start of each set-up to the first timed epoch.
    pub setup_s: Vec<f64>,
    /// Samples, wall and CPU time of each timed epoch.
    pub epochs: Vec<EpochSample>,
    /// Wall seconds of the timed epochs.
    pub wall_s: f64,
    /// Process CPU seconds over the timed epochs.
    pub cpu_s: f64,
    /// Timed epochs run.
    pub timed_epochs: u64,
    /// The consumer of the measured set-up (the later set-ups' warm-up
    /// steps are included in `attempted`/`failed`).
    pub consumer: Consumer,
    /// The program's counters over the measured set-up's whole run.
    pub totals: Totals,
    /// The program's counters over the timed epochs.
    pub timed: Totals,
    /// Minibatches published to the staging area in the timed epochs.
    pub staging_published: u64,
    /// Largest staging-area high-water mark of any timed epoch, bytes.
    pub staging_peak_bytes: u64,
    /// Evictions over every level and session, whole run.
    pub tier_evictions: u64,
    /// Demotions over every level and session, whole run.
    pub tier_demotions: u64,
    /// Server figures (multi-tenant only).
    pub server: Option<ServerFigures>,
    /// The oracles of the measured set-up.
    pub oracles: Vec<Arc<StreamOracle>>,
    /// Process peak RSS (`VmHWM`) right after the timed epochs, MB.
    pub peak_rss_mb: f64,
}

/// Build `workload` and run its warm-up epoch, returning the build, its
/// consumer and the seconds taken.
fn set_up(
    workload: Workload,
    scale: Scale,
    seed: u64,
    rec: Option<&Arc<Recorder>>,
    mode: CheckMode,
    io_root: &Path,
) -> (Built, Consumer, f64) {
    static BUILDS: AtomicUsize = AtomicUsize::new(0);
    if let Some(r) = rec {
        r.set_phase(Phase::Build);
        r.set_epoch(0);
    }
    let started = Instant::now();
    let tag = format!(
        "{}-{}-{}",
        workload.name(),
        std::process::id(),
        BUILDS.fetch_add(1, Ordering::Relaxed)
    );
    let built = build(workload, scale, seed, rec, io_root, &tag);
    if let Some(r) = rec {
        r.set_phase(Phase::Warmup);
    }
    let mut consumer = Consumer::new(mode);
    built.run_epoch(0, &mut consumer, false);
    (built, consumer, started.elapsed().as_secs_f64())
}

/// Set `workload` up, run timed epochs until `stop`, then set it up
/// `setups - 1` more times, timing only the set-up (after the timed epochs,
/// so they neither perturb them nor raise the peak RSS read before them).
#[allow(clippy::too_many_arguments)]
pub fn measure(
    workload: Workload,
    scale: Scale,
    seed: u64,
    rec: Option<&Arc<Recorder>>,
    mode: CheckMode,
    stop: Stop,
    setups: usize,
    io_root: &Path,
) -> Pass {
    assert!(setups >= 1, "at least one set-up");
    let (built, mut consumer, first_setup_s) = set_up(workload, scale, seed, rec, mode, io_root);
    if let Some(r) = rec {
        r.set_phase(Phase::Timed);
    }
    let before = built.totals();
    let mut extras = Vec::new();
    let mut epochs = Vec::new();
    let cpu0 = stats::process_cpu_seconds();
    let started = Instant::now();
    let (mut cpu_mark, mut wall_mark) = (cpu0, started);
    let mut epoch = 1u64;
    loop {
        if let Some(r) = rec {
            r.set_epoch(epoch);
        }
        let (samples_before, steps_before) = (consumer.samples, consumer.step_wait_ns.len());
        extras.push(built.run_epoch(epoch, &mut consumer, true));
        let (cpu_now, wall_now) = (stats::process_cpu_seconds(), Instant::now());
        let waits = &consumer.step_wait_ns[steps_before..];
        epochs.push(EpochSample {
            samples: consumer.samples - samples_before,
            wall_s: (wall_now - wall_mark).as_secs_f64(),
            cpu_s: cpu_now - cpu_mark,
            steps: waits.len(),
            wait_s: waits.iter().sum::<u64>() as f64 / 1e9,
        });
        (cpu_mark, wall_mark) = (cpu_now, wall_now);
        let done = match stop {
            Stop::Seconds { seconds, min_steps } => {
                started.elapsed().as_secs_f64() >= seconds
                    && consumer.step_wait_ns.len() >= min_steps
            }
            Stop::Epochs(n) => epoch >= n,
        };
        if done {
            break;
        }
        epoch += 1;
    }
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = stats::process_cpu_seconds() - cpu0;

    let totals = built.totals();
    let timed = totals.since(&before);
    let levels: Vec<_> = built
        .sessions()
        .iter()
        .flat_map(|s| s.tier_levels())
        .collect();
    let (tier_evictions, tier_demotions) = (
        levels.iter().map(|l| l.evictions).sum(),
        levels.iter().map(|l| l.demoted_in).sum(),
    );
    let server = built.server_figures();
    let oracles = built.oracles.clone();
    drop(built);
    let peak_rss_mb = stats::peak_rss_mb();

    let mut setup_s = vec![first_setup_s];
    for _ in 1..setups {
        let (built, extra, secs) = set_up(workload, scale, seed, None, mode, io_root);
        drop(built);
        setup_s.push(secs);
        consumer.attempted += extra.attempted;
        consumer.failed += extra.failed;
        if consumer.first_failure.is_none() {
            consumer.first_failure = extra.first_failure;
        }
    }
    Pass {
        setup_s,
        epochs,
        wall_s,
        cpu_s,
        timed_epochs: epoch,
        consumer,
        totals,
        timed,
        staging_published: extras.iter().map(|x| x.staging_published).sum(),
        staging_peak_bytes: extras
            .iter()
            .map(|x| x.staging_peak_bytes)
            .max()
            .unwrap_or(0),
        tier_evictions,
        tier_demotions,
        server,
        oracles,
        peak_rss_mb,
    }
}

/// Time `ExecutablePipeline::prepare` directly over up to `max_items` of
/// the workload's items (epoch 1), on this thread.  Returns nanoseconds per
/// sample and raw input MB per second, medians of `rounds` rounds.
pub fn probe_prep(oracle: &StreamOracle, max_items: u64, rounds: usize) -> (f64, f64) {
    let source = oracle.source();
    let items: Vec<u64> = (0..source.len().min(max_items)).collect();
    let raw: Vec<Vec<u8>> = items.iter().map(|&i| source.read(i)).collect();
    let raw_bytes: u64 = raw.iter().map(|r| r.len() as u64).sum();
    let mut ns = Vec::with_capacity(rounds);
    let mut mbps = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let started = Instant::now();
        for (&item, bytes) in items.iter().zip(&raw) {
            std::hint::black_box(
                oracle
                    .pipeline()
                    .prepare(1, item, std::hint::black_box(bytes)),
            );
        }
        let secs = started.elapsed().as_secs_f64();
        ns.push(secs * 1e9 / items.len() as f64);
        mbps.push(raw_bytes as f64 / 1e6 / secs);
    }
    (stats::median(&ns), stats::median(&mbps))
}
