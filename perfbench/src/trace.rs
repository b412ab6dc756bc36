//! Span tracing from outside the program: timing decorators for the public
//! layer traits (`DataSource`, `Vfs`, `FetchBackend`, `CacheTier`).
//!
//! Each decorator forwards every trait method to the wrapped value, so the
//! program's streams, counters and reports are unchanged; the methods that
//! do a layer's work additionally record a span.  Spans nest through a
//! thread-local stack: a span's parent is the span open on the same thread
//! when it began (a `vfs.read` inside a `backend.read`, a `vfs.sync` inside
//! a `tier.admit`), and a span with no item of its own inherits its parent's
//! `(epoch, item)` key.  A layer's self time is its span time minus the
//! time its child spans cover.
//!
//! Aggregates (calls, bytes, busy and self time, errors) are kept for every
//! span; the spans themselves are kept in memory up to a cap and written as
//! Chrome trace-event JSON by [`Recorder::write_chrome_trace`].

use coordl::{CacheTier, CoordlError, FetchBackend, TierSnapshot};
use dataset::{DataSource, ItemId};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use storage::DeviceProfile;
use vfs::{AlignedSpan, FileHandle, Vfs, VfsError, VfsStats};

/// One traced layer operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `DataSource::read`.
    DatasetRead,
    /// `Vfs::read_at` / `Vfs::read_aligned`.
    VfsRead,
    /// `Vfs::write_at`.
    VfsWrite,
    /// `Vfs::sync`.
    VfsSync,
    /// `FetchBackend::read`.
    BackendRead,
    /// `CacheTier::lookup` / `CacheTier::lookup_traced`.
    TierLookup,
    /// `CacheTier::admit`.
    TierAdmit,
}

impl Op {
    /// Every op, in table order.
    pub const ALL: [Op; 7] = [
        Op::DatasetRead,
        Op::VfsRead,
        Op::VfsWrite,
        Op::VfsSync,
        Op::BackendRead,
        Op::TierLookup,
        Op::TierAdmit,
    ];

    /// Span name, `layer.operation`.
    pub fn name(self) -> &'static str {
        match self {
            Op::DatasetRead => "dataset.read",
            Op::VfsRead => "vfs.read",
            Op::VfsWrite => "vfs.write",
            Op::VfsSync => "vfs.sync",
            Op::BackendRead => "backend.read",
            Op::TierLookup => "tier.lookup",
            Op::TierAdmit => "tier.admit",
        }
    }
}

/// Which part of a run a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Building the dataset, backend, cache and session.
    Build = 0,
    /// The untimed warm-up epoch.
    Warmup = 1,
    /// The timed epochs.
    Timed = 2,
}

impl Phase {
    fn from_index(i: usize) -> Phase {
        match i {
            0 => Phase::Build,
            1 => Phase::Warmup,
            _ => Phase::Timed,
        }
    }
}

/// Aggregate of one op in one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpStats {
    /// Calls made.
    pub calls: u64,
    /// Payload bytes moved.
    pub bytes: u64,
    /// Wall nanoseconds inside the call.
    pub busy_ns: u64,
    /// `busy_ns` minus the time covered by child spans.
    pub self_ns: u64,
    /// Calls that returned an error.
    pub errors: u64,
}

impl OpStats {
    fn add(&mut self, other: &OpStats) {
        self.calls += other.calls;
        self.bytes += other.bytes;
        self.busy_ns += other.busy_ns;
        self.self_ns += other.self_ns;
        self.errors += other.errors;
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
struct Span {
    id: u64,
    parent: u64,
    op: Op,
    thread: usize,
    start_ns: u64,
    dur_ns: u64,
    epoch: u64,
    item: Option<ItemId>,
}

/// Spans kept per phase for the trace file; aggregates cover every span.
const SPAN_CAP_PER_PHASE: usize = 60_000;

struct Tables {
    stats: [[OpStats; 3]; Op::ALL.len()],
    spans: [Vec<Span>; 3],
    vfs_read_ns: Vec<u64>,
    root_ns: [u64; 3],
}

/// The collector every decorator of one traced pass reports to.
pub struct Recorder {
    origin: Instant,
    phase: AtomicUsize,
    epoch: AtomicU64,
    next_id: AtomicU64,
    tables: Mutex<Tables>,
}

struct Frame {
    id: u64,
    epoch: u64,
    item: Option<ItemId>,
    child_ns: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    static THREAD: usize = next_thread_index();
}

fn next_thread_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// What a finished call reports about itself.
#[derive(Default)]
struct Outcome {
    bytes: u64,
    error: bool,
}

impl Recorder {
    /// A fresh recorder in the build phase.
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            origin: Instant::now(),
            phase: AtomicUsize::new(Phase::Build as usize),
            epoch: AtomicU64::new(0),
            next_id: AtomicU64::new(1),
            tables: Mutex::new(Tables {
                stats: [[OpStats::default(); 3]; Op::ALL.len()],
                spans: [Vec::new(), Vec::new(), Vec::new()],
                vfs_read_ns: Vec::new(),
                root_ns: [0; 3],
            }),
        })
    }

    /// Enter `phase`; spans that begin afterwards are attributed to it.
    pub fn set_phase(&self, phase: Phase) {
        self.phase.store(phase as usize, Ordering::SeqCst);
    }

    /// Set the epoch that spans beginning afterwards belong to.
    pub fn set_epoch(&self, epoch: u64) {
        self.epoch.store(epoch, Ordering::SeqCst);
    }

    /// Aggregate of `op` over `phases`.
    pub fn stats(&self, op: Op, phases: &[Phase]) -> OpStats {
        let tables = self.tables.lock().expect("trace tables poisoned");
        let mut total = OpStats::default();
        for &phase in phases {
            total.add(&tables.stats[op_index(op)][phase as usize]);
        }
        total
    }

    /// Wall nanoseconds covered by outermost spans in `phase` (spans with no
    /// traced parent), i.e. the traced share of the calling threads' time.
    pub fn root_ns(&self, phase: Phase) -> u64 {
        self.tables.lock().expect("trace tables poisoned").root_ns[phase as usize]
    }

    /// The `q`-quantile (nearest rank) of timed-phase `vfs.read` durations,
    /// in nanoseconds (0 when there were none).
    pub fn vfs_read_quantile_ns(&self, q: f64) -> u64 {
        let mut d = self
            .tables
            .lock()
            .expect("trace tables poisoned")
            .vfs_read_ns
            .clone();
        d.sort_unstable();
        crate::stats::nearest_rank(&d, q).unwrap_or(0)
    }

    fn span<T>(&self, op: Op, item: Option<ItemId>, call: impl FnOnce() -> (T, Outcome)) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let phase = self.phase.load(Ordering::Relaxed);
        let (parent, epoch, item) = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let (parent, epoch, inherited) = match s.last() {
                Some(f) => (f.id, f.epoch, f.item),
                None => (0, self.epoch.load(Ordering::Relaxed), None),
            };
            let item = item.or(inherited);
            s.push(Frame {
                id,
                epoch,
                item,
                child_ns: 0,
            });
            (parent, epoch, item)
        });
        let start = Instant::now();
        let (value, outcome) = call();
        let dur_ns = start.elapsed().as_nanos() as u64;
        let child_ns = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let frame = s.pop().expect("span stack underflow");
            if let Some(up) = s.last_mut() {
                up.child_ns += dur_ns;
            }
            frame.child_ns
        });
        let start_ns = start.duration_since(self.origin).as_nanos() as u64;
        let thread = THREAD.with(|t| *t);
        let mut tables = self.tables.lock().expect("trace tables poisoned");
        let acc = &mut tables.stats[op_index(op)][phase];
        acc.calls += 1;
        acc.bytes += outcome.bytes;
        acc.busy_ns += dur_ns;
        acc.self_ns += dur_ns.saturating_sub(child_ns);
        acc.errors += u64::from(outcome.error);
        if parent == 0 {
            tables.root_ns[phase] += dur_ns;
        }
        if op == Op::VfsRead && phase == Phase::Timed as usize {
            tables.vfs_read_ns.push(dur_ns);
        }
        if tables.spans[phase].len() < SPAN_CAP_PER_PHASE {
            tables.spans[phase].push(Span {
                id,
                parent,
                op,
                thread,
                start_ns,
                dur_ns,
                epoch,
                item,
            });
        }
        value
    }

    /// Write the kept spans as Chrome trace-event JSON (load it in
    /// `chrome://tracing` or Perfetto).  Returns the number of spans
    /// written.
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<usize> {
        let tables = self.tables.lock().expect("trace tables poisoned");
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        let mut written = 0usize;
        for (phase, spans) in tables.spans.iter().enumerate() {
            let phase_name = match Phase::from_index(phase) {
                Phase::Build => "build",
                Phase::Warmup => "warmup",
                Phase::Timed => "timed",
            };
            for s in spans {
                if written > 0 {
                    out.push_str(",\n");
                }
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                     \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"epoch\":{}",
                    s.op.name(),
                    phase_name,
                    s.thread,
                    s.start_ns as f64 / 1e3,
                    s.dur_ns as f64 / 1e3,
                    s.id,
                    s.parent,
                    s.epoch,
                );
                if let Some(item) = s.item {
                    let _ = write!(out, ",\"item\":{item}");
                }
                out.push_str("}}");
                written += 1;
            }
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(out.as_bytes())?;
        file.flush()?;
        Ok(written)
    }
}

fn op_index(op: Op) -> usize {
    Op::ALL
        .iter()
        .position(|&o| o == op)
        .expect("op listed in Op::ALL")
}

/// A traced [`DataSource`].
pub struct TracedSource {
    inner: Arc<dyn DataSource>,
    rec: Arc<Recorder>,
}

impl TracedSource {
    /// Wrap `inner`, reporting to `rec`.
    pub fn new(inner: Arc<dyn DataSource>, rec: &Arc<Recorder>) -> Self {
        TracedSource {
            inner,
            rec: Arc::clone(rec),
        }
    }
}

impl DataSource for TracedSource {
    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn item_bytes(&self, item: ItemId) -> u64 {
        self.inner.item_bytes(item)
    }

    fn read(&self, item: ItemId) -> Vec<u8> {
        self.rec.span(Op::DatasetRead, Some(item), || {
            let bytes = self.inner.read(item);
            let outcome = Outcome {
                bytes: bytes.len() as u64,
                ..Outcome::default()
            };
            (bytes, outcome)
        })
    }
}

/// A traced [`Vfs`].
pub struct TracedVfs {
    inner: Arc<dyn Vfs>,
    rec: Arc<Recorder>,
}

impl TracedVfs {
    /// Wrap `inner`, reporting to `rec`.
    pub fn new(inner: Arc<dyn Vfs>, rec: &Arc<Recorder>) -> Self {
        TracedVfs {
            inner,
            rec: Arc::clone(rec),
        }
    }
}

fn io_outcome<T>(result: &Result<T, VfsError>, bytes: u64) -> Outcome {
    Outcome {
        bytes: if result.is_ok() { bytes } else { 0 },
        error: result.is_err(),
    }
}

impl Vfs for TracedVfs {
    fn open(&self, path: &str, create: bool) -> Result<FileHandle, VfsError> {
        self.inner.open(path, create)
    }

    fn read_at(&self, file: FileHandle, offset: u64, len: usize) -> Result<Vec<u8>, VfsError> {
        self.rec.span(Op::VfsRead, None, || {
            let r = self.inner.read_at(file, offset, len);
            let n = r.as_ref().map_or(0, |b| b.len() as u64);
            let outcome = io_outcome(&r, n);
            (r, outcome)
        })
    }

    fn write_at(&self, file: FileHandle, offset: u64, data: &[u8]) -> Result<(), VfsError> {
        self.rec.span(Op::VfsWrite, None, || {
            let r = self.inner.write_at(file, offset, data);
            let outcome = io_outcome(&r, data.len() as u64);
            (r, outcome)
        })
    }

    fn sync(&self, file: FileHandle) -> Result<(), VfsError> {
        self.rec.span(Op::VfsSync, None, || {
            let r = self.inner.sync(file);
            let outcome = io_outcome(&r, 0);
            (r, outcome)
        })
    }

    fn len(&self, file: FileHandle) -> Result<u64, VfsError> {
        self.inner.len(file)
    }

    fn close(&self, file: FileHandle) -> Result<(), VfsError> {
        self.inner.close(file)
    }

    fn exists(&self, path: &str) -> bool {
        self.inner.exists(path)
    }

    fn remove(&self, path: &str) -> Result<(), VfsError> {
        self.inner.remove(path)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn stats(&self) -> VfsStats {
        self.inner.stats()
    }

    fn read_aligned(
        &self,
        file: FileHandle,
        offset: u64,
        len: usize,
        readahead_pages: u32,
    ) -> Result<AlignedSpan, VfsError> {
        self.rec.span(Op::VfsRead, None, || {
            let r = self.inner.read_aligned(file, offset, len, readahead_pages);
            let n = r.as_ref().map_or(0, |s| s.data.len() as u64);
            let outcome = io_outcome(&r, n);
            (r, outcome)
        })
    }
}

/// A traced [`FetchBackend`].
pub struct TracedBackend {
    inner: Arc<dyn FetchBackend>,
    rec: Arc<Recorder>,
}

impl TracedBackend {
    /// Wrap `inner`, reporting to `rec`.
    pub fn new(inner: Arc<dyn FetchBackend>, rec: &Arc<Recorder>) -> Self {
        TracedBackend {
            inner,
            rec: Arc::clone(rec),
        }
    }
}

impl FetchBackend for TracedBackend {
    fn num_items(&self) -> u64 {
        self.inner.num_items()
    }

    fn item_bytes(&self, item: ItemId) -> u64 {
        self.inner.item_bytes(item)
    }

    fn read(&self, item: ItemId) -> Result<Vec<u8>, CoordlError> {
        self.rec.span(Op::BackendRead, Some(item), || {
            let r = self.inner.read(item);
            let outcome = Outcome {
                bytes: r.as_ref().map_or(0, |b| b.len() as u64),
                error: r.is_err(),
            };
            (r, outcome)
        })
    }

    fn profile(&self) -> Option<&DeviceProfile> {
        self.inner.profile()
    }

    fn device_seconds(&self) -> f64 {
        self.inner.device_seconds()
    }

    fn measured_seconds(&self) -> f64 {
        self.inner.measured_seconds()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// A traced [`CacheTier`].
pub struct TracedTier {
    inner: Arc<dyn CacheTier>,
    rec: Arc<Recorder>,
}

impl TracedTier {
    /// Wrap `inner`, reporting to `rec`.
    pub fn new(inner: Arc<dyn CacheTier>, rec: &Arc<Recorder>) -> Self {
        TracedTier {
            inner,
            rec: Arc::clone(rec),
        }
    }
}

impl CacheTier for TracedTier {
    fn lookup(&self, item: ItemId) -> Option<Arc<Vec<u8>>> {
        self.rec.span(Op::TierLookup, Some(item), || {
            let r = self.inner.lookup(item);
            let outcome = Outcome {
                bytes: r.as_ref().map_or(0, |b| b.len() as u64),
                ..Outcome::default()
            };
            (r, outcome)
        })
    }

    fn admit(&self, item: ItemId, bytes: Arc<Vec<u8>>) -> Arc<Vec<u8>> {
        let len = bytes.len() as u64;
        self.rec.span(Op::TierAdmit, Some(item), || {
            let r = self.inner.admit(item, bytes);
            let outcome = Outcome {
                bytes: len,
                ..Outcome::default()
            };
            (r, outcome)
        })
    }

    fn contains(&self, item: ItemId) -> bool {
        self.inner.contains(item)
    }

    fn used_bytes(&self) -> u64 {
        self.inner.used_bytes()
    }

    fn capacity_bytes(&self) -> u64 {
        self.inner.capacity_bytes()
    }

    fn resident_items(&self) -> usize {
        self.inner.resident_items()
    }

    fn hits(&self) -> u64 {
        self.inner.hits()
    }

    fn misses(&self) -> u64 {
        self.inner.misses()
    }

    fn policy_name(&self) -> &'static str {
        self.inner.policy_name()
    }

    fn lookup_traced(&self, item: ItemId) -> Option<(Arc<Vec<u8>>, usize)> {
        self.rec.span(Op::TierLookup, Some(item), || {
            let r = self.inner.lookup_traced(item);
            let outcome = Outcome {
                bytes: r.as_ref().map_or(0, |(b, _)| b.len() as u64),
                ..Outcome::default()
            };
            (r, outcome)
        })
    }

    fn tier_snapshots(&self) -> Vec<TierSnapshot> {
        self.inner.tier_snapshots()
    }
}
