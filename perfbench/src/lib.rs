//! Runtime benchmark of the `coordl` data loader.
//!
//! One process runs one workload.  With tracing off it reports the
//! end-to-end metrics a user of the loader sees; with tracing on it runs
//! the workload twice — plain, then with every layer wrapped in a timing
//! decorator — and reports per-layer figures, the tracing overhead, and
//! whether the two runs delivered identical streams and counters.  See
//! `README.md` beside this crate for the definitions.

pub mod oracle;
pub mod stats;
pub mod trace;
pub mod workload;

use oracle::CheckMode;
use std::fmt::Write as _;
use std::path::PathBuf;
use trace::{Op, OpStats, Phase, Recorder};
use workload::{measure, probe_prep, Scale, Stop, Workload};

/// End-to-end metrics printed in the result line with tracing off, with
/// their units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("samples_per_s", "samples/s"),
    ("step_wait_mean_ms", "ms"),
    ("setup_s", "s"),
    ("cpu_us_per_sample", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics printed in the result line with tracing on, with
/// their units.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("dataset.read.calls", "count"),
    ("dataset.read.mb", "MB"),
    ("dataset.read.busy_s", "s"),
    ("vfs.read.calls", "count"),
    ("vfs.read.mb", "MB"),
    ("vfs.read.busy_s", "s"),
    ("vfs.read.p99_us", "us"),
    ("vfs.write.calls", "count"),
    ("vfs.write.mb", "MB"),
    ("vfs.write.busy_s", "s"),
    ("vfs.sync.calls", "count"),
    ("vfs.sync.busy_s", "s"),
    ("backend.read.calls", "count"),
    ("backend.read.mb", "MB"),
    ("backend.read.busy_s", "s"),
    ("backend.read.self_s", "s"),
    ("backend.read.errors", "count"),
    ("tier.lookup.calls", "count"),
    ("tier.lookup.busy_s", "s"),
    ("tier.hit_ratio", "ratio"),
    ("tier.lower_hit_ratio", "ratio"),
    ("tier.admit.calls", "count"),
    ("tier.admit.busy_s", "s"),
    ("tier.admit.self_s", "s"),
    ("tier.evictions", "count"),
    ("tier.demotions", "count"),
    ("prep.ns_per_sample", "ns"),
    ("prep.mb_per_s", "MB/s"),
    ("prep.busy_s", "s"),
    ("executor.fetch_busy_s", "s"),
    ("executor.fetch_stall_s", "s"),
    ("executor.prep_stall_s", "s"),
    ("executor.consumer_wait_s", "s"),
    ("staging.published", "count"),
    ("staging.peak_mb", "MB"),
    ("staging.take_wait_s", "s"),
    ("server.hit_ratio", "ratio"),
    ("server.dram_used_mb", "MB"),
    ("server.quota_granted_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.fetch_coverage", "ratio"),
    ("trace.prep_coverage", "ratio"),
    ("storage_mb_per_epoch", "MB"),
];

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Timed steps an untraced full-scale run takes at least, so that at
/// least ten step waits lie beyond the p99.
pub const MIN_TIMED_STEPS: usize = 1000;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Timed seconds (the traced run splits them over its two passes).
    pub seconds: f64,
    /// Run the traced per-layer measurement instead of the end-to-end one.
    pub trace: bool,
    /// Workload size.
    pub scale: Scale,
    /// Directory file-backed workloads keep their files in.
    pub io_root: PathBuf,
    /// Directory the trace file is written to.
    pub out_dir: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Human-readable lines, printed before the result line.
    pub lines: Vec<String>,
    /// Whether every output check passed.
    pub correct: bool,
    /// Steps attempted.
    pub attempted: u64,
    /// Steps failed.
    pub failed: u64,
    /// The metrics of the result line.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Pair each `(name, value)` with its unit from `spec`, which lists the
/// same names in the same order.
fn with_units(spec: &[(&'static str, &'static str)], values: &[(&str, f64)]) -> Vec<Metric> {
    assert_eq!(spec.len(), values.len(), "one value per metric");
    spec.iter()
        .zip(values)
        .map(|(&(name, unit), &(given, value))| {
            assert_eq!(name, given, "values listed in metric order");
            Metric { name, value, unit }
        })
        .collect()
}

/// Consecutive timed steps per p99 window: the p99 of 1000 steps has ten
/// steps beyond it.
pub const P99_WINDOW: usize = 1000;

/// The p99 step wait in ms of each window of [`P99_WINDOW`] consecutive
/// steps (of all steps when there are fewer), and the median over windows,
/// which a burst of host noise in one window cannot move.  Returns the
/// median and the number of windows.
fn windowed_p99(waits_ns: &[u64]) -> (f64, usize) {
    let windows: Vec<&[u64]> = if waits_ns.len() < 2 * P99_WINDOW {
        vec![waits_ns]
    } else {
        waits_ns.chunks_exact(P99_WINDOW).collect()
    };
    let p99s: Vec<f64> = windows
        .iter()
        .map(|w| {
            let mut w = w.to_vec();
            w.sort_unstable();
            stats::nearest_rank(&w, 0.99).unwrap_or(0) as f64 / 1e6
        })
        .collect();
    (stats::median(&p99s), p99s.len())
}

fn min_steps(scale: Scale) -> usize {
    match scale {
        Scale::Full => MIN_TIMED_STEPS,
        Scale::Tiny => 0,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Run `opts`.
pub fn run(opts: &Options) -> Report {
    if opts.trace {
        run_traced(opts)
    } else {
        run_untraced(opts)
    }
}

fn run_untraced(opts: &Options) -> Report {
    let pass = measure(
        opts.workload,
        opts.scale,
        opts.seed,
        None,
        CheckMode::Sparse,
        Stop::Seconds {
            seconds: opts.seconds,
            min_steps: min_steps(opts.scale),
        },
        SETUPS,
        &opts.io_root,
    );
    let c = &pass.consumer;
    let mut waits = c.step_wait_ns.clone();
    waits.sort_unstable();
    let steps = waits.len();
    let p50 = stats::nearest_rank(&waits, 0.50).unwrap_or(0) as f64 / 1e6;
    let (p99, windows) = windowed_p99(&c.step_wait_ns);
    let samples = c.samples as f64;
    let rates: Vec<f64> = pass
        .epochs
        .iter()
        .map(|e| e.samples as f64 / e.wall_s)
        .collect();
    let cpu_per_sample: Vec<f64> = pass
        .epochs
        .iter()
        .map(|e| e.cpu_s * 1e6 / e.samples as f64)
        .collect();
    let mean_waits: Vec<f64> = pass
        .epochs
        .iter()
        .map(|e| e.wait_s * 1e3 / e.steps as f64)
        .collect();
    let failed_frac = ratio(c.failed as f64, c.attempted as f64);
    let metrics = with_units(
        &END_TO_END,
        &[
            ("samples_per_s", stats::median(&rates)),
            ("step_wait_mean_ms", stats::median(&mean_waits)),
            ("setup_s", stats::median(&pass.setup_s)),
            ("cpu_us_per_sample", stats::median(&cpu_per_sample)),
            ("peak_rss_mb", pass.peak_rss_mb),
        ],
    );
    let storage_mb = pass.timed.storage_bytes as f64 / 1e6 / pass.timed_epochs as f64;
    let notes = [
        format!(
            "median of {} timed epochs; n={} samples in {:.3} s wall, {:.1} overall",
            pass.timed_epochs,
            c.samples,
            pass.wall_s,
            samples / pass.wall_s
        ),
        format!(
            "median of {} timed epochs' means; n={steps} steps",
            pass.timed_epochs
        ),
        format!(
            "median of {} set-ups: {:?}",
            pass.setup_s.len(),
            pass.setup_s
        ),
        format!(
            "median of {} timed epochs; {:.3} CPU s in all, {:.2} overall",
            pass.timed_epochs,
            pass.cpu_s,
            pass.cpu_s * 1e6 / samples
        ),
        "VmHWM after the timed epochs".to_string(),
    ];
    let mut lines = vec![format!(
        "perfbench {} seed {} (untraced, {} s timed, {} core(s))",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    )];
    for (m, note) in metrics.iter().zip(&notes) {
        lines.push(format!(
            "  {:<22} {:>14.4} {:<10} ({note})",
            m.name, m.value, m.unit
        ));
    }
    lines.push(format!(
        "  {:<22} {:>14.4} {:<10} (n={steps} steps; not in the result line, see README)",
        "step_wait_p50_ms", p50, "ms"
    ));
    lines.push(format!(
        "  {:<22} {:>14.4} {:<10} (median over {windows} windows of {P99_WINDOW} steps, \
         10 beyond in each; n={steps} steps; not in the result line, see README)",
        "step_wait_p99_ms", p99, "ms"
    ));
    lines.push(format!(
        "  {:<22} {:>14.4} {:<10} (n={} timed epochs)",
        "storage_mb_per_epoch", storage_mb, "MB", pass.timed_epochs
    ));
    lines.push(format!(
        "  {:<22} {:>14.4} {:<10} (n={} steps attempted, {} failed)",
        "failed_frac", failed_frac, "ratio", c.attempted, c.failed
    ));
    if let Some(why) = &c.first_failure {
        lines.push(format!("  first failure: {why}"));
    }
    lines.push(format!(
        "  consumer wall time: {:.3} s waiting in next, {:.3} s checking, of {:.3} s timed",
        c.step_wait_ns.iter().sum::<u64>() as f64 / 1e9,
        c.check_ns as f64 / 1e9,
        pass.wall_s
    ));
    lines.push(format!("  stream digest {:016x}", c.digest));
    Report {
        lines,
        correct: c.failed == 0,
        attempted: c.attempted,
        failed: c.failed,
        metrics,
    }
}

fn run_traced(opts: &Options) -> Report {
    let w = opts.workload;
    let plain = measure(
        w,
        opts.scale,
        opts.seed,
        None,
        CheckMode::Full,
        Stop::Seconds {
            seconds: opts.seconds / 2.0,
            min_steps: 0,
        },
        1,
        &opts.io_root,
    );
    let rec = Recorder::new();
    let mut traced = measure(
        w,
        opts.scale,
        opts.seed,
        Some(&rec),
        CheckMode::Full,
        Stop::Epochs(plain.timed_epochs),
        1,
        &opts.io_root,
    );
    let oracles = traced.oracles.clone();
    let verified = traced.consumer.verify_full(&oracles);

    let all = [Phase::Build, Phase::Warmup, Phase::Timed];
    let timed = [Phase::Timed];
    let dataset = rec.stats(Op::DatasetRead, &all);
    let vfs_read = rec.stats(Op::VfsRead, &timed);
    let vfs_write = rec.stats(Op::VfsWrite, &all);
    let vfs_sync = rec.stats(Op::VfsSync, &all);
    let spill_writes = rec.stats(Op::VfsWrite, &[Phase::Warmup, Phase::Timed]);
    let backend = rec.stats(Op::BackendRead, &timed);
    let lookup = rec.stats(Op::TierLookup, &timed);
    let admit = rec.stats(Op::TierAdmit, &timed);
    let t = &traced.timed;
    let lookups = (t.cache_hits + t.cache_misses) as f64;
    let hit_ratio = ratio(t.cache_hits as f64, lookups);
    let lower_hit_ratio = ratio(t.lower_tier_hits as f64, lookups);

    let mut keys: Vec<_> = oracles.iter().map(|o| o.key).collect();
    keys.dedup();
    let probes: Vec<(f64, f64)> = keys
        .iter()
        .map(|&k| {
            let o = oracles.iter().find(|o| o.key == k).expect("oracle for key");
            probe_prep(o, 256, 5)
        })
        .collect();
    let prep_ns = probes.iter().map(|p| p.0).sum::<f64>() / probes.len() as f64;
    let prep_mbps = probes.iter().map(|p| p.1).sum::<f64>() / probes.len() as f64;

    let plain_rate = plain.consumer.samples as f64 / plain.wall_s;
    let traced_rate = traced.consumer.samples as f64 / traced.wall_s;
    let overhead = 1.0 - ratio(traced_rate, plain_rate);
    let root_s = rec.root_ns(Phase::Timed) as f64 / 1e9;
    let fetch_coverage = ratio(root_s, t.fetch_busy_s);
    let prep_model_s = prep_ns * t.samples_prepared as f64 / 1e9;
    let prep_coverage = ratio(prep_model_s, t.prep_busy_s);
    let take_wait_s = if w == Workload::HpSearch {
        traced.consumer.stream_wait_ns.iter().sum::<u64>() as f64 / 1e9
    } else {
        0.0
    };
    let server = traced.server.unwrap_or(workload::ServerFigures {
        hit_ratio: 0.0,
        dram_used_mb: 0.0,
        quota_granted_frac: 0.0,
    });
    let mb = |s: &OpStats| s.bytes as f64 / 1e6;
    let sec = |ns: u64| ns as f64 / 1e9;
    let metrics = with_units(
        &PER_LAYER,
        &[
            ("dataset.read.calls", dataset.calls as f64),
            ("dataset.read.mb", mb(&dataset)),
            ("dataset.read.busy_s", sec(dataset.busy_ns)),
            ("vfs.read.calls", vfs_read.calls as f64),
            ("vfs.read.mb", mb(&vfs_read)),
            ("vfs.read.busy_s", sec(vfs_read.busy_ns)),
            (
                "vfs.read.p99_us",
                rec.vfs_read_quantile_ns(0.99) as f64 / 1e3,
            ),
            ("vfs.write.calls", vfs_write.calls as f64),
            ("vfs.write.mb", mb(&vfs_write)),
            ("vfs.write.busy_s", sec(vfs_write.busy_ns)),
            ("vfs.sync.calls", vfs_sync.calls as f64),
            ("vfs.sync.busy_s", sec(vfs_sync.busy_ns)),
            ("backend.read.calls", backend.calls as f64),
            ("backend.read.mb", mb(&backend)),
            ("backend.read.busy_s", sec(backend.busy_ns)),
            ("backend.read.self_s", sec(backend.self_ns)),
            ("backend.read.errors", backend.errors as f64),
            ("tier.lookup.calls", lookup.calls as f64),
            ("tier.lookup.busy_s", sec(lookup.busy_ns)),
            ("tier.hit_ratio", hit_ratio),
            ("tier.lower_hit_ratio", lower_hit_ratio),
            ("tier.admit.calls", admit.calls as f64),
            ("tier.admit.busy_s", sec(admit.busy_ns)),
            ("tier.admit.self_s", sec(admit.self_ns)),
            ("tier.evictions", traced.tier_evictions as f64),
            ("tier.demotions", traced.tier_demotions as f64),
            ("prep.ns_per_sample", prep_ns),
            ("prep.mb_per_s", prep_mbps),
            ("prep.busy_s", t.prep_busy_s),
            ("executor.fetch_busy_s", t.fetch_busy_s),
            ("executor.fetch_stall_s", t.fetch_stall_s),
            ("executor.prep_stall_s", t.prep_stall_s),
            ("executor.consumer_wait_s", t.consumer_wait_s),
            ("staging.published", traced.staging_published as f64),
            ("staging.peak_mb", traced.staging_peak_bytes as f64 / 1e6),
            ("staging.take_wait_s", take_wait_s),
            ("server.hit_ratio", server.hit_ratio),
            ("server.dram_used_mb", server.dram_used_mb),
            ("server.quota_granted_frac", server.quota_granted_frac),
            ("trace.overhead_frac", overhead),
            ("trace.fetch_coverage", fetch_coverage),
            ("trace.prep_coverage", prep_coverage),
            (
                "storage_mb_per_epoch",
                t.storage_bytes as f64 / 1e6 / traced.timed_epochs as f64,
            ),
        ],
    );

    let workers = coordl::SessionConfig::default().num_workers as f64;
    let guards: Vec<(String, bool)> = match w {
        Workload::PrepBound => vec![
            (
                format!("tier.hit_ratio == 1 (timed; {hit_ratio})"),
                t.cache_misses == 0 && t.cache_hits > 0,
            ),
            (
                format!("backend.read.calls == 0 (timed; {})", backend.calls),
                backend.calls == 0,
            ),
            (
                format!(
                    "prep.busy_s >= 10 x executor.fetch_busy_s ({:.4} vs {:.4})",
                    t.prep_busy_s, t.fetch_busy_s
                ),
                t.prep_busy_s >= 10.0 * t.fetch_busy_s,
            ),
        ],
        Workload::FetchBound => vec![
            (
                format!(
                    "executor.fetch_busy_s > prep.busy_s / workers ({:.4} vs {:.4} / {workers})",
                    t.fetch_busy_s, t.prep_busy_s
                ),
                t.fetch_busy_s > t.prep_busy_s / workers,
            ),
            (
                format!("vfs.read.calls > 0 (timed; {})", vfs_read.calls),
                vfs_read.calls > 0,
            ),
            (
                format!("spill vfs.write.calls > 0 ({})", spill_writes.calls),
                spill_writes.calls > 0,
            ),
            (
                format!("0 < tier.hit_ratio < 1 (timed; {hit_ratio})"),
                hit_ratio > 0.0 && hit_ratio < 1.0,
            ),
        ],
        Workload::HpSearch => vec![(
            format!(
                "samples prepared x 4 == delivered (timed; {} x 4 vs {})",
                t.samples_prepared, t.samples_delivered
            ),
            t.samples_prepared * 4 == t.samples_delivered,
        )],
        Workload::MultiTenant => vec![(
            format!(
                "server.quota_granted_frac < 1 ({})",
                server.quota_granted_frac
            ),
            server.quota_granted_frac < 1.0,
        )],
    };

    let digest_ok = plain.consumer.digest == traced.consumer.digest;
    let counters_ok = plain.totals.deterministic() == traced.totals.deterministic();
    let attempted = plain.consumer.attempted + traced.consumer.attempted;
    let failed = plain.consumer.failed + traced.consumer.failed;
    let trace_path = opts
        .out_dir
        .join(format!("trace-{}-seed{}.json", w.name(), opts.seed));
    let written = rec.write_chrome_trace(&trace_path);

    let mut lines = vec![format!(
        "perfbench {} seed {} (traced: {} plain + {} traced timed epochs, {} core(s))",
        w.name(),
        opts.seed,
        plain.timed_epochs,
        traced.timed_epochs,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    )];
    lines.push(format!(
        "  {:<14} {:<7} {:>9} {:>10} {:>10} {:>10} {:>6}",
        "span", "phases", "calls", "MB", "busy_s", "self_s", "errors"
    ));
    let table = [
        (Op::DatasetRead, "all", dataset),
        (Op::VfsRead, "timed", vfs_read),
        (Op::VfsWrite, "all", vfs_write),
        (Op::VfsSync, "all", vfs_sync),
        (Op::BackendRead, "timed", backend),
        (Op::TierLookup, "timed", lookup),
        (Op::TierAdmit, "timed", admit),
    ];
    for (op, phases, s) in &table {
        lines.push(format!(
            "  {:<14} {:<7} {:>9} {:>10.3} {:>10.4} {:>10.4} {:>6}",
            op.name(),
            phases,
            s.calls,
            mb(s),
            sec(s.busy_ns),
            sec(s.self_ns),
            s.errors
        ));
    }
    for m in &metrics {
        lines.push(format!("  {:<28} {:>14.6} {}", m.name, m.value, m.unit));
    }
    lines.push(format!(
        "  trace.overhead_frac = 1 - {traced_rate:.1} / {plain_rate:.1} samples/s (traced / plain)"
    ));
    lines.push(format!(
        "  trace.fetch_coverage = {root_s:.4} s outermost span time / {:.4} s executor.fetch_busy_s",
        t.fetch_busy_s
    ));
    lines.push(format!(
        "  trace.prep_coverage = {prep_ns:.1} ns x {} samples prepared = {prep_model_s:.4} s / {:.4} s prep.busy_s",
        t.samples_prepared, t.prep_busy_s
    ));
    lines.push(format!(
        "  stream digest plain {:016x} traced {:016x}: {}",
        plain.consumer.digest,
        traced.consumer.digest,
        if digest_ok { "equal" } else { "DIFFERENT" }
    ));
    lines.push(format!(
        "  LoaderStats counters: {}",
        if counters_ok {
            "equal".to_string()
        } else {
            format!(
                "DIFFERENT plain {:?} traced {:?}",
                plain.totals.deterministic(),
                traced.totals.deterministic()
            )
        }
    ));
    lines.push(format!("  payloads verified against prepare(): {verified}"));
    for (what, ok) in &guards {
        lines.push(format!(
            "  guard {}: {what}",
            if *ok { "ok  " } else { "FAIL" }
        ));
    }
    for c in [&plain.consumer, &traced.consumer] {
        if let Some(why) = &c.first_failure {
            lines.push(format!("  first failure: {why}"));
        }
    }
    let trace_ok = match written {
        Ok(n) => {
            lines.push(format!("  trace file {} ({n} spans)", trace_path.display()));
            true
        }
        Err(e) => {
            lines.push(format!(
                "  trace file {} not written: {e}",
                trace_path.display()
            ));
            false
        }
    };
    Report {
        lines,
        correct: failed == 0 && digest_ok && counters_ok && trace_ok && guards.iter().all(|g| g.1),
        attempted,
        failed,
        metrics,
    }
}
