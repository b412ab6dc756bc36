//! Every workload at tiny scale: untraced and traced runs are correct,
//! streams are a pure function of the seed, the oracle rejects corrupted
//! output, and the metric names agree with `BENCHMARK.json`.

use perfbench::oracle::{CheckMode, Consumer, Corruption};
use perfbench::workload::{build, Scale, Workload};
use perfbench::{run, Options, Report, END_TO_END, PER_LAYER};
use std::path::PathBuf;

fn tmp(sub: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(sub)
}

fn tiny(workload: Workload, seed: u64, trace: bool) -> Report {
    run(&Options {
        workload,
        seed,
        seconds: 0.2,
        trace,
        scale: Scale::Tiny,
        io_root: tmp("io"),
        out_dir: tmp("out"),
    })
}

#[test]
fn every_workload_runs_untraced_with_no_failures() {
    for w in Workload::ALL {
        let r = tiny(w, 7, false);
        assert!(r.correct, "{}: {:#?}", w.name(), r.lines);
        assert_eq!(r.failed, 0, "{}", w.name());
        assert!(r.attempted > 0, "{}", w.name());
        let names: Vec<_> = r.metrics.iter().map(|m| m.name).collect();
        let expected: Vec<_> = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names, expected, "{}", w.name());
        for m in &r.metrics {
            assert!(m.value > 0.0, "{} {} = {}", w.name(), m.name, m.value);
        }
    }
}

#[test]
fn every_workload_runs_traced_with_equal_streams_and_passing_guards() {
    for w in Workload::ALL {
        let r = tiny(w, 7, true);
        assert!(r.correct, "{}: {:#?}", w.name(), r.lines);
        let names: Vec<_> = r.metrics.iter().map(|m| m.name).collect();
        let expected: Vec<_> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names, expected, "{}", w.name());
        assert!(
            r.lines
                .iter()
                .any(|l| l.contains("stream digest") && l.ends_with("equal")),
            "{}",
            w.name()
        );
        let trace = tmp("out").join(format!("trace-{}-seed7.json", w.name()));
        let text = std::fs::read_to_string(&trace).expect("trace file written");
        assert!(text.starts_with('{') && text.contains("\"traceEvents\""));
    }
}

/// Digest of the first three epochs of `workload` built for `seed`.
fn digest(workload: Workload, seed: u64) -> u64 {
    let built = build(workload, Scale::Tiny, seed, None, &tmp("io"), "digest");
    let mut consumer = Consumer::new(CheckMode::Sparse);
    for epoch in 0..3 {
        built.run_epoch(epoch, &mut consumer, true);
    }
    assert_eq!(consumer.failed, 0, "{}", workload.name());
    consumer.digest
}

#[test]
fn the_same_seed_repeats_and_another_seed_reorders() {
    for w in Workload::ALL {
        assert_eq!(digest(w, 11), digest(w, 11), "{}", w.name());
        assert_ne!(digest(w, 11), digest(w, 12), "{}", w.name());
    }
}

#[test]
fn a_corrupted_batch_is_counted_as_failed() {
    for w in Workload::ALL {
        let built = build(w, Scale::Tiny, 5, None, &tmp("io"), "corrupt");
        let mut consumer = Consumer::new(CheckMode::Sparse);
        consumer.corrupt_at(1, 2, Corruption::Length);
        for epoch in 0..3 {
            built.run_epoch(epoch, &mut consumer, true);
        }
        assert_eq!(consumer.failed, 1, "{}", w.name());
        assert!(consumer.attempted > 1);
        let why = consumer.first_failure.expect("failure recorded");
        assert!(why.contains("batch 2"), "{}: {why}", w.name());
    }
}

#[test]
fn full_checking_catches_a_payload_that_keeps_its_length() {
    let built = build(
        Workload::PrepBound,
        Scale::Tiny,
        5,
        None,
        &tmp("io"),
        "full",
    );
    let mut consumer = Consumer::new(CheckMode::Full);
    consumer.corrupt_at(1, 0, Corruption::Payload);
    for epoch in 0..2 {
        built.run_epoch(epoch, &mut consumer, true);
    }
    let verified = consumer.verify_full(built.oracles());
    assert!(verified > 0);
    assert_eq!(consumer.failed, 1, "{:?}", consumer.first_failure);
}

/// The `"name"` values of the array under `key` in `BENCHMARK.json`.
fn names_under(json: &str, key: &str) -> Vec<String> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let open = start + json[start..].find('[').expect("array");
    let close = open + json[open..].find(']').expect("array end");
    json[open..close]
        .split("\"name\"")
        .skip(1)
        .map(|s| {
            let s = &s[s.find('"').expect("name value") + 1..];
            s[..s.find('"').expect("name end")].to_string()
        })
        .collect()
}

#[test]
fn metric_names_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let e2e: Vec<String> = END_TO_END.iter().map(|m| m.0.to_string()).collect();
    let layers: Vec<String> = PER_LAYER.iter().map(|m| m.0.to_string()).collect();
    assert_eq!(names_under(&json, "end_to_end"), e2e);
    assert_eq!(names_under(&json, "per_layer"), layers);
    let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(names_under(&json, "workloads"), workloads);
}
