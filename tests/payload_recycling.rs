//! Payload buffer recycling between delivered minibatches and prep.
//!
//! Each epoch's executor owns a small `PayloadPool`: prep workers prepare
//! into buffers taken from it, and a delivered `Minibatch` gives its buffers
//! back when its last reference drops.  These tests pin the safety side of
//! that contract in every delivery path (single stream, coordinated staging
//! area, `Server` tenant):
//!
//! * a buffer is never reused while a batch still references it — batches
//!   held until the epoch ends carry exactly the reference payload, even
//!   while the batches dropped around them are recycled into new prep;
//! * holding or dropping batches does not change the stream;
//! * the pool never holds more idle buffers than its cap.

use datastalls::coordl::{
    Minibatch, Mode, PayloadPool, Server, ServerConfig, Session, SessionConfig, TenantSpec,
};
use datastalls::prelude::*;
use std::sync::Arc;
use std::time::Duration;

const EPOCHS: u64 = 3;

fn store(items: u64, seed: u64) -> Arc<dyn DataSource> {
    Arc::new(SyntheticItemStore::new(
        DatasetSpec::new("recycle", items, 300, 0.5, 4.0),
        seed,
    ))
}

fn pipeline() -> ExecutablePipeline {
    ExecutablePipeline::new(PrepPipeline::image_classification(), 6, 17)
}

fn config() -> SessionConfig {
    SessionConfig {
        batch_size: 8,
        seed: 23,
        cache_capacity_bytes: 16 << 20,
        staging_window: 4,
        take_timeout: Duration::from_secs(30),
        ..SessionConfig::default()
    }
}

fn session(source: &Arc<dyn DataSource>, mode: Mode) -> Session {
    Session::builder(Arc::clone(source), config())
        .mode(mode)
        .pipeline(pipeline())
        .build()
        .expect("valid session")
}

/// Which delivered batches a consumer keeps until the epoch ends; the rest
/// it drops at once, so their buffers are recycled into later prep.
#[derive(Clone, Copy, Debug)]
enum Hold {
    All,
    None,
    EveryThird,
}

impl Hold {
    fn keeps(self, index: usize) -> bool {
        match self {
            Hold::All => true,
            Hold::None => false,
            Hold::EveryThird => index.is_multiple_of(3),
        }
    }
}

/// FNV-1a over everything a consumer observes of one batch.
fn mix_batch(mut h: u64, mb: &Minibatch) -> u64 {
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    mix(&mb.epoch.to_le_bytes());
    mix(&mb.index.to_le_bytes());
    for s in &mb.samples {
        mix(&s.item.to_le_bytes());
        mix(&s.augmentation_seed.to_le_bytes());
        mix(&(s.data.len() as u64).to_le_bytes());
        mix(&s.data);
    }
    h
}

/// Every payload of `held` must be `reference`'s prep of its raw item.
fn assert_payloads_intact(
    source: &dyn DataSource,
    reference: &ExecutablePipeline,
    held: &[Arc<Minibatch>],
    what: &str,
) {
    for mb in held {
        for s in &mb.samples {
            let expected = reference.prepare(mb.epoch, s.item, &source.read(s.item));
            assert!(
                s.data == expected.data,
                "{what}: epoch {} batch {} item {} was overwritten while held",
                mb.epoch,
                mb.index,
                s.item
            );
        }
    }
}

/// Check the pool bound on every delivered batch's pool.
fn assert_within_cap(mb: &Minibatch) -> Arc<PayloadPool> {
    let pool = mb
        .payload_pool()
        .expect("executor-delivered batches recycle into their epoch's pool");
    assert!(
        pool.idle() <= pool.cap(),
        "{} idle buffers exceed the cap {}",
        pool.idle(),
        pool.cap()
    );
    Arc::clone(pool)
}

/// Drain one stream under `hold`; return the stream digest, the batches
/// kept, and the epoch's pool.
fn drain(
    stream: impl Iterator<Item = Result<Arc<Minibatch>, datastalls::coordl::CoordlError>>,
    hold: Hold,
) -> (u64, Vec<Arc<Minibatch>>, Option<Arc<PayloadPool>>) {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut kept = Vec::new();
    let mut pool = None;
    for mb in stream {
        let mb = mb.expect("failure-free epoch");
        pool = Some(assert_within_cap(&mb));
        digest = mix_batch(digest, &mb);
        if hold.keeps(mb.index) {
            kept.push(mb);
        }
    }
    (digest, kept, pool)
}

/// Single-mode digests per epoch under `hold`, checking held payloads.
fn single_digests(hold: Hold) -> Vec<u64> {
    let source = store(96, 3);
    let session = session(&source, Mode::Single);
    (0..EPOCHS)
        .map(|epoch| {
            let run = session.epoch(epoch);
            let (digest, kept, pool) = drain(run.stream(0), hold);
            assert_payloads_intact(&*source, &pipeline(), &kept, &format!("single {hold:?}"));
            let pool = pool.expect("the epoch delivered batches");
            let samples: usize = kept.iter().map(|mb| mb.len()).sum();
            drop(kept);
            assert!(pool.idle() <= pool.cap());
            if samples >= pool.cap() {
                assert_eq!(pool.idle(), pool.cap(), "dropped batches refill the pool");
            }
            digest
        })
        .collect()
}

#[test]
fn single_mode_never_reuses_a_buffer_that_is_still_held() {
    let held_all = single_digests(Hold::All);
    let held_some = single_digests(Hold::EveryThird);
    let dropped = single_digests(Hold::None);
    assert_eq!(
        held_all, dropped,
        "holding batches must not change the stream"
    );
    assert_eq!(held_some, dropped);
}

/// Coordinated digests (one per job per epoch) under `hold`.
fn coordinated_digests(hold: Hold) -> Vec<Vec<u64>> {
    let source = store(72, 5);
    let jobs = 3;
    let session = session(&source, Mode::Coordinated { jobs });
    (0..EPOCHS)
        .map(|epoch| {
            let run = session.epoch(epoch);
            std::thread::scope(|scope| {
                let consumers: Vec<_> = (0..jobs)
                    .map(|job| {
                        let stream = run.stream(job);
                        scope.spawn(move || drain(stream, hold))
                    })
                    .collect();
                let results: Vec<_> = consumers
                    .into_iter()
                    .map(|c| c.join().expect("consumer thread"))
                    .collect();
                for (_, kept, _) in &results {
                    let what = format!("coordinated {hold:?}");
                    assert_payloads_intact(&*source, &pipeline(), kept, &what);
                }
                results.into_iter().map(|(digest, _, _)| digest).collect()
            })
        })
        .collect()
}

#[test]
fn coordinated_mode_never_reuses_a_buffer_that_is_still_held() {
    let held_all = coordinated_digests(Hold::All);
    let held_some = coordinated_digests(Hold::EveryThird);
    let dropped = coordinated_digests(Hold::None);
    for epoch in &dropped {
        assert!(
            epoch.windows(2).all(|w| w[0] == w[1]),
            "every job sees one stream"
        );
    }
    assert_eq!(
        held_all, dropped,
        "holding batches must not change the stream"
    );
    assert_eq!(held_some, dropped);
}

/// One `Server` tenant's digests per epoch under `hold`.
fn tenant_digests(hold: Hold) -> Vec<u64> {
    let source = store(80, 7);
    let server = Server::new(ServerConfig::minio(1 << 20, 2)).expect("valid server");
    let tenant = server
        .submit(TenantSpec {
            name: "recycler".into(),
            dataset: Arc::clone(&source),
            quota_bytes: 1 << 20,
            session: SessionConfig {
                num_workers: 1,
                ..config()
            },
            profile: None,
        })
        .expect("valid tenant");
    // A tenant session runs the default pipeline, seeded from its config.
    let reference = ExecutablePipeline::new(PrepPipeline::image_classification(), 6, config().seed);
    (0..EPOCHS)
        .map(|epoch| {
            let run = tenant.session().epoch(epoch);
            let (digest, kept, _) = drain(run.stream(0), hold);
            assert_payloads_intact(&*source, &reference, &kept, &format!("tenant {hold:?}"));
            digest
        })
        .collect()
}

#[test]
fn server_tenants_never_reuse_a_buffer_that_is_still_held() {
    let held_all = tenant_digests(Hold::All);
    let held_some = tenant_digests(Hold::EveryThird);
    let dropped = tenant_digests(Hold::None);
    assert_eq!(
        held_all, dropped,
        "holding batches must not change the stream"
    );
    assert_eq!(held_some, dropped);
}
