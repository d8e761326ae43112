//! Model-checked invariants for `alligator::BucketCache` — the
//! mutex-sharded GET path with its fill-scan steals, the collective
//! multi-shard `insert_all`, batched `get_many`, and the waiter
//! protocol — explored under the controlled scheduler (`alligator` is
//! built with `--features mc` here).
//!
//! Replay a failure with `MC_REPLAY=<seed> cargo test -p mc <test>`;
//! see `crates/mc/README.md`.

use alligator::{AllocStats, Bucket, BucketCache, Tetris};
use std::sync::Arc;
use std::time::Duration;
use wafl_blockdev::{AaId, DriveId, DriveKind, GeometryBuilder, IoEngine, RaidGroupId, Vbn};

/// One shared (model-invisible) I/O engine: bucket construction cost is
/// paid once per test, not once per bucket per schedule.
fn engine() -> Arc<IoEngine> {
    Arc::new(IoEngine::new(
        Arc::new(
            GeometryBuilder::new()
                .aa_stripes(32)
                .raid_group(1, 1, 4096)
                .build(),
        ),
        DriveKind::Ssd,
    ))
}

fn mk_bucket(engine: &Arc<IoEngine>, drive: u32, start: u64, generation: u64) -> Bucket {
    let t = Tetris::new(
        RaidGroupId(0),
        1,
        Arc::clone(engine),
        Arc::new(AllocStats::default()),
    );
    Bucket::new(
        RaidGroupId(0),
        0,
        DriveId(drive),
        AaId {
            rg: RaidGroupId(0),
            index: 0,
        },
        (start..start + 4).map(Vbn).collect(),
        0,
        t,
        generation,
    )
}

fn cache(nshards: usize) -> Arc<BucketCache> {
    Arc::new(BucketCache::with_shards(
        nshards,
        Arc::new(AllocStats::default()),
    ))
}

/// Bucket conservation across concurrent GETs (home hits and steals):
/// every inserted bucket is delivered to exactly one consumer, none are
/// lost, none are duplicated — under every explored interleaving. Also
/// witnesses liveness: with 3 buckets and 2 getters, neither getter may
/// need its (virtual) timeout.
#[test]
fn concurrent_gets_conserve_buckets() {
    let eng = engine();
    mc::Checker::new("cache-conservation")
        .schedules(300)
        .check(|| {
            let c = cache(2);
            c.insert_all([
                mk_bucket(&eng, 0, 0, 1),
                mk_bucket(&eng, 1, 100, 1),
                mk_bucket(&eng, 2, 200, 1),
            ]);
            let c1 = Arc::clone(&c);
            let t1 = mc::thread::spawn(move || {
                c1.get_timeout_from(0, Duration::from_secs(5))
                    .map(|b| b.start_vbn().0)
            });
            let c2 = Arc::clone(&c);
            let t2 = mc::thread::spawn(move || {
                c2.get_timeout_from(1, Duration::from_secs(5))
                    .map(|b| b.start_vbn().0)
            });
            let mut got = Vec::new();
            got.extend(t1.join().unwrap());
            got.extend(t2.join().unwrap());
            assert_eq!(got.len(), 2, "a getter starved with buckets available");
            assert_eq!(mc::timeouts_fired(), 0, "a getter needed its timeout");
            while let Some(b) = c.try_get() {
                got.push(b.start_vbn().0);
            }
            got.sort_unstable();
            assert_eq!(got, vec![0, 100, 200], "bucket lost or duplicated");
        });
}

/// §IV-D collective visibility: a getter that observes any bucket of a
/// refill batch observes the whole batch. With a 2-bucket batch and a
/// single consumer, the first successful GET implies the second cannot
/// miss.
#[test]
fn insert_all_is_collectively_visible() {
    let eng = engine();
    mc::Checker::new("cache-collective")
        .schedules(300)
        .check(|| {
            let c = cache(2);
            let c1 = Arc::clone(&c);
            let eng1 = Arc::clone(&eng);
            let pub1 = mc::thread::spawn(move || {
                c1.insert_all([mk_bucket(&eng1, 0, 0, 1), mk_bucket(&eng1, 1, 100, 1)]);
            });
            let c2 = Arc::clone(&c);
            let get = mc::thread::spawn(move || {
                if c2.try_get_from(0).is_some() {
                    // Half the batch was visible — the other half must be too.
                    assert!(
                        c2.try_get_from(1).is_some(),
                        "observed a partially published batch"
                    );
                }
            });
            pub1.join().unwrap();
            get.join().unwrap();
        });
}

/// Oldest-round-first: a getter racing one or two collective publishes
/// must receive the round-1 bucket, and no round may be buried under a
/// newer one — whichever interleaving the publishes take, the cache
/// drains in round order.
#[test]
fn oldest_round_pops_first_despite_publish_races() {
    let eng = engine();
    mc::Checker::new("cache-oldest-first")
        .schedules(400)
        .check(|| {
            let c = cache(1);
            c.insert_all([mk_bucket(&eng, 0, 0, 1)]);
            let c1 = Arc::clone(&c);
            let getter = mc::thread::spawn(move || c1.try_get_from(0).map(|b| b.generation()));
            let c2 = Arc::clone(&c);
            let eng2 = Arc::clone(&eng);
            let publisher = mc::thread::spawn(move || {
                c2.insert_all([mk_bucket(&eng2, 0, 100, 2)]);
                c2.insert_all([mk_bucket(&eng2, 0, 200, 3)]);
            });
            let got = getter.join().unwrap();
            publisher.join().unwrap();
            assert_eq!(
                got,
                Some(1),
                "getter must receive the oldest round (round 1 was never consumed)"
            );
            let mut gens = Vec::new();
            while let Some(b) = c.try_get() {
                gens.push(b.generation());
            }
            let mut sorted = gens.clone();
            sorted.sort_unstable();
            assert_eq!(gens, sorted, "an older round was buried: {gens:?}");
        });
}

/// No lost wakeup: a getter parked on shard 1 must be woken by an
/// insert into shard 0 (cross-shard `wake_parked`), and must never need
/// the virtual timeout to make progress. A schedule where the park and
/// the insert interleave so the notify is missed shows up as
/// `timeouts_fired() == 1` — a scheduler-proven liveness failure, not a
/// wall-clock race.
#[test]
fn cross_shard_insert_never_loses_a_wakeup() {
    let eng = engine();
    mc::Checker::new("cache-lost-wakeup")
        .schedules(400)
        .check(|| {
            let c = cache(2);
            let c1 = Arc::clone(&c);
            let waiter = mc::thread::spawn(move || c1.get_timeout_from(1, Duration::from_secs(5)));
            c.insert(mk_bucket(&eng, 0, 0, 1));
            let got = waiter.join().unwrap();
            assert!(got.is_some(), "waiter timed out with a bucket available");
            assert_eq!(
                mc::timeouts_fired(),
                0,
                "wakeup was lost: the waiter only progressed via its timeout"
            );
        });
}

/// Batched GET vs a racing collective publish: the batch never mixes
/// refill rounds, never loses buckets, and leaves the cache drainable
/// in round order.
#[test]
fn get_many_respects_round_boundary_under_publish() {
    let eng = engine();
    mc::Checker::new("cache-batch-boundary")
        .schedules(400)
        .check(|| {
            let c = cache(1);
            c.insert_all([mk_bucket(&eng, 0, 0, 1), mk_bucket(&eng, 0, 10, 1)]);
            let c1 = Arc::clone(&c);
            let batcher = mc::thread::spawn(move || {
                c1.get_many_from(0, 8)
                    .into_iter()
                    .map(|b| (b.generation(), b.start_vbn().0))
                    .collect::<Vec<_>>()
            });
            let c2 = Arc::clone(&c);
            let eng2 = Arc::clone(&eng);
            let publisher = mc::thread::spawn(move || {
                c2.insert_all([mk_bucket(&eng2, 0, 100, 2), mk_bucket(&eng2, 0, 110, 2)]);
            });
            let batch = batcher.join().unwrap();
            publisher.join().unwrap();
            assert!(
                !batch.is_empty(),
                "batched GET starved with buckets present"
            );
            assert!(
                batch.iter().all(|&(g, _)| g == 1),
                "batch mixed rounds or skipped round 1: {batch:?}"
            );
            let mut all: Vec<(u64, u64)> = batch;
            let mut drain_gens = Vec::new();
            while let Some(b) = c.try_get() {
                drain_gens.push(b.generation());
                all.push((b.generation(), b.start_vbn().0));
            }
            let mut sorted = drain_gens.clone();
            sorted.sort_unstable();
            assert_eq!(
                drain_gens, sorted,
                "drain out of round order: {drain_gens:?}"
            );
            all.sort_unstable();
            assert_eq!(
                all.iter().map(|&(_, v)| v).collect::<Vec<_>>(),
                vec![0, 10, 100, 110],
                "bucket lost or duplicated across the batch"
            );
        });
}
