//! Sharded bucket-cache stress tests: N cleaner threads hammering M
//! buckets across shards must never lose or duplicate a bucket — through
//! the home-shard fast path, the work-steal path, batched `get_many`
//! pops, concurrent collective `insert_all` rounds, and `get_timeout`
//! expiry under scarcity. The last test drives the whole allocator with
//! slow cleaners and checks that the refill gate bounds cache memory.
//!
//! CI runs this file with `-C debug-assertions=on` so debug-only checks
//! (e.g. the requeue-only-untouched-buckets assertion) are armed during
//! the hammering.

use alligator::{AllocConfig, AllocStats, Allocator, BucketCache, Infrastructure, PoolExecutor};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;
use waffinity::{Model, Topology, WaffinityPool};
use wafl_blockdev::{DriveKind, GeometryBuilder, IoEngine};
use wafl_metafile::AggregateMap;

/// Build a cache with `shards` shards over `data_drives` drives and fill
/// it with `rounds` collective refill rounds (one bucket per drive per
/// round). Returns the cache, its stats, and the identity set of every
/// bucket in circulation (start VBNs are unique per bucket).
fn warm_cache(
    data_drives: u32,
    rounds: usize,
    shards: usize,
) -> (Arc<BucketCache>, Arc<AllocStats>, HashSet<u64>) {
    let geo = Arc::new(
        GeometryBuilder::new()
            .aa_stripes(64)
            .raid_group(data_drives, 1, 65_536)
            .build(),
    );
    let aggmap = Arc::new(AggregateMap::new(Arc::clone(&geo)));
    let io = Arc::new(IoEngine::new(geo, DriveKind::Ssd));
    let stats = Arc::new(AllocStats::default());
    let cache = Arc::new(BucketCache::with_shards(shards, Arc::clone(&stats)));
    let infra = Infrastructure::new(AllocConfig::with_chunk(8), aggmap, io, Arc::clone(&stats));
    for _ in 0..rounds {
        assert_eq!(infra.refill_round(&cache), data_drives as usize);
    }
    // Drain once to learn every bucket's identity, then reinsert the
    // whole population collectively (§IV-D).
    let mut ids = HashSet::new();
    let mut all = Vec::new();
    while let Some(b) = cache.try_get() {
        assert!(ids.insert(b.start_vbn().0), "refill produced a duplicate");
        all.push(b);
    }
    assert_eq!(ids.len(), data_drives as usize * rounds);
    cache.insert_all(all);
    (cache, stats, ids)
}

/// N threads GET (home fast path + steals), hold, and reinsert; no
/// bucket may be lost, duplicated, or held by two threads at once.
#[test]
fn stress_no_bucket_lost_or_duplicated() {
    const THREADS: usize = 12;
    const ITERS: usize = 600;
    let (cache, stats, ids) = warm_cache(8, 3, 8); // 24 buckets, 8 shards
    let population = ids.len();

    // Any bucket held by two threads at once trips this set.
    let in_flight: Arc<Mutex<HashSet<u64>>> = Arc::new(Mutex::new(HashSet::new()));
    let successes = Arc::new(AtomicU64::new(0));
    let timeouts = Arc::new(AtomicU64::new(0));
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|i| {
            let cache = Arc::clone(&cache);
            let in_flight = Arc::clone(&in_flight);
            let successes = Arc::clone(&successes);
            let timeouts = Arc::clone(&timeouts);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                for iter in 0..ITERS {
                    match cache.get_timeout_from(i, Duration::from_millis(20)) {
                        Some(b) => {
                            let id = b.start_vbn().0;
                            assert!(
                                in_flight.lock().unwrap().insert(id),
                                "bucket {id} held by two threads at once"
                            );
                            if iter % 8 == i % 8 {
                                // Hold across a reschedule so other
                                // cleaners miss their home shard and
                                // must steal.
                                std::thread::yield_now();
                            }
                            assert!(in_flight.lock().unwrap().remove(&id));
                            cache.insert(b);
                            // ordering: statistics counter; staleness is acceptable.
                            successes.fetch_add(1, Ordering::Relaxed);
                        }
                        None => {
                            // ordering: statistics counter; staleness is acceptable.
                            timeouts.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // Conservation: every bucket is back in the cache, each exactly once.
    assert_eq!(cache.len(), population);
    let mut drained = HashSet::new();
    while let Some(b) = cache.try_get() {
        assert!(
            drained.insert(b.start_vbn().0),
            "bucket {} came back twice",
            b.start_vbn().0
        );
    }
    assert_eq!(drained, ids, "the surviving population changed");
    assert!(cache.is_empty());

    // Accounting: every successful GET hit exactly one of the fast or
    // steal counters (the warm-up drain above also popped; include it).
    let s = stats.snapshot();
    // ordering: statistics counter; staleness is acceptable.
    let pops = successes.load(Ordering::Relaxed) + 2 * population as u64;
    assert_eq!(s.cache_get_fast + s.cache_get_steal, pops);
    assert!(
        s.cache_get_steal > 0,
        "12 threads over 8 shards never stole — steal path unexercised"
    );
    // 24 buckets among 12 threads: the cache never runs dry.
    // ordering: test readback.
    assert_eq!(timeouts.load(Ordering::Relaxed), 0);
}

/// Getters run batched `get_many` pops while a publisher keeps feeding
/// retired buckets back through collective `insert_all` rounds — the
/// §IV-D visibility barrier runs concurrently with batched pops, and
/// nothing may be lost or duplicated across it.
#[test]
fn stress_concurrent_insert_all() {
    const GETTERS: usize = 6;
    const DRIVES: u32 = 8;
    const ROUNDS: usize = 2;
    const TARGET_ROUNDS: u64 = 120;
    let (cache, stats, ids) = warm_cache(DRIVES, ROUNDS, DRIVES as usize);

    // Workers retire what they pop here; the publisher re-publishes it
    // in drive-sized collective rounds.
    let retired: Arc<Mutex<Vec<alligator::Bucket>>> = Arc::new(Mutex::new(Vec::new()));
    let stop = Arc::new(AtomicBool::new(false));
    let rounds_published = Arc::new(AtomicU64::new(0));
    let in_flight: Arc<Mutex<HashSet<u64>>> = Arc::new(Mutex::new(HashSet::new()));

    let publisher = {
        let cache = Arc::clone(&cache);
        let retired = Arc::clone(&retired);
        let stop = Arc::clone(&stop);
        let rounds_published = Arc::clone(&rounds_published);
        std::thread::spawn(move || loop {
            let batch: Vec<_> = {
                let mut r = retired.lock().unwrap();
                if r.len() >= DRIVES as usize {
                    r.drain(..DRIVES as usize).collect()
                // ordering: shutdown flag; no data is published through it.
                } else if stop.load(Ordering::Relaxed) {
                    r.drain(..).collect()
                } else {
                    drop(r);
                    std::thread::yield_now();
                    continue;
                }
            };
            // ordering: shutdown flag; no data is published through it.
            let done = stop.load(Ordering::Relaxed) && batch.is_empty();
            if !batch.is_empty() {
                cache.insert_all(batch);
                // ordering: statistics counter; staleness is acceptable.
                rounds_published.fetch_add(1, Ordering::Relaxed);
            }
            if done {
                break;
            }
        })
    };

    let getters: Vec<_> = (0..GETTERS)
        .map(|i| {
            let cache = Arc::clone(&cache);
            let retired = Arc::clone(&retired);
            let stop = Arc::clone(&stop);
            let rounds_published = Arc::clone(&rounds_published);
            let in_flight = Arc::clone(&in_flight);
            std::thread::spawn(move || {
                // ordering: statistics counter; staleness is acceptable.
                while rounds_published.load(Ordering::Relaxed) < TARGET_ROUNDS
                    // ordering: shutdown flag; no data is published through it.
                    && !stop.load(Ordering::Relaxed)
                {
                    let got = cache.get_many_from(i, 3);
                    if got.is_empty() {
                        std::thread::yield_now();
                        continue;
                    }
                    {
                        let mut f = in_flight.lock().unwrap();
                        for b in &got {
                            assert!(
                                f.insert(b.start_vbn().0),
                                "bucket {} held twice",
                                b.start_vbn().0
                            );
                        }
                    }
                    {
                        let mut f = in_flight.lock().unwrap();
                        for b in &got {
                            assert!(f.remove(&b.start_vbn().0));
                        }
                    }
                    retired.lock().unwrap().extend(got);
                }
            })
        })
        .collect();
    for h in getters {
        h.join().unwrap();
    }
    // ordering: shutdown flag; no data is published through it.
    stop.store(true, Ordering::Relaxed);
    publisher.join().unwrap();

    // Conservation across every concurrent insert_all round.
    assert_eq!(cache.len(), ids.len());
    let mut drained = HashSet::new();
    while let Some(b) = cache.try_get() {
        assert!(
            drained.insert(b.start_vbn().0),
            "bucket {} came back twice",
            b.start_vbn().0
        );
    }
    assert_eq!(drained, ids, "the surviving population changed");
    let s = stats.snapshot();
    assert!(
        s.cache_get_fast + s.cache_get_steal > 0,
        "getters never popped"
    );
}

/// Batched pops on a deep single shard: `get_many` must return whole
/// buckets exactly once each and actually batch (one synchronization
/// hands out several same-generation buckets).
#[test]
fn stress_batched_get_many_conserves() {
    const THREADS: usize = 4;
    const DRIVES: u32 = 8;
    let (cache, stats, ids) = warm_cache(DRIVES, 1, 1); // 8 buckets, one shard
    let population = ids.len();

    let held: Arc<Mutex<Vec<alligator::Bucket>>> = Arc::new(Mutex::new(Vec::new()));
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|i| {
            let cache = Arc::clone(&cache);
            let held = Arc::clone(&held);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                loop {
                    let got = cache.get_many_from(i, 3);
                    if got.is_empty() {
                        break;
                    }
                    held.lock().unwrap().extend(got);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    assert!(cache.is_empty());
    let held = Arc::try_unwrap(held).unwrap().into_inner().unwrap();
    assert_eq!(held.len(), population, "buckets lost or duplicated");
    let drained: HashSet<u64> = held.iter().map(|b| b.start_vbn().0).collect();
    assert_eq!(drained, ids);
    let s = stats.snapshot();
    assert!(
        s.cache_get_batched > 0,
        "a deep single shard of one generation must yield batches"
    );
}

#[test]
fn stress_get_timeout_expires_under_scarcity() {
    const THREADS: usize = 6;
    const ITERS: usize = 40;
    let (cache, stats, ids) = warm_cache(2, 1, 2); // 2 buckets, 6 threads

    // An empty-adjacent cache still answers a bounded-time GET miss.
    let successes = Arc::new(AtomicU64::new(0));
    let timeouts = Arc::new(AtomicU64::new(0));
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|i| {
            let cache = Arc::clone(&cache);
            let successes = Arc::clone(&successes);
            let timeouts = Arc::clone(&timeouts);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                for _ in 0..ITERS {
                    match cache.get_timeout_from(i, Duration::from_millis(1)) {
                        Some(b) => {
                            // Hold well past the other getters' timeout.
                            std::thread::sleep(Duration::from_millis(3));
                            cache.insert(b);
                            // ordering: statistics counter; staleness is acceptable.
                            successes.fetch_add(1, Ordering::Relaxed);
                        }
                        None => {
                            // ordering: statistics counter; staleness is acceptable.
                            timeouts.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    assert!(
        // ordering: statistics counter; staleness is acceptable.
        timeouts.load(Ordering::Relaxed) > 0,
        "6 threads over 2 long-held buckets must see expiries"
    );
    // ordering: test readback.
    assert!(successes.load(Ordering::Relaxed) > 0);

    // Expiries lose nothing: both buckets are back.
    let mut drained = HashSet::new();
    while let Some(b) = cache.try_get() {
        drained.insert(b.start_vbn().0);
    }
    assert_eq!(drained, ids);
    let s = stats.snapshot();
    assert!(
        // ordering: statistics counter; staleness is acceptable.
        s.cache_blocked_gets >= timeouts.load(Ordering::Relaxed),
        "every expiry went through the blocked-GET path"
    );
}

/// Cache memory is bounded by the refill gate alone: a GET requests a
/// refill round only when the cache has dropped below `low_watermark`,
/// and at most one round is in flight. Slow cleaners take batches,
/// hold them, and requeue the unused tails while refills run on a real
/// Waffinity pool. Counting requeued tails as cache content, nothing
/// else adds buckets, so the cache can never hold more than
/// `low_watermark` + one round (a bucket per data drive) + every
/// cleaner's tail. Requesting a refill on every GET instead grows the
/// cache by a round per GET and trips the bound.
#[test]
fn stress_cache_len_bounded_under_slow_cleaners() {
    const CLEANERS: usize = 4;
    const DATA_DRIVES: u32 = 4;
    const BATCH: usize = 2;
    const ITERS: usize = 40;
    let topo = Arc::new(Topology::symmetric(Model::Hierarchical, 1, 1, 4, 4));
    let pool = Arc::new(WaffinityPool::new(Arc::clone(&topo), 2));
    let geo = Arc::new(
        GeometryBuilder::new()
            .aa_stripes(64)
            .raid_group(DATA_DRIVES, 1, 65_536)
            .build(),
    );
    let aggmap = Arc::new(AggregateMap::new(Arc::clone(&geo)));
    let io = Arc::new(IoEngine::new(geo, DriveKind::Ssd));
    // Two drives per shard, so a round leaves two same-generation
    // buckets in each shard and BATCH-sized GETs really batch.
    let cfg = AllocConfig {
        cache_shards: 2,
        ..AllocConfig::with_chunk(8)
    };
    let alloc = Allocator::new(
        cfg,
        aggmap,
        io,
        Arc::new(PoolExecutor::new(Arc::clone(&pool))),
        topo,
        0,
    );
    let bound = cfg.low_watermark + DATA_DRIVES as usize + CLEANERS * (BATCH - 1);

    let peak = Arc::new(AtomicUsize::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let sampler = {
        let alloc = Arc::clone(&alloc);
        let peak = Arc::clone(&peak);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            // ordering: shutdown flag; no data is published through it.
            while !stop.load(Ordering::Relaxed) {
                // ordering: test-local high-water mark.
                peak.fetch_max(alloc.cache().len(), Ordering::Relaxed);
                std::thread::yield_now();
            }
        })
    };
    let barrier = Arc::new(Barrier::new(CLEANERS));
    let cleaners: Vec<_> = (0..CLEANERS)
        .map(|i| {
            let alloc = Arc::clone(&alloc);
            let peak = Arc::clone(&peak);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                for _ in 0..ITERS {
                    let mut batch = alloc
                        .get_bucket_many(i, BATCH)
                        .expect("aggregate has space");
                    // ordering: test-local high-water mark.
                    peak.fetch_max(alloc.cache().len(), Ordering::Relaxed);
                    let mut b = batch.remove(0);
                    while b.use_vbn(1).is_some() {}
                    // A slow cleaner: refills land while the tail is held.
                    std::thread::sleep(Duration::from_millis(1));
                    for tail in batch {
                        alloc.requeue_bucket(tail);
                    }
                    // ordering: test-local high-water mark.
                    peak.fetch_max(alloc.cache().len(), Ordering::Relaxed);
                    alloc.put_bucket(b);
                }
            })
        })
        .collect();
    for h in cleaners {
        h.join().unwrap();
    }
    // ordering: shutdown flag; no data is published through it.
    stop.store(true, Ordering::Relaxed);
    sampler.join().unwrap();
    alloc.flush_cache();
    alloc.infra().aggmap().verify().unwrap();

    let s = alloc.stats();
    assert!(
        s.refill_rounds >= 10,
        "the run must exercise repeated refills ({} rounds)",
        s.refill_rounds
    );
    assert!(
        s.cache_get_batched > 0,
        "cleaners never took a batch, so no tail was requeued"
    );
    // ordering: test readback after every writer joined.
    let peak = peak.load(Ordering::Relaxed);
    assert!(
        peak <= bound,
        "cache held {peak} buckets, above low_watermark {} + one round {} + tails {}",
        cfg.low_watermark,
        DATA_DRIVES,
        CLEANERS * (BATCH - 1)
    );
}
