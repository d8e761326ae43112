//! The bucket cache: the shared pool of available buckets.
//!
//! "These buckets are then enqueued … to a lock-protected list of
//! available buckets called the bucket cache that is filled by the
//! infrastructure and consumed by the cleaner threads" (§IV-A). "White
//! Alligator maintains a lock-protected set of buckets called a bucket
//! cache and keeps this list non-empty to ensure that the GET operation
//! does not block" (§IV-D).
//!
//! GET is a single synchronization event per *bucket* (i.e., per
//! `chunk` VBNs) — the amortization of §IV-C. The cache is **sharded**
//! per drive (keyed off [`Bucket::drive`]): each shard is a
//! mutex-protected FIFO with a condvar for blocked getters.
//!
//! * cleaner *i* GETs from shard `i % nshards` first (its *affinity
//!   shard*) and work-steals on a miss;
//! * **equal progress**: a GET takes its home shard only when no other
//!   shard is fuller, otherwise it steals from the fullest. Refill
//!   rounds deposit one bucket per drive (§IV-D), so consuming
//!   fullest-first keeps per-drive consumption — and therefore
//!   per-drive fill progress, DESIGN.md invariant 7 — balanced for any
//!   number of cleaners. "Fullest" comes from an O(nshards) scan of
//!   per-shard fill counters, which are atomics read without locks.
//!   Ties go to home, then to the shards of home's RAID group, so a CP
//!   smaller than a refill round fills whole stripes in one group;
//! * FIFO order within a shard pops the oldest refill round first, so
//!   no round's tetris is left permanently partial;
//! * [`BucketCache::insert_all`] publishes a refill batch
//!   *collectively*: it holds every destination shard lock (taken in
//!   ascending shard order) while appending, so no getter can observe
//!   half a batch (§IV-D);
//! * [`BucketCache::get_many_from`] pops up to `k` same-round buckets
//!   from the home shard under **one** lock acquisition, amortizing GET
//!   synchronization per *batch* the way §IV-C amortizes it per chunk;
//! * a global [`AtomicUsize`] length keeps `len`/`is_empty` (the
//!   starvation and low-watermark checks) lock-free;
//! * contention is observable: home vs stolen vs batched pops, lock
//!   wait time, and blocked GETs all count into [`AllocStats`].
//!
//! [`BucketCache::new`] builds a single-shard cache — the pre-sharding
//! baseline for tests and the `exp_cache_contention` single-lock curve.
//!
//! All synchronization comes through [`crate::sync`], so `--features
//! mc` routes every atomic access, lock, and condvar wait below through
//! the model checker's controlled scheduler.

use crate::bucket::Bucket;
use crate::stats::AllocStats;
use crate::sync::atomic::{AtomicUsize, Ordering};
use crate::sync::{Condvar, Mutex, MutexGuard};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One shard: a FIFO of buckets for the drives that map to it.
#[derive(Debug)]
struct Shard {
    q: Mutex<VecDeque<Bucket>>, // lock-rank: cache.shard 60 via lock_shard
    available: Condvar,
    waiters: AtomicUsize,
    /// Shard population, readable without the lock. Drives the
    /// equal-progress scan; updated under `q` so it equals `q.len()`
    /// whenever the lock is free.
    fill: AtomicUsize,
}

impl Shard {
    fn new() -> Self {
        Self {
            q: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            waiters: AtomicUsize::new(0),
            fill: AtomicUsize::new(0),
        }
    }
}

/// Drive-sharded pool of available buckets.
#[derive(Debug)]
pub struct BucketCache {
    shards: Box<[Shard]>,
    /// RAID group of each shard's drive: equal-fill steals stay in the
    /// getter's home group first.
    groups: Box<[usize]>,
    /// Total buckets across all shards (lock-free `len`/`is_empty`).
    len: AtomicUsize,
    /// Getters currently parked anywhere (gate for cross-shard wakeups).
    waiters: AtomicUsize,
    stats: Arc<AllocStats>,
}

impl Default for BucketCache {
    fn default() -> Self {
        Self::new()
    }
}

impl BucketCache {
    /// Single-shard cache with private stats — the pre-sharding layout
    /// (every GET funnels through one mutex, FIFO order). Kept for tests
    /// and as the contention baseline.
    pub fn new() -> Self {
        Self::with_shards(1, Arc::new(AllocStats::default()))
    }

    /// Cache with `nshards` shards (clamped to ≥ 1) recording contention
    /// counters into `stats`. Buckets map to shards by drive id, so one
    /// shard per data drive gives every refilled bucket of a round its
    /// own queue.
    pub fn with_shards(nshards: usize, stats: Arc<AllocStats>) -> Self {
        Self::with_groups(vec![0; nshards.max(1)], stats)
    }

    /// Cache with one shard per entry of `groups` (non-empty), each entry
    /// naming the RAID group of that shard's drive.
    pub(crate) fn with_groups(groups: Vec<usize>, stats: Arc<AllocStats>) -> Self {
        Self {
            shards: groups.iter().map(|_| Shard::new()).collect(),
            groups: groups.into(),
            len: AtomicUsize::new(0),
            waiters: AtomicUsize::new(0),
            stats,
        }
    }

    /// Number of shards.
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Buckets currently populating the shard that serves `start` (the
    /// getter's home shard, before any steal). Read without the lock —
    /// callers use it as an advisory depth signal (e.g. the cleaner's
    /// adaptive GET batch), never for correctness.
    #[inline]
    pub fn shard_fill(&self, start: usize) -> usize {
        // ordering: Acquire pairs with the Release fill updates on the
        // insert/pop paths; an advisory depth read;
        // pairs-with: cache.fill.
        self.shards[start % self.shards.len()]
            .fill
            .load(Ordering::Acquire)
    }

    /// Number of buckets currently available (lock-free).
    #[inline]
    pub fn len(&self) -> usize {
        // ordering: SeqCst — participates in the waiter protocol's total
        // order (see `wake_parked` / `get_timeout_from`): an inserter's
        // len bump and a waiter's registration must not both be missed.
        self.len.load(Ordering::SeqCst)
    }

    /// Is the cache empty (a GET would block)? Lock-free.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The shard a bucket lives in.
    #[inline]
    fn shard_of(&self, b: &Bucket) -> usize {
        b.drive().0 as usize % self.shards.len()
    }

    /// Lock a shard queue, timing only the contended (slow) path.
    fn lock_shard<'a>(&self, shard: &'a Shard) -> MutexGuard<'a, VecDeque<Bucket>> {
        if let Some(g) = shard.q.try_lock() {
            return g;
        }
        let t0 = Instant::now();
        let g = shard.q.lock();
        self.stats
            .cache_lock_waits_ns
            // ordering: statistics counter; staleness is acceptable.
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        g
    }

    /// Every shard but `home`, in the order a getter homed there breaks
    /// equal-fill ties: the rest of home's RAID group, then the other
    /// groups, each nearest-after-home first. Keeping a small CP's steals
    /// in one group lets it fill whole stripes there, rather than part
    /// of a stripe in each group.
    fn steal_order(&self, home: usize) -> impl Iterator<Item = usize> + '_ {
        let n = self.shards.len();
        let group = self.groups[home];
        let after = move |d: usize| (home + d) % n;
        let same = (1..n).map(after).filter(move |&s| self.groups[s] == group);
        let other = (1..n).map(after).filter(move |&s| self.groups[s] != group);
        same.chain(other)
    }

    /// The fullest shard, preferring `home`, then [`Self::steal_order`],
    /// on ties: the equal-progress GET target.
    fn fullest_from(&self, home: usize) -> usize {
        let mut target = home;
        // ordering: Acquire — fill scan pairs with Release fill updates;
        // pairs-with: cache.fill.
        let mut best = self.shards[home].fill.load(Ordering::Acquire);
        for s in self.steal_order(home) {
            // ordering: Acquire — as above; pairs-with: cache.fill.
            let f = self.shards[s].fill.load(Ordering::Acquire);
            if f > best {
                best = f;
                target = s;
            }
        }
        target
    }

    /// Wake parked getters on every shard that has any. Inserts into one
    /// shard must also wake getters parked on *other* shards (they can
    /// steal); locking the waiter's shard before notifying closes the
    /// check-then-park race. Only runs when someone is actually parked.
    /// SeqCst pairs with the waiter's registration: if this load misses
    /// a registration, that waiter's later `len` re-check (also SeqCst,
    /// after registering) is ordered after our pre-insert `len` bump and
    /// sees the bucket instead of parking.
    fn wake_parked(&self) {
        // ordering: SeqCst — single total order with the waiter's
        // registration and len re-check (see doc comment above); Acquire
        // here could miss a registration whose len re-check also missed
        // our insert.
        if self.waiters.load(Ordering::SeqCst) == 0 {
            return;
        }
        for shard in self.shards.iter() {
            // ordering: SeqCst — same protocol as the global counter.
            if shard.waiters.load(Ordering::SeqCst) > 0 {
                let _g = self.lock_shard(shard);
                shard.available.notify_all();
            }
        }
    }

    /// Infrastructure side: insert one bucket into its drive's shard.
    pub fn insert(&self, b: Bucket) {
        let shard = &self.shards[self.shard_of(&b)];
        let mut q = self.lock_shard(shard);
        q.push_back(b);
        // ordering: Release — fill counts published buckets; readers pair
        // with Acquire in the fill scans; pairs-with: cache.fill.
        shard.fill.fetch_add(1, Ordering::Release);
        // ordering: SeqCst — waiter protocol (see `wake_parked`).
        self.len.fetch_add(1, Ordering::SeqCst);
        // Notify while holding the lock: a getter of this shard is either
        // already parked (woken here) or has yet to take the lock (and
        // will see the bucket).
        shard.available.notify_one();
        drop(q);
        self.wake_parked();
    }

    /// Infrastructure side: insert a batch of buckets atomically — the
    /// collective reinsertion of §IV-D ("collectively put back into the
    /// bucket cache"). Every destination shard lock is held while
    /// appending, so no GET can observe a partially visible batch. Each
    /// affected shard is notified **once**, not once per bucket.
    pub fn insert_all(&self, buckets: impl IntoIterator<Item = Bucket>) {
        let mut per_shard: Vec<Vec<Bucket>> = (0..self.shards.len()).map(|_| Vec::new()).collect();
        let mut total = 0usize;
        for b in buckets {
            per_shard[self.shard_of(&b)].push(b);
            total += 1;
        }
        if total == 0 {
            return;
        }
        // Acquire in ascending shard order (the only multi-shard lock
        // site, so ordering alone rules out deadlock).
        let mut guards: Vec<(usize, MutexGuard<'_, VecDeque<Bucket>>)> = Vec::new();
        for (s, batch) in per_shard.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            let mut g = self.lock_shard(&self.shards[s]);
            self.shards[s]
                .fill
                // ordering: Release — pairs with the Acquire fill scans; pairs-with: cache.fill.
                .fetch_add(batch.len(), Ordering::Release);
            g.extend(batch);
            guards.push((s, g));
        }
        // ordering: SeqCst — waiter protocol (see `wake_parked`).
        self.len.fetch_add(total, Ordering::SeqCst);
        for (s, _) in &guards {
            self.shards[*s].available.notify_all();
        }
        drop(guards);
        self.wake_parked();
    }

    /// Pop from one specific shard.
    fn pop_shard(&self, s: usize) -> Option<Bucket> {
        let mut q = self.lock_shard(&self.shards[s]);
        let b = q.pop_front()?;
        // ordering: Release — pairs with the Acquire fill scans; pairs-with: cache.fill.
        self.shards[s].fill.fetch_sub(1, Ordering::Release);
        // ordering: SeqCst — waiter protocol (see `wake_parked`).
        self.len.fetch_sub(1, Ordering::SeqCst);
        Some(b)
    }

    /// Count a successful pop as a home (fast-path) hit or a steal.
    fn count_pop(&self, shard: usize, home: usize) {
        if shard == home {
            // ordering: statistics counter; staleness is acceptable.
            self.stats.cache_get_fast.fetch_add(1, Ordering::Relaxed);
        } else {
            // ordering: statistics counter; staleness is acceptable.
            self.stats.cache_get_steal.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Cleaner side: try to take a bucket without blocking, starting at
    /// the caller's affinity shard (`start % nshards`) and work-stealing
    /// on a miss.
    ///
    /// **Equal-progress pop rule**: the home shard is taken only when no
    /// fuller shard is known; otherwise the GET steals from the fullest
    /// (see module docs).
    pub fn try_get_from(&self, start: usize) -> Option<Bucket> {
        let n = self.shards.len();
        let home = start % n;
        if self.is_empty() {
            return None;
        }
        let target = self.fullest_from(home);
        if let Some(b) = self.pop_shard(target) {
            self.count_pop(target, home);
            return Some(b);
        }
        // Raced with other getters since the fill scan: fall back to a
        // sweep of every shard so `None` still means "every shard was
        // empty at probe time".
        for s in std::iter::once(home).chain(self.steal_order(home)) {
            if s == target {
                continue;
            }
            if let Some(b) = self.pop_shard(s) {
                self.count_pop(s, home);
                return Some(b);
            }
        }
        None
    }

    /// [`try_get_from`](Self::try_get_from) with affinity shard 0 (the
    /// single-shard-era API, used by drain paths and tests).
    pub fn try_get(&self) -> Option<Bucket> {
        self.try_get_from(0)
    }

    /// Batched GET: pop up to `max` buckets from the affinity shard under
    /// **one** lock acquisition, amortizing GET cost per batch as §IV-C
    /// amortizes it per chunk. Falls back to a single steal-capable
    /// [`try_get_from`](Self::try_get_from) when the home shard is dry or
    /// another shard is fuller, so the result is non-empty whenever the
    /// cache has buckets anywhere. Never blocks.
    ///
    /// Batches deliberately come from home only: stealing k buckets at
    /// once would defeat the equal-progress rule, while home batches
    /// just consume the caller's own per-drive deposits a round early.
    /// A batch also never crosses a **refill-round boundary** (bucket
    /// generations): mixing round N+1 buckets into a batch while round
    /// N is still outstanding would delay — or, at stream end, forfeit —
    /// round N's tetris completion, turning its whole round of stripes
    /// partial. With one shard per drive each round deposits one bucket
    /// per shard, so home batches only exceed 1 when shards are coarser
    /// than drives.
    pub fn get_many_from(&self, start: usize, max: usize) -> Vec<Bucket> {
        let home = start % self.shards.len();
        // Equal progress outranks batching: when another shard is
        // strictly fuller, a home batch would let this cleaner's drive
        // race ahead while the backlogged drive's older rounds wait.
        if max > 1 && self.fullest_from(home) == home {
            let shard = &self.shards[home];
            let mut q = self.lock_shard(shard);
            let k = match q.front() {
                Some(front) => {
                    let gen0 = front.generation();
                    q.iter()
                        .take(max)
                        .take_while(|b| b.generation() == gen0)
                        .count()
                }
                None => 0,
            };
            if k > 0 {
                let got: Vec<Bucket> = q.drain(..k).collect();
                // ordering: Release — fill update (see `pop_shard`);
                // pairs-with: cache.fill.
                shard.fill.fetch_sub(k, Ordering::Release);
                // ordering: SeqCst — waiter protocol (see `len`).
                self.len.fetch_sub(k, Ordering::SeqCst);
                drop(q);
                self.stats
                    .cache_get_fast
                    // ordering: statistics counter.
                    .fetch_add(k as u64, Ordering::Relaxed);
                self.stats
                    .cache_get_batched
                    // ordering: statistics counter.
                    .fetch_add((k - 1) as u64, Ordering::Relaxed);
                return got;
            }
        }
        self.try_get_from(start).into_iter().collect()
    }

    /// Cleaner side: take a bucket, blocking up to `timeout`, with the
    /// same affinity/steal order as [`try_get_from`](Self::try_get_from).
    /// Returns `None` on timeout (callers treat that as "aggregate may be
    /// exhausted; re-check and retry or give up").
    ///
    /// A blocked getter parks on its affinity shard's condvar; inserts
    /// into *any* shard wake it (see [`Self::wake_parked`]), after which
    /// it re-scans all shards.
    pub fn get_timeout_from(&self, start: usize, timeout: Duration) -> Option<Bucket> {
        if let Some(b) = self.try_get_from(start) {
            return Some(b);
        }
        let shard = &self.shards[start % self.shards.len()];
        let deadline = Instant::now() + timeout;
        self.stats
            .cache_blocked_gets
            // ordering: statistics counter; staleness is acceptable.
            .fetch_add(1, Ordering::Relaxed);
        // Register as a waiter *before* the re-scan: any insert that
        // lands after the scan will see the registration and notify
        // (SeqCst pairs with `wake_parked`'s check).
        // ordering: SeqCst (×2) — waiter registration; must be in a
        // single total order with `wake_parked`'s waiter loads and the
        // inserter's len bump so that either the inserter sees us or our
        // re-check below sees its bucket.
        self.waiters.fetch_add(1, Ordering::SeqCst);
        shard.waiters.fetch_add(1, Ordering::SeqCst); // ordering: see above
        let got = loop {
            if let Some(b) = self.try_get_from(start) {
                break Some(b);
            }
            let mut q = self.lock_shard(shard);
            // Predicate re-check under the shard lock: an inserter bumps
            // `len` before it notifies, so either we see len > 0 here
            // (and re-scan) or our park happens before its notify (and
            // we are woken).
            // ordering: SeqCst — the waiter-protocol len re-check.
            if self.len.load(Ordering::SeqCst) == 0
                && shard.available.wait_until(&mut q, deadline).timed_out()
            {
                drop(q);
                break self.try_get_from(start);
            }
        };
        // ordering: SeqCst (×2) — deregistration, same protocol.
        shard.waiters.fetch_sub(1, Ordering::SeqCst);
        self.waiters.fetch_sub(1, Ordering::SeqCst); // ordering: see above
        got
    }

    /// [`get_timeout_from`](Self::get_timeout_from) with affinity shard 0.
    pub fn get_timeout(&self, timeout: Duration) -> Option<Bucket> {
        self.get_timeout_from(0, timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tetris::Tetris;
    use wafl_blockdev::{AaId, DriveId, DriveKind, GeometryBuilder, IoEngine, RaidGroupId, Vbn};

    fn mk_bucket_on(drive: u32, start: u64) -> Bucket {
        mk_bucket_gen(drive, start, 0)
    }

    fn mk_bucket_gen(drive: u32, start: u64, generation: u64) -> Bucket {
        let engine = Arc::new(IoEngine::new(
            Arc::new(
                GeometryBuilder::new()
                    .aa_stripes(32)
                    .raid_group(1, 1, 4096)
                    .build(),
            ),
            DriveKind::Ssd,
        ));
        let t = Tetris::new(RaidGroupId(0), 1, engine, Arc::new(AllocStats::default()));
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

    fn mk_bucket(start: u64) -> Bucket {
        mk_bucket_on(0, start)
    }

    fn sharded(n: usize) -> (BucketCache, Arc<AllocStats>) {
        let stats = Arc::new(AllocStats::default());
        (BucketCache::with_shards(n, Arc::clone(&stats)), stats)
    }

    #[test]
    fn fifo_order() {
        let c = BucketCache::new();
        c.insert(mk_bucket(0));
        c.insert(mk_bucket(100));
        assert_eq!(c.len(), 2);
        assert_eq!(c.try_get().unwrap().start_vbn(), Vbn(0));
        assert_eq!(c.try_get().unwrap().start_vbn(), Vbn(100));
        assert!(c.try_get().is_none());
    }

    #[test]
    fn insert_all_is_atomic_batch() {
        let c = BucketCache::new();
        c.insert_all((0..5).map(|i| mk_bucket(i * 10)));
        assert_eq!(c.len(), 5);
    }

    #[test]
    fn get_timeout_returns_none_when_starved() {
        let c = BucketCache::new();
        let got = c.get_timeout(Duration::from_millis(20));
        assert!(got.is_none());
    }

    #[test]
    fn blocked_get_wakes_on_insert() {
        let c = Arc::new(BucketCache::new());
        let c2 = Arc::clone(&c);
        let h = std::thread::spawn(move || c2.get_timeout(Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(10));
        c.insert(mk_bucket(7));
        let got = h.join().unwrap();
        assert_eq!(got.unwrap().start_vbn(), Vbn(7));
    }

    #[test]
    fn blocked_get_wakes_on_insert_into_another_shard() {
        let (c, _) = sharded(4);
        let c = Arc::new(c);
        let c2 = Arc::clone(&c);
        // Waiter homed on shard 3; bucket lands on shard 1 — the wake
        // must cross shards.
        let h = std::thread::spawn(move || c2.get_timeout_from(3, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(10));
        c.insert(mk_bucket_on(1, 7));
        let got = h.join().unwrap();
        assert_eq!(got.unwrap().start_vbn(), Vbn(7));
    }

    #[test]
    fn concurrent_getters_each_receive_distinct_buckets() {
        let c = Arc::new(BucketCache::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                c.get_timeout(Duration::from_secs(5))
                    .map(|b| b.start_vbn().0)
            }));
        }
        c.insert_all((0..4).map(|i| mk_bucket(i * 4)));
        let mut got: Vec<u64> = handles
            .into_iter()
            .map(|h| h.join().unwrap().unwrap())
            .collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 4, 8, 12]);
    }

    #[test]
    fn buckets_land_in_their_drives_shard() {
        let (c, stats) = sharded(4);
        // Drives 0..=3 → shards 0..=3; drives 4 and 5 wrap to shards 0 and 1.
        for d in 0..6u32 {
            c.insert(mk_bucket_on(d, u64::from(d) * 10));
        }
        assert_eq!(c.len(), 6);
        // Shards 0 and 1 are tied for fullest (two buckets each), so the
        // affinity GET from shard 1 keeps its home and sees drive 1's
        // bucket first (FIFO).
        assert_eq!(c.try_get_from(1).unwrap().drive(), DriveId(1));
        // Now shard 0 alone is fullest: the equal-progress rule steals
        // drive 0's bucket rather than draining home down to empty.
        assert_eq!(c.try_get_from(1).unwrap().drive(), DriveId(0));
        // ordering: test-only stats reads.
        assert_eq!(stats.cache_get_fast.load(Ordering::Relaxed), 1);
        // ordering: test-only stats read.
        assert_eq!(stats.cache_get_steal.load(Ordering::Relaxed), 1);
        // Back in balance (one bucket each): home pops its second
        // resident, the drive-5 bucket that wrapped onto shard 1.
        assert_eq!(c.try_get_from(1).unwrap().drive(), DriveId(5));
        // ordering: test-only stats read.
        assert_eq!(stats.cache_get_fast.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn miss_at_home_shard_steals_round_robin() {
        let (c, stats) = sharded(4);
        c.insert(mk_bucket_on(2, 20));
        // Affinity shard 0 is empty → the GET must steal from shard 2.
        let b = c.try_get_from(0).unwrap();
        assert_eq!(b.drive(), DriveId(2));
        // ordering: test-only stats reads.
        assert_eq!(stats.cache_get_fast.load(Ordering::Relaxed), 0);
        // ordering: test-only stats read.
        assert_eq!(stats.cache_get_steal.load(Ordering::Relaxed), 1);
        assert!(c.try_get_from(0).is_none());
    }

    #[test]
    fn equal_fill_steals_stay_in_home_raid_group() {
        // Shards 0–2 are RAID group 0, shards 3–5 group 1; one bucket
        // each, as a refill round leaves them.
        let c = BucketCache::with_groups(vec![0, 0, 0, 1, 1, 1], Arc::new(AllocStats::default()));
        for d in 0..6u32 {
            c.insert(mk_bucket_on(d, u64::from(d) * 10));
        }
        let drives: Vec<u32> = (0..3)
            .map(|_| c.try_get_from(1).unwrap().drive().0)
            .collect();
        assert_eq!(drives, vec![1, 2, 0], "home, then its group nearest first");
        // Group 0 is dry: the steal crosses to group 1, nearest first.
        assert_eq!(c.try_get_from(1).unwrap().drive(), DriveId(3));
        // A group-1 getter takes home, then wraps within its group.
        let c = BucketCache::with_groups(vec![0, 0, 0, 1, 1, 1], Arc::new(AllocStats::default()));
        for d in 0..6u32 {
            c.insert(mk_bucket_on(d, u64::from(d) * 10));
        }
        let drives: Vec<u32> = (0..3)
            .map(|_| c.try_get_from(5).unwrap().drive().0)
            .collect();
        assert_eq!(drives, vec![5, 3, 4]);
    }

    #[test]
    fn get_many_pops_a_batch_from_home_in_one_acquisition() {
        let (c, stats) = sharded(4);
        // Home shard 1 holds drives 1 and 5; shard 2 holds drive 2.
        for d in [1u32, 5, 2] {
            c.insert(mk_bucket_on(d, u64::from(d) * 10));
        }
        let got = c.get_many_from(1, 8);
        assert_eq!(got.len(), 2, "batch drains home, never steals");
        assert!(got.iter().all(|b| b.drive().0 % 4 == 1));
        // ordering: test-only stats reads.
        assert_eq!(stats.cache_get_fast.load(Ordering::Relaxed), 2);
        // ordering: test-only stats read.
        assert_eq!(stats.cache_get_batched.load(Ordering::Relaxed), 1);
        // Home now dry: the batched GET degrades to a single steal.
        let fallback = c.get_many_from(1, 8);
        assert_eq!(fallback.len(), 1);
        assert_eq!(fallback[0].drive(), DriveId(2));
        // ordering: test-only stats read.
        assert_eq!(stats.cache_get_steal.load(Ordering::Relaxed), 1);
        assert!(c.get_many_from(1, 8).is_empty());
        assert!(c.is_empty());
    }

    #[test]
    fn get_many_defers_to_a_fuller_shard() {
        let (c, stats) = sharded(2);
        // Home shard 0 holds one bucket, shard 1 holds two: a home batch
        // would let drive 0 race ahead, so the GET steals one instead.
        for d in [0u32, 1, 3] {
            c.insert(mk_bucket_on(d, u64::from(d) * 10));
        }
        let got = c.get_many_from(0, 8);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].drive(), DriveId(1));
        // ordering: test-only stats read.
        assert_eq!(stats.cache_get_batched.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn get_many_of_one_is_a_plain_get() {
        let (c, stats) = sharded(2);
        c.insert(mk_bucket_on(0, 0));
        let got = c.get_many_from(0, 1);
        assert_eq!(got.len(), 1);
        // ordering: test-only stats read.
        assert_eq!(stats.cache_get_batched.load(Ordering::Relaxed), 0);
        assert!(c.get_many_from(0, 0).is_empty());
    }

    #[test]
    fn refill_rounds_pop_oldest_first() {
        // Two collective rounds land before anything is consumed (the
        // refill pipeline ran ahead). Consumption must drain round 1
        // completely before touching round 2 — otherwise round 1's
        // tetris is left permanently partial.
        let (c, _) = sharded(2);
        c.insert_all((0..2).map(|d| mk_bucket_gen(d, u64::from(d) * 10, 1)));
        c.insert_all((0..2).map(|d| mk_bucket_gen(d, 100 + u64::from(d) * 10, 2)));
        let mut gens = Vec::new();
        for s in [0usize, 1, 0, 1] {
            gens.push(c.try_get_from(s).unwrap().generation());
        }
        assert_eq!(gens, vec![1, 1, 2, 2], "round 1 drains before round 2");
    }

    #[test]
    fn get_many_never_crosses_a_refill_round() {
        // Single shard, two rounds of two buckets each: a batch of 8 must
        // stop at the round boundary and deliver round 1 only.
        let c = BucketCache::new();
        c.insert_all((0..2).map(|d| mk_bucket_gen(d, u64::from(d) * 10, 1)));
        c.insert_all((0..2).map(|d| mk_bucket_gen(d, 100 + u64::from(d) * 10, 2)));
        let first = c.get_many_from(0, 8);
        assert_eq!(first.len(), 2, "batch stops at the round boundary");
        assert!(first.iter().all(|b| b.generation() == 1));
        let second = c.get_many_from(0, 8);
        assert_eq!(second.len(), 2);
        assert!(second.iter().all(|b| b.generation() == 2));
        assert!(c.is_empty());
    }

    #[test]
    fn sharded_insert_all_is_collectively_visible() {
        // The §IV-D invariant across shards: a getter never sees only
        // part of a refill batch. With the batch spread over all shards
        // and GETs racing the insert, every GET that returns Some must
        // come after the *whole* batch is visible — so the first 8
        // concurrent GETs drain exactly the 8 buckets.
        for _ in 0..50 {
            let (c, _) = sharded(8);
            let c = Arc::new(c);
            let mut handles = Vec::new();
            for t in 0..8usize {
                let c = Arc::clone(&c);
                handles.push(std::thread::spawn(move || {
                    c.get_timeout_from(t, Duration::from_secs(5)).is_some()
                }));
            }
            c.insert_all((0..8).map(|d| mk_bucket_on(d, u64::from(d) * 100)));
            assert!(handles.into_iter().all(|h| h.join().unwrap()));
            assert!(c.is_empty());
        }
    }

    #[test]
    fn no_waiter_sleeps_while_cache_nonempty() {
        // Regression for the insert_all wakeup storm: waiters homed on
        // shards that receive *no* buckets must still wake and steal.
        // Both waiters home on shard 3; the batch lands on shards 0..2.
        let (c, _) = sharded(4);
        let c = Arc::new(c);
        let mut handles = Vec::new();
        for _ in 0..2 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                let t0 = Instant::now();
                let got = c.get_timeout_from(3, Duration::from_secs(30));
                (got.is_some(), t0.elapsed())
            }));
        }
        std::thread::sleep(Duration::from_millis(20));
        c.insert_all((0..3u32).map(|d| mk_bucket_on(d, u64::from(d) * 100)));
        for h in handles {
            let (got, waited) = h.join().unwrap();
            assert!(got, "waiter must be woken cross-shard");
            assert!(
                waited < Duration::from_secs(5),
                "waiter slept {waited:?} with a non-empty cache"
            );
        }
        assert_eq!(c.len(), 1, "two of three buckets consumed");
    }

    #[test]
    fn blocked_gets_are_counted() {
        let (c, stats) = sharded(2);
        assert!(c.get_timeout_from(0, Duration::from_millis(5)).is_none());
        // ordering: test-only stats read.
        assert_eq!(stats.cache_blocked_gets.load(Ordering::Relaxed), 1);
        c.insert(mk_bucket_on(0, 0));
        assert!(c.try_get_from(0).is_some());
        // Fast-path GETs never count as blocked.
        // ordering: test-only stats read.
        assert_eq!(stats.cache_blocked_gets.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn len_is_consistent_across_shards() {
        let (c, _) = sharded(3);
        c.insert_all((0..9u32).map(|d| mk_bucket_on(d, u64::from(d) * 16)));
        assert_eq!(c.len(), 9);
        let mut n = 0;
        while c.try_get_from(n).is_some() {
            n += 1;
        }
        assert_eq!(n, 9);
        assert!(c.is_empty());
    }
}
