//! Model-checked invariants for the async I/O completion-queue protocol
//! (`wafl_blockdev::CompletionRing`, built with `--features mc` so
//! every sequenced-slot atomic is a scheduler yield point).
//!
//! The ring is the lock-free MPMC hand-off between `blockdev::aio`
//! workers (producers) and pollers/drainers (consumers). Its contract,
//! checked here across submit/poll/drain interleavings:
//!
//! * **no completion lost** — every pushed value is eventually popped
//!   exactly once (none vanish into a recycled slot);
//! * **no completion double-delivered** — two consumers never pop the
//!   same value (the head CAS grants exclusive slot access);
//! * **drain is a true barrier** — a drainer that has observed
//!   `completed == submitted` (the `AioEngine::drain` spin condition,
//!   modeled with the same Release/Acquire counter pair) must find
//!   *every* completion in the ring: the Release bump after the push
//!   publishes the slot write to the counter's Acquire reader.
//!
//! A final detection-power test proves the harness catches a broken
//! hand-off (a flag-free queue whose unsynchronised cell access the
//! vector-clock race detector must flag) — the license for the passing
//! models. Seeded-random schedules are broad and cheap;
//! bounded-exhaustive DFS is systematic over a shorter model. Replay failures with `MC_REPLAY=<seed>`; see
//! `crates/mc/README.md`.

use mc::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use wafl_blockdev::CompletionRing;

// ---------------------------------------------------------------------------
// Invariant 1: nothing lost, nothing double-delivered.
// ---------------------------------------------------------------------------

/// Two producers push disjoint tickets through a capacity-2 ring (so
/// slot recycling and the full-ring retry path are both exercised)
/// while two consumers pop concurrently; the main thread then drains
/// the leftovers. The union of everything popped must be exactly the
/// set pushed.
fn no_loss_no_dup_model() {
    let ring: Arc<CompletionRing<u64>> = Arc::new(CompletionRing::with_capacity(2));
    let producers: Vec<_> = (0..2u64)
        .map(|p| {
            let ring = Arc::clone(&ring);
            mc::thread::spawn(move || {
                for i in 0..2u64 {
                    let mut v = p * 2 + i;
                    // Full ring: yield to let a consumer make room.
                    while let Err(back) = ring.try_push(v) {
                        v = back;
                        mc::thread::yield_now();
                    }
                }
            })
        })
        .collect();
    let consumers: Vec<_> = (0..2)
        .map(|_| {
            let ring = Arc::clone(&ring);
            mc::thread::spawn(move || {
                let mut got = Vec::new();
                // Each consumer makes a bounded number of attempts; the
                // main thread sweeps whatever remains after the joins.
                for _ in 0..4 {
                    if let Some(v) = ring.try_pop() {
                        got.push(v);
                    }
                }
                got
            })
        })
        .collect();
    for p in producers {
        p.join().unwrap();
    }
    let mut all: Vec<u64> = consumers
        .into_iter()
        .flat_map(|c| c.join().unwrap())
        .collect();
    while let Some(v) = ring.try_pop() {
        all.push(v);
    }
    all.sort_unstable();
    assert_eq!(
        all,
        vec![0, 1, 2, 3],
        "every completion delivered exactly once"
    );
}

#[test]
fn completions_never_lost_or_double_delivered() {
    mc::Checker::new("aio-ring-no-loss-no-dup")
        .schedules(400)
        .check(no_loss_no_dup_model);
}

/// Exhaustive variant over a smaller model: one producer, two racing
/// consumers, ring capacity ≥ pushes (no unbounded retry spin, so the
/// DFS frontier stays finite).
#[test]
fn completions_never_lost_or_double_delivered_exhaustive() {
    let report = mc::Checker::new("aio-ring-no-loss-dfs")
        .exhaustive()
        .schedules(40_000)
        .check(|| {
            let ring: Arc<CompletionRing<u64>> = Arc::new(CompletionRing::with_capacity(4));
            let producer = {
                let ring = Arc::clone(&ring);
                mc::thread::spawn(move || {
                    for v in 0..3u64 {
                        ring.try_push(v).expect("capacity covers all pushes");
                    }
                })
            };
            let consumers: Vec<_> = (0..2)
                .map(|_| {
                    let ring = Arc::clone(&ring);
                    mc::thread::spawn(move || {
                        let mut got = Vec::new();
                        for _ in 0..2 {
                            if let Some(v) = ring.try_pop() {
                                got.push(v);
                            }
                        }
                        got
                    })
                })
                .collect();
            producer.join().unwrap();
            let mut all: Vec<u64> = consumers
                .into_iter()
                .flat_map(|c| c.join().unwrap())
                .collect();
            while let Some(v) = ring.try_pop() {
                all.push(v);
            }
            all.sort_unstable();
            assert_eq!(all, vec![0, 1, 2], "exactly-once delivery");
        });
    assert!(report.schedules_run >= 1);
}

// ---------------------------------------------------------------------------
// Invariant 2: drain is a true barrier.
// ---------------------------------------------------------------------------

/// The drain protocol of `AioEngine`, reduced to its synchronization
/// skeleton: a worker pushes a completion into the ring and *then*
/// bumps `completed` with Release; the drainer spins on
/// `completed == submitted` with Acquire and only then sweeps the ring.
/// The barrier property: after the spin exits, every completion is in
/// the ring and the sweep misses nothing — no completion may still be
/// "in flight between the slot write and the counter bump" from the
/// drainer's point of view.
fn drain_barrier_model() {
    const SUBMITTED: u64 = 3;
    let ring: Arc<CompletionRing<u64>> = Arc::new(CompletionRing::with_capacity(4));
    let completed = Arc::new(AtomicU64::new(0));
    let workers: Vec<_> = (0..2u64)
        .map(|w| {
            let ring = Arc::clone(&ring);
            let completed = Arc::clone(&completed);
            // Worker 0 services tickets {0, 1}, worker 1 ticket {2}.
            let tickets: Vec<u64> = if w == 0 { vec![0, 1] } else { vec![2] };
            mc::thread::spawn(move || {
                for t in tickets {
                    ring.try_push(t).expect("capacity covers all pushes");
                    // ordering: Release — publishes the slot write to the
                    // drainer's Acquire load of the counter, exactly as the
                    // worker's `completed.fetch_add(1, Release)` does in
                    // `blockdev::aio::complete`; pairs-with: mc.aio-completed.
                    completed.fetch_add(1, Ordering::Release);
                }
            })
        })
        .collect();
    // The drainer: spin until all submissions completed, then sweep.
    let mut spins = 0;
    // ordering: Acquire — pairs with the workers' Release bumps; seeing
    // `completed == SUBMITTED` implies all ring writes are visible;
    // pairs-with: mc.aio-completed.
    while completed.load(Ordering::Acquire) < SUBMITTED {
        mc::thread::yield_now();
        spins += 1;
        assert!(spins < 1_000, "drain spin failed to converge");
    }
    let mut swept = Vec::new();
    while let Some(v) = ring.try_pop() {
        swept.push(v);
    }
    swept.sort_unstable();
    assert_eq!(
        swept,
        vec![0, 1, 2],
        "drain barrier missed an in-flight completion"
    );
    for w in workers {
        w.join().unwrap();
    }
}

#[test]
fn drain_observes_every_completion() {
    mc::Checker::new("aio-drain-barrier")
        .schedules(400)
        .check(drain_barrier_model);
}

/// Spin-free variant for the exhaustive DFS (a spin loop would make the
/// starvation schedule — drainer runs 1000 times before any worker — a
/// reachable "violation"): the barrier property stated conditionally.
/// *If* a single Acquire load observes `completed == submitted`, the
/// sweep must find every completion. DFS covers both the observed and
/// unobserved branches.
#[test]
fn drain_observes_every_completion_exhaustive() {
    let report = mc::Checker::new("aio-drain-barrier-dfs")
        .exhaustive()
        .schedules(40_000)
        .check(|| {
            const SUBMITTED: u64 = 2;
            let ring: Arc<CompletionRing<u64>> = Arc::new(CompletionRing::with_capacity(4));
            let completed = Arc::new(AtomicU64::new(0));
            let workers: Vec<_> = (0..2u64)
                .map(|t| {
                    let ring = Arc::clone(&ring);
                    let completed = Arc::clone(&completed);
                    mc::thread::spawn(move || {
                        ring.try_push(t).expect("capacity covers all pushes");
                        // ordering: Release — publishes the slot write, as in
                        // `blockdev::aio::complete`;
                        // pairs-with: mc.aio-completed.
                        completed.fetch_add(1, Ordering::Release);
                    })
                })
                .collect();
            // ordering: Acquire — pairs with the workers' Release bumps;
            // pairs-with: mc.aio-completed.
            if completed.load(Ordering::Acquire) == SUBMITTED {
                let mut swept = Vec::new();
                while let Some(v) = ring.try_pop() {
                    swept.push(v);
                }
                swept.sort_unstable();
                assert_eq!(
                    swept,
                    vec![0, 1],
                    "drain barrier missed an in-flight completion"
                );
            }
            for w in workers {
                w.join().unwrap();
            }
        });
    assert!(report.schedules_run >= 1);
}

// ---------------------------------------------------------------------------
// Detection power: the harness must CATCH a broken hand-off.
// ---------------------------------------------------------------------------

/// A deliberately broken completion queue: the producer writes the
/// payload cell and raises a ready flag, but with Relaxed ordering on
/// both sides — no happens-before edge from slot write to consumer
/// read. The vector-clock race detector must flag the unsynchronised
/// cell access, proving the passing models above would catch a ring
/// whose seq protocol lost its Release/Acquire pairing.
#[test]
fn checker_finds_unsynchronized_completion_handoff() {
    use mc::sync::atomic::AtomicU32;

    struct BrokenSlot {
        val: mc::cell::UnsafeCell<u64>,
        ready: AtomicU32,
    }
    // SAFETY: deliberately racy test fixture; the point is that the
    // checker, not the type system, rejects the missing happens-before.
    unsafe impl Send for BrokenSlot {}
    // SAFETY: as above.
    unsafe impl Sync for BrokenSlot {}

    let failure = mc::Checker::new("aio-broken-handoff")
        .schedules(200)
        .try_check(|| {
            let slot = Arc::new(BrokenSlot {
                val: mc::cell::UnsafeCell::new(0),
                ready: AtomicU32::new(0),
            });
            let producer = {
                let slot = Arc::clone(&slot);
                mc::thread::spawn(move || {
                    // SAFETY: intentionally unsound — the planted race
                    // under test (no synchronization with the reader).
                    slot.val.with_mut(|p| unsafe { *p = 7 });
                    // ordering: Relaxed — deliberately NOT Release; the
                    // bug under test.
                    slot.ready.store(1, Ordering::Relaxed);
                })
            };
            // ordering: Relaxed — deliberately NOT Acquire; the bug
            // under test.
            if slot.ready.load(Ordering::Relaxed) == 1 {
                // SAFETY: intentionally unsound — see above.
                let v = slot.val.with(|p| unsafe { *p });
                assert_eq!(v, 7);
            }
            producer.join().unwrap();
        })
        .expect_err("checker must detect the flag-free hand-off race");
    assert!(
        failure.message.contains("data race"),
        "unexpected failure message: {}",
        failure.message
    );
}
