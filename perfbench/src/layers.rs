//! Counters the layers already expose, read before and after a window.

use alligator::StatsSnapshot;
use std::sync::atomic::Ordering;
use waffinity::AffinityId;
use wafl::Filesystem;
use wafl_blockdev::io::{FaultSnapshot, IoSnapshot};

/// One reading of every layer counter the benchmark uses.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    alloc: StatsSnapshot,
    io: IoSnapshot,
    fault: FaultSnapshot,
    full_stripes: u64,
    partial_stripes: u64,
    parity_read_blocks: u64,
    cleaner_busy_ns: u64,
    waffinity_messages: u64,
    waffinity_busy_ns: u64,
    aio_submitted: u64,
    aio_completed: u64,
    aio_peak: u64,
    aio_submit_to_complete_ns: u64,
}

impl Counters {
    /// Read every counter of `fs` now.
    pub fn read(fs: &Filesystem) -> Counters {
        let mut c = Counters {
            alloc: fs.allocator().stats(),
            io: fs.io().counters().snapshot(),
            fault: fs.io().fault_snapshot(),
            cleaner_busy_ns: fs.cleaner_pool().busy_ns(),
            ..Counters::default()
        };
        for g in fs.io().raid_groups() {
            let p = g.counters();
            // ordering: statistics counters; staleness is acceptable.
            c.full_stripes += p.full_stripe_writes.load(Ordering::Relaxed);
            c.partial_stripes += p.partial_stripe_writes.load(Ordering::Relaxed);
            c.parity_read_blocks += p.parity_read_blocks.load(Ordering::Relaxed);
        }
        if let Some(pool) = fs.waffinity_pool() {
            c.waffinity_messages = pool.total_messages();
            let topo = pool.topology();
            c.waffinity_busy_ns = (0..topo.len() as u32)
                .map(|i| pool.busy_ns_in(topo.name(AffinityId(i))))
                .sum();
        }
        if let Some(aio) = fs.aio() {
            c.aio_submitted = aio.submitted();
            c.aio_completed = aio.completed();
            c.aio_peak = aio.queue_depth_peak();
            c.aio_submit_to_complete_ns = aio.submit_to_complete_ns_total();
        }
        c
    }

    /// Blocks written to media (data and metafile) since `before`.
    pub fn media_blocks_since(&self, before: &Counters) -> u64 {
        self.io.blocks_written - before.io.blocks_written
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Per-layer metrics over the window `[before, after]`: `(name, value,
/// unit)`. `window_s` is the window's wall time; `clean_s` the CP clean
/// phases' summed wall time inside it.
pub fn metrics(
    before: &Counters,
    after: &Counters,
    window_s: f64,
    clean_s: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let a = |f: fn(&StatsSnapshot) -> u64| (f(&after.alloc) - f(&before.alloc)) as f64;
    let gets = a(|s| s.gets);
    let io_ios = (after.io.write_ios - before.io.write_ios) as f64;
    let io_blocks = after.media_blocks_since(before) as f64;
    let full = (after.full_stripes - before.full_stripes) as f64;
    let partial = (after.partial_stripes - before.partial_stripes) as f64;
    let tetris = a(|s| s.tetris_ios);
    let cleaner_busy_s = (after.cleaner_busy_ns - before.cleaner_busy_ns) as f64 / 1e9;
    let waff_busy_s = (after.waffinity_busy_ns - before.waffinity_busy_ns) as f64 / 1e9;
    let aio_done = (after.aio_completed - before.aio_completed) as f64;
    let aio_ns = (after.aio_submit_to_complete_ns - before.aio_submit_to_complete_ns) as f64;
    let fast = a(|s| s.cache_get_fast);
    let steal = a(|s| s.cache_get_steal);
    vec![
        ("cleaner.busy_s", cleaner_busy_s, "s"),
        (
            "cleaner.util",
            ratio(cleaner_busy_s, clean_s * crate::workload::CLEANERS as f64),
            "frac",
        ),
        ("alloc.gets", gets, "count"),
        (
            "alloc.get_stall_frac",
            ratio(a(|s| s.get_stalls), gets),
            "frac",
        ),
        ("alloc.get_wait_s", a(|s| s.get_wait_ns) / 1e9, "s"),
        (
            "alloc.cache_lock_wait_s",
            a(|s| s.cache_lock_waits_ns) / 1e9,
            "s",
        ),
        ("alloc.cache_home_frac", ratio(fast, fast + steal), "frac"),
        (
            "alloc.cache_batched_frac",
            ratio(a(|s| s.cache_get_batched), gets),
            "frac",
        ),
        (
            "alloc.cache_cas_retries",
            a(|s| s.cache_cas_retries),
            "count",
        ),
        ("alloc.refill_rounds", a(|s| s.refill_rounds), "count"),
        (
            "alloc.vbns_used_frac",
            ratio(a(|s| s.vbns_committed), a(|s| s.vbns_reserved)),
            "frac",
        ),
        ("alloc.aa_switches", a(|s| s.aa_switches), "count"),
        (
            "alloc.commit_service_s",
            a(|s| s.commit_batch_ns) / 1e9,
            "s",
        ),
        (
            "alloc.commit_wait_s",
            a(|s| s.commit_queue_wait_ns) / 1e9,
            "s",
        ),
        (
            "alloc.put_commit_queue_peak",
            after.alloc.put_commit_queue_len as f64,
            "count",
        ),
        ("alloc.vbns_freed", a(|s| s.vbns_freed), "count"),
        ("alloc.stage_commits", a(|s| s.stage_commits), "count"),
        ("alloc.tetris_ios", tetris, "count"),
        (
            "alloc.blocks_per_tetris",
            ratio(io_blocks, tetris),
            "blocks",
        ),
        (
            "waffinity.messages",
            (after.waffinity_messages - before.waffinity_messages) as f64,
            "count",
        ),
        (
            "waffinity.busy_frac",
            ratio(
                waff_busy_s,
                window_s * crate::workload::WAFFINITY_THREADS as f64,
            ),
            "frac",
        ),
        ("io.write_ios", io_ios, "count"),
        ("io.blocks_per_io", ratio(io_blocks, io_ios), "blocks"),
        ("io.full_stripe_ratio", ratio(full, full + partial), "frac"),
        (
            "io.parity_read_blocks",
            (after.parity_read_blocks - before.parity_read_blocks) as f64,
            "count",
        ),
        (
            "io.retries",
            (after.fault.io_retries - before.fault.io_retries) as f64,
            "count",
        ),
        (
            "io.errors",
            (after.fault.io_errors - before.fault.io_errors) as f64 + a(|s| s.io_errors),
            "count",
        ),
        (
            "aio.submitted",
            (after.aio_submitted - before.aio_submitted) as f64,
            "count",
        ),
        ("aio.queue_depth_peak", after.aio_peak as f64, "count"),
        (
            "aio.submit_to_complete_us_mean",
            ratio(aio_ns / 1e3, aio_done),
            "us",
        ),
    ]
}
