//! Perf-trajectory experiment — bucket-cache contention under cleaner
//! scaling. The single-mutex cache serializes every GET (§IV-C's
//! amortization argument cuts the *frequency* of synchronization, not
//! its width); sharding gives cleaner *i* an uncontended home shard.
//! The DES half sweeps cleaner threads 1→16 over three configurations
//! of a GET-bound microbenchmark:
//!
//! - `single_lock`        — one shard, every GET funnels through it;
//! - `mutex_sharded`      — per-drive shards, `get_many(1)`;
//! - `mutex_sharded_get8` — per-drive shards, batched `get_many(8)`.
//!
//! These curves are **model output** (`modeled: true`): the sync cost
//! per GET and its growth per sharer are hand-set constants, listed
//! with their provenance in `model_constants`. They show the *shape*
//! sharding buys under the model, never a measured speedup.
//!
//! Outputs:
//! - `BENCH_cache_contention.json` at the repo root (override the
//!   directory with `WAFL_BENCH_ROOT`) — the machine-readable scaling
//!   record the CI schema gate validates;
//! - `results/exp_cache_contention.json` via the standard [`emit`] path.
//!
//! A second, machine-tagged record (`real_thread`) measures the *real*
//! `alligator::BucketCache` with OS threads hammering GET/recycle on a
//! per-drive sharded cache and on a single shard. It is wall-clock and
//! machine-dependent, so it carries no perf gate and is `null` on
//! single-core machines (the sweep needs real parallelism to mean
//! anything).
//!
//! `--validate <path>` re-parses a previously written record and checks
//! its schema and invariants (exit 1 on violation) so the trajectory
//! file can't silently rot.

use serde::{Deserialize, Serialize};
use wafl_bench::{configure_duration, emit};
use wafl_simsrv::{
    CleanerSetting, CostModel, FigureTable, SimConfig, SimResult, Simulator, WorkloadKind,
};

/// Schema tag for `BENCH_cache_contention.json`.
const SCHEMA: &str = "wafl.cache_contention.v3";

/// Thread counts swept (the ISSUE's 1→16 range).
const THREADS: [usize; 6] = [1, 2, 4, 8, 12, 16];

/// Model acceptance floor: sharded GET throughput vs the single lock
/// at ≥ 8 cleaner threads.
const SINGLE_LOCK_FLOOR: f64 = 1.5;

/// Batched `get_many(8)` must stay within 5% of `get_many(1)` — batching
/// amortizes synchronization and must never tank throughput.
const GET8_SANITY: f64 = 0.95;

/// One swept point of one cache layout.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CurvePoint {
    /// Cleaner threads at this point.
    threads: u64,
    /// Bucket GETs per second (home hits + steals over the window).
    gets_per_sec: f64,
    /// Client ops per second (context; the cache is the bottleneck).
    ops_per_sec: f64,
    /// Percentage of GETs served by the cleaner's home shard.
    home_hit_pct: f64,
    /// GETs that work-stole from another shard.
    steals: u64,
    /// Modeled time spent on contended shard sync, ms.
    lock_wait_ms: f64,
    /// GETs that found every shard empty.
    blocked_gets: u64,
    /// Extra buckets (beyond the first) granted by batched pops.
    batched_extras: u64,
}

/// The full sweep for one cache layout.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Curve {
    /// Shard count of this layout (1 = the forced single-lock baseline).
    shards: u64,
    /// Always `true`: the curve is DES output under the hand-set
    /// constants in [`ContentionDoc::model_constants`].
    modeled: bool,
    /// `get_many` batch bound used by this layout.
    get_batch: u64,
    /// One point per entry of `threads`.
    points: Vec<CurvePoint>,
}

/// One point of the wall-clock sweep over the real `BucketCache`.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct RealThreadPoint {
    /// OS threads hammering the cache.
    threads: u64,
    /// GET/recycle cycles per second, per-drive shards.
    sharded_gets_per_sec: f64,
    /// GET/recycle cycles per second, one shard.
    single_lock_gets_per_sec: f64,
    /// `sharded / single_lock` (informational; machine-dependent,
    /// ungated).
    speedup: f64,
}

/// One hand-set DES constant and where its value came from.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ModelConstant {
    /// `CostModel` field name.
    name: String,
    /// Value used by the microbenchmark.
    value: f64,
    /// Unit of `value`.
    unit: String,
    /// Provenance of the value.
    source: String,
}

/// Machine-tagged wall-clock record (no perf gate; `null` when the
/// machine cannot run ≥ 2 threads in parallel).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct RealThreadRecord {
    /// `available_parallelism()` of the producing machine.
    cpus: u64,
    /// One point per swept thread count.
    points: Vec<RealThreadPoint>,
}

/// The persisted record.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ContentionDoc {
    /// Schema tag (`wafl.cache_contention.v2`).
    schema: String,
    /// Producing binary.
    bench: String,
    /// True when run under `WAFL_BENCH_QUICK` (shorter windows; perf
    /// floors are not enforced on quick records).
    quick: bool,
    /// Cleaner thread counts swept.
    threads: Vec<u64>,
    /// The DES constants behind every curve, with provenance.
    model_constants: Vec<ModelConstant>,
    /// Forced single-lock layout (modeled).
    single_lock: Curve,
    /// Per-drive shards, `get_many(1)` (modeled).
    mutex_sharded: Curve,
    /// Per-drive shards, batched `get_many(8)` (modeled).
    mutex_sharded_get8: Curve,
    /// `mutex_sharded.gets_per_sec / single_lock.gets_per_sec` per point
    /// (modeled).
    speedup_sharded_vs_single_lock: Vec<f64>,
    /// Minimum sharded-vs-single-lock speedup over the points ≥ 8
    /// threads (modeled).
    min_vs_single_lock_at_8_plus_threads: f64,
    /// Wall-clock sweep over the real cache, or `null` on single-core
    /// machines.
    real_thread: Option<RealThreadRecord>,
}

/// Cache layouts swept by the simulated record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layout {
    SingleLock,
    MutexSharded,
    MutexShardedGet8,
}

impl Layout {
    fn single_shard(self) -> bool {
        self == Layout::SingleLock
    }
    fn get_batch(self) -> u64 {
        match self {
            Layout::MutexShardedGet8 => 8,
            _ => 1,
        }
    }
}

/// GET synchronization cost of the microbenchmark, ns per bucket cycle.
const MICRO_BUCKET_SYNC_NS: u64 = 16_000;
/// Extra fraction of the sync cost per additional sharer of a shard.
const MICRO_CONTENTION_FACTOR: f64 = 0.12;

/// The constants that shape the modeled curves, with provenance.
fn model_constants() -> Vec<ModelConstant> {
    let defaults = CostModel::default();
    vec![
        ModelConstant {
            name: "cleaner_bucket_sync".into(),
            value: MICRO_BUCKET_SYNC_NS as f64,
            unit: "ns".into(),
            source: format!(
                "hand-set: 4x the default CostModel's {} ns (itself hand-calibrated \
                 to the paper's figure shapes, not measured) so GET sync dominates \
                 the stripped-down cleaner loop",
                defaults.cleaner_bucket_sync
            ),
        },
        ModelConstant {
            name: "cleaner_contention_factor".into(),
            value: MICRO_CONTENTION_FACTOR,
            unit: "fraction per extra sharer".into(),
            source: format!(
                "hand-set: 2x the default CostModel's {} — a GET-saturated loop has no \
                 cleaning work to absorb the convoy",
                defaults.cleaner_contention_factor
            ),
        },
    ]
}

/// GET-bound microbenchmark platform. The full-system configs keep the
/// bucket cycle a small slice of cleaning (that is the point of §IV-C);
/// to measure the *cache*, this config strips everything around it:
/// tiny per-buffer work, small chunks (frequent GET/PUT), cheap client
/// and infrastructure paths with wide core headroom, and a deep dirty
/// backlog so cleaners never idle. The sync constants are listed with
/// their provenance in [`model_constants`].
fn microbench(threads: usize, layout: Layout) -> SimConfig {
    let mut cfg = SimConfig::paper_platform(WorkloadKind::sequential_write());
    configure_duration(&mut cfg);
    cfg.cores = 40;
    cfg.clients = 128;
    cfg.outstanding_per_client = 16;
    cfg.cleaners = CleanerSetting::Fixed(threads);
    cfg.chunk = 16;
    cfg.drives = 16;
    cfg.cache_shards = if layout.single_shard() { 1 } else { 0 };
    cfg.cache_get_batch = layout.get_batch();
    cfg.stage_capacity = 4096;
    cfg.dirty_limit = 100_000;
    cfg.cp_trigger_blocks = 1_000;
    cfg.bucket_low_watermark = 24;
    cfg.total_buckets = 96;
    cfg.costs = CostModel {
        protocol_per_op: 500,
        client_msg_fixed: 1_000,
        client_msg_per_block: 100,
        reply_latency: 10_000,
        read_media_latency: 250_000,
        cleaner_per_buffer: 200,
        cleaner_bucket_sync: MICRO_BUCKET_SYNC_NS,
        cleaner_contention_factor: MICRO_CONTENTION_FACTOR,
        cleaner_msg_overhead: 1_000,
        cleaner_inode_overhead: 0,
        infra_refill_fixed: 500,
        infra_refill_per_vbn: 10,
        infra_commit_fixed: 500,
        infra_commit_per_vbn: 10,
        infra_frees_fixed: 500,
        infra_free_per_vbn: 10,
        infra_per_mf_block: 100,
    };
    cfg
}

fn point(threads: usize, r: &SimResult) -> CurvePoint {
    let pops = r.cache_get_fast + r.cache_get_steal;
    let secs = r.measured_ns as f64 / 1e9;
    CurvePoint {
        threads: threads as u64,
        gets_per_sec: pops as f64 / secs,
        ops_per_sec: r.throughput_ops,
        home_hit_pct: if pops > 0 {
            100.0 * r.cache_get_fast as f64 / pops as f64
        } else {
            0.0
        },
        steals: r.cache_get_steal,
        lock_wait_ms: r.cache_lock_waits_ns as f64 / 1e6,
        blocked_gets: r.cache_blocked_gets,
        batched_extras: r.cache_get_batched,
    }
}

fn sweep(layout: Layout) -> (Curve, Vec<SimResult>) {
    let mut results = Vec::new();
    let mut curve = Curve {
        shards: if layout.single_shard() {
            1
        } else {
            microbench(1, layout).drives as u64
        },
        modeled: true,
        get_batch: layout.get_batch(),
        points: Vec::new(),
    };
    for n in THREADS {
        let r = Simulator::new(microbench(n, layout)).run();
        curve.points.push(point(n, &r));
        results.push(r);
    }
    (curve, results)
}

/// Directory receiving `BENCH_cache_contention.json`: `WAFL_BENCH_ROOT`
/// if set (the CI smoke run points it at a temp dir), else the repo
/// root.
fn bench_root() -> std::path::PathBuf {
    match std::env::var_os("WAFL_BENCH_ROOT") {
        Some(d) => d.into(),
        None => std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."),
    }
}

/// Wall-clock sweep over the real `alligator::BucketCache`: OS threads
/// GET a bucket from their home shard and immediately recycle it, so
/// the loop body is exactly the synchronization under test (one shard
/// lock per GET and per insert). Skipped (→ `None`) when the
/// machine cannot run two threads in parallel — an oversubscribed
/// single-core sweep measures the scheduler, not the cache.
mod real_thread {
    use super::{RealThreadPoint, RealThreadRecord};
    use alligator::{stats::AllocStats, Bucket, BucketCache, Tetris};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};
    use wafl_blockdev::{AaId, DriveId, DriveKind, GeometryBuilder, IoEngine, RaidGroupId, Vbn};

    const NSHARDS: usize = 8;
    const BUCKETS_PER_SHARD: usize = 4;
    const SWEEP: [usize; 4] = [1, 2, 4, 8];

    fn mk_bucket(drive: u32, start: u64) -> Bucket {
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
            0,
        )
    }

    /// GET/recycle cycles per second with `threads` workers on a cache
    /// of `shards` shards.
    fn run_layout(shards: usize, threads: usize, window: Duration) -> f64 {
        let cache = Arc::new(BucketCache::with_shards(
            shards,
            Arc::new(AllocStats::default()),
        ));
        cache.insert_all(
            (0..NSHARDS * BUCKETS_PER_SHARD)
                .map(|i| mk_bucket((i % NSHARDS) as u32, i as u64 * 64)),
        );
        let stop = Arc::new(AtomicBool::new(false));
        let total = Arc::new(AtomicU64::new(0));
        let start = Instant::now();
        let handles: Vec<_> = (0..threads)
            .map(|i| {
                let cache = Arc::clone(&cache);
                let stop = Arc::clone(&stop);
                let total = Arc::clone(&total);
                std::thread::spawn(move || {
                    let mut local = 0u64;
                    // ordering: shutdown flag; no data is published through it.
                    while !stop.load(Ordering::Relaxed) {
                        match cache.try_get_from(i) {
                            Some(b) => {
                                local += 1;
                                cache.insert(b);
                            }
                            None => std::thread::yield_now(),
                        }
                    }
                    // ordering: statistics counter; staleness is acceptable.
                    total.fetch_add(local, Ordering::Relaxed);
                })
            })
            .collect();
        std::thread::sleep(window);
        // ordering: shutdown flag; no data is published through it.
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            let _ = h.join();
        }
        let secs = start.elapsed().as_secs_f64();
        // ordering: statistics counter; staleness is acceptable.
        total.load(Ordering::Relaxed) as f64 / secs
    }

    pub fn measure(quick: bool) -> Option<RealThreadRecord> {
        let cpus = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        if cpus < 2 {
            eprintln!(
                "note: available_parallelism = {cpus}; real-thread sweep skipped \
                 (real_thread: null)"
            );
            return None;
        }
        let window = Duration::from_millis(if quick { 30 } else { 150 });
        let points = SWEEP
            .iter()
            .map(|&t| {
                let sharded = run_layout(NSHARDS, t, window);
                let single = run_layout(1, t, window);
                RealThreadPoint {
                    threads: t as u64,
                    sharded_gets_per_sec: sharded,
                    single_lock_gets_per_sec: single,
                    speedup: sharded / single,
                }
            })
            .collect();
        Some(RealThreadRecord {
            cpus: cpus as u64,
            points,
        })
    }
}

/// Per-point speedup of curve `a` over curve `b`, plus the minimum over
/// points at ≥ 8 threads.
fn speedups(a: &Curve, b: &Curve) -> (Vec<f64>, f64) {
    let v: Vec<f64> = a
        .points
        .iter()
        .zip(&b.points)
        .map(|(pa, pb)| pa.gets_per_sec / pb.gets_per_sec)
        .collect();
    let min8 = a
        .points
        .iter()
        .zip(&v)
        .filter(|(p, _)| p.threads >= 8)
        .map(|(_, &s)| s)
        .fold(f64::INFINITY, f64::min);
    (v, min8)
}

/// Schema/invariant check of a written record. Returns a description of
/// the first violation.
fn validate(doc: &ContentionDoc) -> Result<(), String> {
    if doc.schema != SCHEMA {
        return Err(format!("schema: expected {SCHEMA:?}, got {:?}", doc.schema));
    }
    if doc.threads.is_empty() {
        return Err("threads: empty sweep".into());
    }
    if !doc.threads.windows(2).all(|w| w[0] < w[1]) {
        return Err(format!(
            "threads not strictly increasing: {:?}",
            doc.threads
        ));
    }
    if !doc.threads.iter().any(|&t| t >= 8) {
        return Err("threads: no point at ≥ 8 (acceptance range uncovered)".into());
    }
    if doc.model_constants.is_empty()
        || doc
            .model_constants
            .iter()
            .any(|c| c.source.trim().is_empty() || !c.value.is_finite())
    {
        return Err("model_constants: every DES constant needs a value and a source".into());
    }
    let layouts = [
        ("single_lock", &doc.single_lock, 1u64, 1u64),
        ("mutex_sharded", &doc.mutex_sharded, 2, 1),
        ("mutex_sharded_get8", &doc.mutex_sharded_get8, 2, 8),
    ];
    let n = doc.threads.len();
    for (name, curve, min_shards, batch) in layouts {
        if (min_shards == 1 && curve.shards != 1) || curve.shards < min_shards {
            return Err(format!("{name}.shards = {}", curve.shards));
        }
        if !curve.modeled {
            return Err(format!(
                "{name}.modeled = false (DES curves are model output)"
            ));
        }
        if curve.get_batch != batch {
            return Err(format!("{name}.get_batch = {}", curve.get_batch));
        }
        if curve.points.len() != n {
            return Err(format!(
                "{name}: {} points, {n} threads",
                curve.points.len()
            ));
        }
        for (i, p) in curve.points.iter().enumerate() {
            if p.threads != doc.threads[i] {
                return Err(format!(
                    "{name}[{i}]: threads {} ≠ {}",
                    p.threads, doc.threads[i]
                ));
            }
            if !p.gets_per_sec.is_finite() || p.gets_per_sec <= 0.0 {
                return Err(format!("{name}[{i}]: gets_per_sec {}", p.gets_per_sec));
            }
        }
    }
    let v = &doc.speedup_sharded_vs_single_lock;
    if v.len() != n {
        return Err(format!(
            "speedup_sharded_vs_single_lock: {} entries, {n} threads",
            v.len()
        ));
    }
    let (expected, min_single) = speedups(&doc.mutex_sharded, &doc.single_lock);
    for (i, (&s, &expect)) in v.iter().zip(&expected).enumerate() {
        if !s.is_finite() || (s - expect).abs() > 1e-6 * expect.abs() {
            return Err(format!(
                "speedup_sharded_vs_single_lock[{i}] = {s} inconsistent with curves ({expect})"
            ));
        }
    }
    if (doc.min_vs_single_lock_at_8_plus_threads - min_single).abs() > 1e-6 * min_single.abs() {
        return Err(format!(
            "min_vs_single_lock_at_8_plus_threads = {} but curves give {min_single}",
            doc.min_vs_single_lock_at_8_plus_threads
        ));
    }
    if let Some(rt) = &doc.real_thread {
        if rt.cpus < 2 {
            return Err(format!("real_thread.cpus = {} (< 2 must be null)", rt.cpus));
        }
        if rt.points.is_empty() {
            return Err("real_thread: empty sweep".into());
        }
        for (i, p) in rt.points.iter().enumerate() {
            if !p.sharded_gets_per_sec.is_finite()
                || p.sharded_gets_per_sec <= 0.0
                || !p.single_lock_gets_per_sec.is_finite()
                || p.single_lock_gets_per_sec <= 0.0
            {
                return Err(format!("real_thread[{i}]: non-positive rate"));
            }
        }
    }
    if !doc.quick {
        if min_single < SINGLE_LOCK_FLOOR {
            return Err(format!(
                "speedup floor: min {min_single:.3}x vs single lock at ≥ 8 threads \
                 < {SINGLE_LOCK_FLOOR}x"
            ));
        }
        for (i, (p8, p1)) in doc
            .mutex_sharded_get8
            .points
            .iter()
            .zip(&doc.mutex_sharded.points)
            .enumerate()
        {
            if p8.gets_per_sec < GET8_SANITY * p1.gets_per_sec {
                return Err(format!(
                    "get_many(8) tanks throughput at {} threads: {:.0} vs {:.0} GET/s",
                    doc.threads[i], p8.gets_per_sec, p1.gets_per_sec
                ));
            }
        }
    }
    Ok(())
}

fn run_validate(path: &str) -> ! {
    let raw = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("exp_cache_contention: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let doc: ContentionDoc = match serde_json::from_str(&raw) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("exp_cache_contention: {path} does not parse as {SCHEMA}: {e}");
            std::process::exit(1);
        }
    };
    if let Err(msg) = validate(&doc) {
        eprintln!("exp_cache_contention: {path} invalid: {msg}");
        std::process::exit(1);
    }
    println!(
        "{path}: valid {SCHEMA} ({} points, modeled min sharded speedup at 8+ \
         threads: {:.2}x vs single lock, real_thread: {})",
        doc.threads.len(),
        doc.min_vs_single_lock_at_8_plus_threads,
        match &doc.real_thread {
            Some(rt) => format!("{} cpus", rt.cpus),
            None => "null".to_string(),
        }
    );
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("--validate") {
        match args.get(2) {
            Some(path) => run_validate(path),
            None => {
                eprintln!("usage: exp_cache_contention [--validate <path>]");
                std::process::exit(2);
            }
        }
    }

    let quick = std::env::var_os("WAFL_BENCH_QUICK").is_some();
    let mut t = FigureTable::new(
        "exp_cache_contention",
        "bucket-cache GET throughput (modeled): mutex shards vs single lock",
    );
    let (single, _) = sweep(Layout::SingleLock);
    let (mutex_sharded, r_mutex) = sweep(Layout::MutexSharded);
    let (mutex_sharded_get8, _) = sweep(Layout::MutexShardedGet8);

    for (i, &n) in THREADS.iter().enumerate() {
        t.row_measured(
            format!("modeled GET/s mutex-sharded @{n} threads"),
            mutex_sharded.points[i].gets_per_sec,
            "GET/s",
        );
        t.row_measured(
            format!("modeled GET/s single-lock @{n} threads"),
            single.points[i].gets_per_sec,
            "GET/s",
        );
        t.row_measured(
            format!("modeled GET/s mutex-sharded get_many(8) @{n} threads"),
            mutex_sharded_get8.points[i].gets_per_sec,
            "GET/s",
        );
    }
    // Contention-counter detail at the widest point.
    if let Some(rm) = r_mutex.last() {
        t.cache_rows("modeled mutex-sharded @16", rm);
    }

    let (speedup_single, min_single) = speedups(&mutex_sharded, &single);
    for (i, &n) in THREADS.iter().enumerate() {
        t.row_measured(
            format!("modeled sharded speedup vs single-lock @{n} threads"),
            speedup_single[i],
            "x",
        );
    }

    let real = real_thread::measure(quick);
    let doc = ContentionDoc {
        schema: SCHEMA.to_string(),
        bench: "exp_cache_contention".to_string(),
        quick,
        threads: THREADS.iter().map(|&n| n as u64).collect(),
        model_constants: model_constants(),
        single_lock: single,
        mutex_sharded,
        mutex_sharded_get8,
        speedup_sharded_vs_single_lock: speedup_single,
        min_vs_single_lock_at_8_plus_threads: min_single,
        real_thread: real,
    };
    if let Err(msg) = validate(&doc) {
        eprintln!("exp_cache_contention: produced record fails validation: {msg}");
        std::process::exit(1);
    }

    let root = bench_root();
    let _ = std::fs::create_dir_all(&root);
    let path = root.join("BENCH_cache_contention.json");
    let json = serde_json::to_string_pretty(&doc).expect("doc serializes");
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        println!("[saved {}]", path.display());
    }
    emit(&t);
    if let Some(rt) = &doc.real_thread {
        for p in &rt.points {
            println!(
                "real cache @{} threads: {:.0} GET/s sharded, {:.0} GET/s single lock \
                 ({:.2}x, wall clock, {} cpus)",
                p.threads, p.sharded_gets_per_sec, p.single_lock_gets_per_sec, p.speedup, rt.cpus
            );
        }
    }
    println!(
        "modeled min GET speedup at ≥ 8 cleaner threads: {min_single:.2}x sharded vs \
         single lock (floor {SINGLE_LOCK_FLOOR}x)"
    );
}
