//! One benchmark run: set-up, a measured window of client load against
//! a CP thread, the correctness check, and the metrics.

use crate::envelope::{fs_type, Envelope};
use crate::gate::Gate;
use crate::lat::Latencies;
use crate::layers::{self, Counters};
use crate::trace::{chrome_json, Spans};
use crate::workload::{
    block_stamp, Acked, Op, OpGen, Rng, Spec, CLEANERS, CLIENTS, DATA_DRIVES, RAID_GROUPS,
    WAFFINITY_THREADS,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};
use wafl::cp::CP_PHASE_NAMES;
use wafl::{CpReport, ExecMode, FileId, Filesystem, FsConfig, VolumeId};
use wafl_blockdev::{DriveKind, GeometryBuilder, SyncPolicy};

const VOL: VolumeId = VolumeId(0);
/// Every run ends within this long, including set-up and checks.
const RUN_DEADLINE: Duration = Duration::from_secs(160);
/// One client op in this many is traced as a span.
const TRACE_SAMPLE: u64 = 1024;
/// Set-ups an untraced run times for `setup_s`; the last one is measured.
const SETUPS: usize = 3;
/// Failure messages kept per run.
const MAX_MESSAGES: usize = 8;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured window length.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// Divide workload sizes by this power of two (1 = full size).
    pub shrink: u64,
    /// Directory for the trace and the file backend's drive files.
    pub out_dir: PathBuf,
    /// Self-test hook: acknowledge one write without issuing it.
    pub plant_lost_write: bool,
    /// Self-test hook: override the workload's blocks per drive.
    pub blocks_per_drive: Option<u64>,
}

/// One metric of the result.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every acknowledged write read back, no op failed, nothing panicked.
    pub correct: bool,
    /// Client ops attempted.
    pub attempted: u64,
    /// Ops that failed: wrong reads plus writes lost at read-back (all
    /// ops, if the run panicked or hung).
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Human-readable report lines printed before the result.
    pub report: Vec<String>,
    /// What went wrong, if anything.
    pub failures: Vec<String>,
    /// Machine and run tags.
    pub envelope: Envelope,
}

static PANICS: Mutex<Vec<String>> = Mutex::new(Vec::new());

/// Record every panic's message and location, so a panicking run ends
/// as failed with its cause instead of hanging or vanishing.
fn install_panic_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let thread = std::thread::current()
                .name()
                .unwrap_or("unnamed")
                .to_string();
            if let Ok(mut p) = PANICS.lock() {
                p.push(format!("thread '{thread}' panicked: {info}"));
            }
            default(info);
        }));
    });
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into());
    let recorded = PANICS.lock().map(|p| p.join("; ")).unwrap_or_default();
    if recorded.is_empty() {
        format!("panic: {msg}")
    } else {
        recorded
    }
}

/// Run `f` on its own thread; fail if it panics or outlives `deadline`
/// (the thread is then abandoned; the process exit reaps it).
fn within<T: Send + 'static>(
    deadline: Instant,
    what: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> Result<T, String> {
    let (tx, rx) = mpsc::channel();
    std::thread::Builder::new()
        .name(what.to_string())
        .spawn(move || {
            let _ = tx.send(catch_unwind(AssertUnwindSafe(f)));
        })
        .map_err(|e| format!("{what}: spawn failed: {e}"))?;
    match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(p)) => Err(format!("{what}: {}", panic_text(&*p))),
        Err(_) => Err(format!("{what}: did not finish before the run deadline")),
    }
}

/// A file system set up for one window.
struct Built {
    fs: Arc<Filesystem>,
    acked: Arc<Acked>,
    fb_dir: Option<PathBuf>,
    o_direct: bool,
    setup_s: f64,
}

impl Drop for Built {
    fn drop(&mut self) {
        if let Some(d) = &self.fb_dir {
            let _ = std::fs::remove_dir_all(d);
        }
    }
}

/// Aggregate, volume, files, prefill of every block, and the prefill's CP.
fn build(spec: &Spec, out_dir: &Path, tag: usize) -> Result<Built, String> {
    let t = Instant::now();
    let ticks = cpu_ticks();
    let mut geometry = GeometryBuilder::new();
    for _ in 0..RAID_GROUPS {
        geometry = geometry.raid_group(DATA_DRIVES, 1, spec.blocks_per_drive);
    }
    let mut cfg = FsConfig::default();
    cfg.cleaner.threads = CLEANERS;
    cfg.io_queue_depth = spec.io_queue_depth;
    let fs = Filesystem::new(
        cfg,
        geometry.build(),
        DriveKind::Ssd,
        ExecMode::Pool(WAFFINITY_THREADS),
    );
    let mut o_direct = false;
    let fb_dir = if spec.file_backend {
        let dir = out_dir.join(format!("fb-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let backend = fs
            .attach_file_backend(&dir, SyncPolicy::Barrier)
            .map_err(|e| format!("attach file backend under {}: {e}", dir.display()))?;
        o_direct = backend.o_direct();
        Some(dir)
    } else {
        None
    };
    fs.create_volume(VOL);
    for file in 0..CLIENTS as u64 * spec.files_per_client {
        fs.create_file(VOL, FileId(file));
        for fbn in 0..spec.file_blocks {
            fs.write(VOL, FileId(file), fbn, block_stamp(file, fbn, 1));
        }
    }
    fs.run_cp();
    Ok(Built {
        fs: Arc::new(fs),
        acked: Arc::new(Acked::new(spec.blocks(), 1)),
        fb_dir,
        o_direct,
        // Granted time, as for the window's rates (see `end_to_end`).
        setup_s: t.elapsed().as_secs_f64() * granted_since(ticks),
    })
}

/// What one client thread measured.
#[derive(Default)]
struct ClientOut {
    ops: u64,
    /// Reads that returned something other than an acknowledged stamp.
    stale_reads: u64,
    messages: Vec<String>,
    writes: Latencies,
    reads: Latencies,
    stalls: u64,
    stall_ns: u64,
    wall_ns: u64,
    // Traced windows only.
    write_self: Latencies,
    bench_ns: u64,
    spans: Option<Spans>,
}

/// What the CP thread measured.
#[derive(Default)]
struct CpOut {
    reports: Vec<CpReport>,
    /// `run_cp` wall time per CP, timed from outside.
    cp_ns: Vec<u64>,
    idle_ns: u64,
    wall_ns: u64,
    /// `NvLog::current_len()` over the half size at each CP start.
    fill: Vec<f64>,
    spans: Option<Spans>,
}

struct Window {
    wall_s: f64,
    /// Share of the CPU time this machine asked for during the window
    /// that the hypervisor granted rather than gave to other guests
    /// (`/proc/stat`: run / (run + steal)).
    granted: f64,
    clients: Vec<ClientOut>,
    cp: CpOut,
    before: Counters,
    after: Counters,
}

struct Shared {
    fs: Arc<Filesystem>,
    acked: Arc<Acked>,
    spec: Spec,
    gate: Gate,
    stop: AtomicBool,
    start: Barrier,
    trace: bool,
    plant_lost_write: bool,
    /// Time zero of the window's trace.
    epoch: Instant,
}

fn client(sh: &Shared, c: usize, seed: u64) -> ClientOut {
    let spec = &sh.spec;
    let mut ops = OpGen::new(spec, seed, c);
    let mut out = ClientOut::default();
    sh.start.wait();
    let start = Instant::now();
    if sh.trace {
        out.spans = Some(Spans::new(sh.epoch, c as u32 + 1));
    }
    let mut prev_end = start;
    // ordering: Relaxed — the stop flag publishes no data; the gate's
    // own lock releases writers parked at the stop.
    while !sh.stop.load(Ordering::Relaxed) {
        let op = ops.next_op();
        let t0 = Instant::now();
        let sampled = sh.trace && out.ops.is_multiple_of(TRACE_SAMPLE);
        let id = (c as u64) << 48 | out.ops;
        match op {
            Op::Write { file, fbn } => {
                let parked = match sh.gate.admit() {
                    Ok(p) => p.map_or(0, |d| d.as_nanos() as u64),
                    Err(_) => break,
                };
                let b = spec.block(file, fbn);
                let generation = sh.acked.get(b) + 1;
                sh.fs
                    .write(VOL, FileId(file), fbn, block_stamp(file, fbn, generation));
                sh.acked.set(b, generation);
                let t2 = Instant::now();
                let ack = (t2 - t0).as_nanos() as u64;
                out.writes.record(ack);
                if parked > 0 {
                    out.stalls += 1;
                    out.stall_ns += parked;
                }
                if sh.trace {
                    // The write's own time excludes the admission wait.
                    out.bench_ns += (t0 - prev_end).as_nanos() as u64;
                    out.write_self.record(ack - parked);
                    let spans = out.spans.as_mut().expect("traced");
                    if parked > 0 {
                        spans.push("nvlog.admit", t0, parked, id);
                    }
                    if sampled {
                        let t1 = t0 + Duration::from_nanos(parked);
                        spans.push("fs.write", t1, ack - parked, id);
                    }
                }
                prev_end = t2;
            }
            Op::Read { file, fbn } => {
                let b = spec.block(file, fbn);
                let lo = sh.acked.get(b);
                let got = sh.fs.read(VOL, FileId(file), fbn);
                let hi = sh.acked.get(b);
                let t2 = Instant::now();
                out.reads.record((t2 - t0).as_nanos() as u64);
                // The owner may be writing generation hi + 1 right now.
                let ok = (lo..=hi + 1).any(|g| got == Some(block_stamp(file, fbn, g)));
                if !ok {
                    out.stale_reads += 1;
                    if out.messages.len() < MAX_MESSAGES {
                        let found = (0..lo).find(|&g| got == Some(block_stamp(file, fbn, g)));
                        out.messages.push(format!(
                            "read of file {file} fbn {fbn} returned generation {found:?} after generation {lo} was acknowledged"
                        ));
                    }
                }
                if sh.trace {
                    out.bench_ns += (t0 - prev_end).as_nanos() as u64;
                    if sampled {
                        let spans = out.spans.as_mut().expect("traced");
                        spans.push("fs.read", t0, (t2 - t0).as_nanos() as u64, id);
                    }
                }
                prev_end = t2;
            }
        }
        out.ops += 1;
    }
    out.wall_ns = start.elapsed().as_nanos() as u64;
    if sh.plant_lost_write && c == 0 {
        // Acknowledge one more write without issuing it: a lost write.
        let b = loop {
            if let Op::Write { file, fbn } = ops.next_op() {
                break spec.block(file, fbn);
            }
        };
        sh.acked.set(b, sh.acked.get(b) + 1);
    }
    out
}

fn cp_thread(sh: &Shared) -> CpOut {
    let mut out = CpOut::default();
    sh.start.wait();
    let start = Instant::now();
    if sh.trace {
        out.spans = Some(Spans::new(sh.epoch, 0));
    }
    loop {
        let idle = Instant::now();
        let go = sh.gate.wait_full();
        let t0 = Instant::now();
        out.idle_ns += (t0 - idle).as_nanos() as u64;
        // ordering: Relaxed — see `client`.
        if !go || sh.stop.load(Ordering::Relaxed) {
            break;
        }
        if sh.trace {
            out.fill
                .push(sh.fs.nvlog().current_len() as f64 / sh.spec.nvlog_half as f64);
        }
        sh.gate.open_half();
        let report = sh.fs.run_cp();
        let ns = t0.elapsed().as_nanos() as u64;
        if let Some(spans) = out.spans.as_mut() {
            spans.push(
                "cp.wait_half",
                idle,
                (t0 - idle).as_nanos() as u64,
                report.cp_id,
            );
            spans.push("run_cp", t0, ns, report.cp_id);
            // The six phases laid end to end from the CP's own report.
            let mut at = t0;
            for (name, phase_ns) in CP_PHASE_NAMES.iter().zip(report.phase_ns()) {
                spans.push(phase_span_name(name), at, phase_ns, report.cp_id);
                at += Duration::from_nanos(phase_ns);
            }
        }
        out.cp_ns.push(ns);
        out.reports.push(report);
    }
    out.wall_ns = start.elapsed().as_nanos() as u64;
    out
}

fn phase_span_name(phase: &str) -> &'static str {
    match phase {
        "freeze" => "cp.freeze",
        "clean" => "cp.clean",
        "apply" => "cp.apply",
        "metafile" => "cp.metafile",
        "barrier" => "cp.barrier",
        _ => "cp.commit",
    }
}

enum Done {
    Client(usize, Box<ClientOut>),
    Cp(CpOut),
    Panicked(String),
}

/// Drive `built` for `seconds` with the clients and the CP thread.
fn window(
    built: &Built,
    spec: &Spec,
    opts: &Options,
    trace: bool,
    seconds: f64,
    deadline: Instant,
) -> Result<Window, String> {
    let sh = Arc::new(Shared {
        fs: Arc::clone(&built.fs),
        acked: Arc::clone(&built.acked),
        spec: spec.clone(),
        gate: Gate::new(spec.nvlog_half),
        stop: AtomicBool::new(false),
        start: Barrier::new(CLIENTS + 2),
        trace,
        plant_lost_write: opts.plant_lost_write,
        epoch: Instant::now(),
    });
    let (tx, rx) = mpsc::channel();
    let spawn = |name: String, body: Box<dyn FnOnce(&Shared) -> Done + Send>| {
        let sh = Arc::clone(&sh);
        let tx = tx.clone();
        std::thread::Builder::new()
            .name(name)
            .spawn(move || {
                let done = catch_unwind(AssertUnwindSafe(|| body(&sh)))
                    .unwrap_or_else(|p| Done::Panicked(panic_text(&*p)));
                if matches!(done, Done::Panicked(_)) {
                    // Release everyone else so the run ends instead of hanging.
                    sh.gate.stop();
                    // ordering: Relaxed — see `client`.
                    sh.stop.store(true, Ordering::Relaxed);
                }
                let _ = tx.send(done);
            })
            .map(|_| ())
            .map_err(|e| format!("spawn: {e}"))
    };
    spawn("cp".into(), Box::new(|sh| Done::Cp(cp_thread(sh))))?;
    for c in 0..CLIENTS {
        let seed = opts.seed;
        spawn(
            format!("client-{c}"),
            Box::new(move |sh| Done::Client(c, Box::new(client(sh, c, seed)))),
        )?;
    }
    drop(tx);
    let before = Counters::read(&built.fs);
    let ticks_before = cpu_ticks();
    sh.start.wait();
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let mut done = Vec::new();
    // Sleep through the window unless a thread ends early (a panic).
    if let Ok(d) = rx.recv_timeout(end.saturating_duration_since(Instant::now())) {
        done.push(d);
    }
    sh.gate.stop();
    // ordering: Relaxed — see `client`.
    sh.stop.store(true, Ordering::Relaxed);
    while done.len() < CLIENTS + 1 {
        match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok(d) => done.push(d),
            Err(_) => return Err("run hung: threads did not stop before the run deadline".into()),
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let after = Counters::read(&built.fs);
    let granted = granted_since(ticks_before);
    let mut clients: Vec<(usize, Box<ClientOut>)> = Vec::new();
    let mut cp = None;
    let mut panics = Vec::new();
    for d in done {
        match d {
            Done::Client(c, out) => clients.push((c, out)),
            Done::Cp(out) => cp = Some(out),
            Done::Panicked(msg) => panics.push(msg),
        }
    }
    if !panics.is_empty() {
        return Err(panics.join("; "));
    }
    clients.sort_by_key(|(c, _)| *c);
    Ok(Window {
        wall_s,
        granted,
        clients: clients.into_iter().map(|(_, o)| *o).collect(),
        cp: cp.expect("the CP thread reported"),
        before,
        after,
    })
}

/// Final CP, integrity check, and read-back of every block's last
/// acknowledged stamp; `file_backend_seq` also remounts from the drive
/// files and reads back a seeded sample. Returns blocks lost and
/// messages.
fn check(
    fs: &Filesystem,
    acked: &Acked,
    fb_dir: Option<&Path>,
    spec: &Spec,
    seed: u64,
) -> (u64, Vec<String>) {
    let mut lost = 0u64;
    let mut msgs = Vec::new();
    fs.run_cp();
    if let Err(e) = fs.verify_integrity() {
        lost += 1;
        msgs.push(format!("verify_integrity: {e}"));
    }
    let mut verify = |fs: &Filesystem, file: u64, fbn: u64, what: &str| {
        let generation = acked.get(spec.block(file, fbn));
        let got = fs.read_persisted(VOL, FileId(file), fbn);
        if got != Some(block_stamp(file, fbn, generation)) {
            lost += 1;
            if msgs.len() < MAX_MESSAGES {
                msgs.push(format!(
                    "{what}: file {file} fbn {fbn} reads {got:?}, last acknowledged generation {generation}"
                ));
            }
        }
    };
    for file in 0..CLIENTS as u64 * spec.files_per_client {
        for fbn in 0..spec.file_blocks {
            verify(fs, file, fbn, "read-back");
        }
    }
    if let Some(dir) = fb_dir {
        match fs.remount_from_files(dir, ExecMode::Pool(WAFFINITY_THREADS)) {
            Ok(remounted) => {
                let files = CLIENTS as u64 * spec.files_per_client;
                let mut rng = Rng::new(seed, 0x5eed);
                for _ in 0..spec.remount_sample {
                    let (file, fbn) = (rng.below(files), rng.below(spec.file_blocks));
                    verify(&remounted, file, fbn, "remount read-back");
                }
            }
            Err(e) => {
                lost += 1;
                msgs.push(format!("remount_from_files: {e}"));
            }
        }
    }
    (lost, msgs)
}

/// The first eight fields of `/proc/stat`'s `cpu` line (user, nice,
/// system, idle, iowait, irq, softirq, steal), in clock ticks.
fn cpu_ticks() -> Option<[u64; 8]> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let mut f = stat.lines().next()?.split_whitespace().skip(1);
    let mut out = [0u64; 8];
    for v in &mut out {
        *v = f.next()?.parse().ok()?;
    }
    Some(out)
}

/// Share of the CPU time asked for since `before` (a [`cpu_ticks`]
/// reading) that the hypervisor granted: run / (run + steal), where run
/// is user, nice, system, irq and softirq time. 1 without `/proc/stat`.
fn granted_since(before: Option<[u64; 8]>) -> f64 {
    let (Some(a), Some(b)) = (before, cpu_ticks()) else {
        return 1.0;
    };
    let d = |i: usize| b[i].saturating_sub(a[i]);
    let ran = d(0) + d(1) + d(2) + d(5) + d(6);
    let asked = ran + d(7);
    if asked == 0 {
        1.0
    } else {
        ran as f64 / asked as f64
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Window results folded across clients.
#[derive(Default)]
struct Totals {
    ops: u64,
    stale_reads: u64,
    messages: Vec<String>,
    writes: Latencies,
    reads: Latencies,
    write_self: Latencies,
    stalls: u64,
    stall_ns: u64,
}

fn totals(w: &Window) -> Totals {
    let mut t = Totals::default();
    for c in &w.clients {
        t.ops += c.ops;
        t.stale_reads += c.stale_reads;
        t.messages.extend(c.messages.iter().cloned());
        t.writes.merge(&c.writes);
        t.reads.merge(&c.reads);
        t.write_self.merge(&c.write_self);
        t.stalls += c.stalls;
        t.stall_ns += c.stall_ns;
    }
    t
}

fn cleaned(w: &Window) -> u64 {
    w.cp.reports.iter().map(|r| r.buffers_cleaned as u64).sum()
}

fn stall_frac(w: &Window, t: &Totals) -> f64 {
    let wall: u64 = w.clients.iter().map(|c| c.wall_ns).sum();
    t.stall_ns as f64 / wall.max(1) as f64
}

/// Rates and CP times are taken over the window's *granted* time: wall
/// time scaled by the share of the CPU time the machine asked for that
/// the hypervisor granted (`Window::granted`). On a shared host, time
/// stolen by other guests otherwise dominates the run-to-run spread; on
/// a dedicated host the two are equal.
fn end_to_end(w: &Window, t: &Totals, setup_s: f64, rss: f64) -> Vec<Metric> {
    let us = |ns: u64| ns as f64 / 1e3;
    let cleaned = cleaned(w);
    let media = w.after.media_blocks_since(&w.before);
    let cp_ms = median(w.cp.cp_ns.iter().map(|&n| n as f64 / 1e6).collect());
    vec![
        m("setup_s", setup_s, "s"),
        m("ops_per_s", t.ops as f64 / (w.wall_s * w.granted), "ops/s"),
        m(
            "durable_blocks_per_s",
            cleaned as f64 / (w.wall_s * w.granted),
            "blocks/s",
        ),
        m("write_ack_p50_us", us(t.writes.quantile_ns(0.5)), "us"),
        m("write_ack_p99_us", us(t.writes.quantile_ns(0.99)), "us"),
        m("cp_p50_ms", cp_ms * w.granted, "ms"),
        m(
            "write_amp",
            media as f64 / cleaned.max(1) as f64,
            "blocks/block",
        ),
        m("peak_rss_mb", rss, "MiB"),
    ]
}

/// Per-layer metrics and the layer budget of a traced window.
fn per_layer(w: &Window, t: &Totals, overhead: f64, report: &mut Vec<String>) -> Vec<Metric> {
    let s = |ns: u64| ns as f64 / 1e9;
    let mut phase = [0u64; 6];
    let (mut messages, mut buffers, mut mf_blocks, mut rounds, mut dropped) = (0, 0, 0, 0, 0);
    for r in &w.cp.reports {
        for (acc, ns) in phase.iter_mut().zip(r.phase_ns()) {
            *acc += ns;
        }
        messages += r.cleaner_messages as u64;
        buffers += r.buffers_cleaned as u64;
        mf_blocks += r.metafile_blocks_written as u64;
        rounds += r.fixpoint_rounds as u64;
        dropped += r.residual_dirty_dropped as u64;
    }
    let cp_ns: u64 = w.cp.cp_ns.iter().sum();
    let phases_ns: u64 = phase.iter().sum();
    let cps = w.cp.reports.len() as f64;
    let mut out = vec![
        m("fs.write_self_us_mean", t.write_self.mean_ns() / 1e3, "us"),
        m("fs.read_us_mean", t.reads.mean_ns() / 1e3, "us"),
        m("read_p50_us", t.reads.quantile_ns(0.5) as f64 / 1e3, "us"),
        m("read_p99_us", t.reads.quantile_ns(0.99) as f64 / 1e3, "us"),
        m("fs.stale_reads", t.stale_reads as f64, "count"),
        m("nvlog.stalls", t.stalls as f64, "count"),
        m("nvlog.stall_s", s(t.stall_ns), "s"),
        m("write_stall_frac", stall_frac(w, t), "frac"),
        m(
            "nvlog.fill_at_cp_frac",
            w.cp.fill.iter().sum::<f64>() / cps.max(1.0),
            "frac",
        ),
        m("cp.count", cps, "count"),
        m("cp.busy_frac", s(cp_ns) / w.wall_s, "frac"),
    ];
    let phase_metric = [
        "cp.freeze_s",
        "cp.clean_s",
        "cp.apply_s",
        "cp.metafile_s",
        "cp.barrier_s",
        "cp.commit_s",
    ];
    for (name, ns) in phase_metric.iter().zip(phase) {
        out.push(m(name, s(ns), "s"));
    }
    out.push(m(
        "cp.phase_coverage",
        phases_ns as f64 / cp_ns.max(1) as f64,
        "frac",
    ));
    out.push(m("cleaner.messages", messages as f64, "count"));
    out.push(m(
        "cleaner.buffers_per_message",
        buffers as f64 / messages.max(1) as f64,
        "buffers",
    ));
    for (name, value, unit) in layers::metrics(&w.before, &w.after, w.wall_s, s(phase[1])) {
        out.push(m(name, value, unit));
    }
    out.push(m("metafile.blocks_written", mf_blocks as f64, "count"));
    out.push(m(
        "metafile.fixpoint_rounds",
        rounds as f64 / cps.max(1.0),
        "rounds/cp",
    ));
    out.push(m("metafile.residual_dropped", dropped as f64, "count"));
    out.push(m("trace_overhead_frac", overhead, "frac"));

    // Layer budget: measured rows over each thread's wall time.
    let mut client_cov = f64::INFINITY;
    for (i, c) in w.clients.iter().enumerate() {
        let wall = c.wall_ns.max(1) as f64;
        let rows = [
            ("nvlog.admit", c.stall_ns),
            ("fs.write", c.write_self.sum_ns() as u64),
            ("fs.read", c.reads.sum_ns() as u64),
        ];
        let covered: u64 = rows.iter().map(|r| r.1).sum();
        client_cov = client_cov.min(covered as f64 / wall);
        let cells: Vec<String> = rows
            .iter()
            .chain([("bench", c.bench_ns)].iter())
            .map(|(n, ns)| format!("{n} {:.1}%", 100.0 * *ns as f64 / wall))
            .collect();
        report.push(format!(
            "budget client-{i}: {} | layers cover {:.1}% of {:.3} s",
            cells.join(", "),
            100.0 * covered as f64 / wall,
            wall / 1e9
        ));
    }
    let cp_wall = w.cp.wall_ns.max(1) as f64;
    let cp_cov = (w.cp.idle_ns + phases_ns) as f64 / cp_wall;
    let mut cells = vec![format!(
        "cp.wait_half {:.1}%",
        100.0 * w.cp.idle_ns as f64 / cp_wall
    )];
    for (name, ns) in CP_PHASE_NAMES.iter().zip(phase) {
        cells.push(format!("cp.{name} {:.1}%", 100.0 * ns as f64 / cp_wall));
    }
    report.push(format!(
        "budget cp: {} | rows cover {:.1}% of {:.3} s",
        cells.join(", "),
        100.0 * cp_cov,
        cp_wall / 1e9
    ));
    let (largest, largest_ns) = phase
        .iter()
        .enumerate()
        .max_by_key(|(_, &ns)| ns)
        .map(|(i, &ns)| (CP_PHASE_NAMES[i], ns))
        .unwrap_or(("none", 0));
    report.push(format!(
        "largest CP phase: {largest} ({:.1}% of CP phase time)",
        100.0 * largest_ns as f64 / phases_ns.max(1) as f64
    ));
    let admit = t.stall_ns;
    let bench: u64 = w.clients.iter().map(|c| c.bench_ns).sum();
    let client_wall: u64 = w.clients.iter().map(|c| c.wall_ns).sum::<u64>().max(1);
    let cw = |ns: u64| ns as f64 / client_wall as f64;
    out.extend([
        m("budget.client.admit_frac", cw(admit), "frac"),
        m(
            "budget.client.write_frac",
            cw(t.write_self.sum_ns() as u64),
            "frac",
        ),
        m(
            "budget.client.read_frac",
            cw(t.reads.sum_ns() as u64),
            "frac",
        ),
        m("budget.client.bench_frac", cw(bench), "frac"),
        m("budget.client_coverage", client_cov, "frac"),
        m("budget.cp.wait_frac", w.cp.idle_ns as f64 / cp_wall, "frac"),
        m("budget.cp.run_cp_frac", cp_ns as f64 / cp_wall, "frac"),
        m("budget.cp_coverage", cp_cov, "frac"),
    ]);
    out
}

/// Execute one run as `opts` describes.
pub fn run(opts: &Options) -> Outcome {
    install_panic_hook();
    let deadline = Instant::now() + RUN_DEADLINE;
    let mut envelope = Envelope::new(&opts.workload, opts.seed, opts.trace);
    let mut outcome = Outcome {
        correct: false,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        report: Vec::new(),
        failures: Vec::new(),
        envelope: envelope.clone(),
    };
    let Some(mut spec) = Spec::named(&opts.workload, opts.shrink) else {
        outcome
            .failures
            .push(format!("unknown workload {:?}", opts.workload));
        return outcome;
    };
    if let Some(bpd) = opts.blocks_per_drive {
        spec.blocks_per_drive = bpd;
    }
    if let Err(e) = std::fs::create_dir_all(&opts.out_dir) {
        outcome
            .failures
            .push(format!("create {}: {e}", opts.out_dir.display()));
        return outcome;
    }
    envelope.set("io_queue_depth", spec.io_queue_depth.to_string());
    envelope.set("nvlog_half_ops", spec.nvlog_half.to_string());
    if spec.file_backend {
        envelope.set("backend_dir_fs", fs_type(&opts.out_dir));
    }
    match measure(opts, &spec, deadline, &mut outcome, &mut envelope) {
        Ok(()) => {}
        Err(e) => {
            outcome.failures.push(e);
            outcome.attempted = outcome.attempted.max(1);
            outcome.failed = outcome.attempted;
        }
    }
    outcome.correct = outcome.failures.is_empty() && outcome.failed == 0;
    outcome.envelope = envelope;
    outcome
}

/// Set up, measure and check one window; returns the window, its
/// client totals, and the set-up it ran on.
fn measured_window(
    opts: &Options,
    spec: &Spec,
    trace: bool,
    seconds: f64,
    setups: usize,
    deadline: Instant,
    outcome: &mut Outcome,
) -> Result<(Window, Totals, f64, f64, Built), String> {
    let (s, dir) = (spec.clone(), opts.out_dir.clone());
    // One thread builds every set-up, so each reuses the memory its
    // predecessor freed and `peak_rss_mb` sees one file system.
    let (setup_times, built) = within(deadline, "setup", move || {
        let mut times = Vec::new();
        let mut built = None;
        for i in 0..setups {
            drop(built.take());
            let b = build(&s, &dir, i)?;
            times.push(b.setup_s);
            built = Some(b);
        }
        Ok::<_, String>((times, built.expect("at least one set-up")))
    })??;
    let w = window(&built, spec, opts, trace, seconds, deadline)?;
    let rss = peak_rss_mb();
    let t = totals(&w);
    outcome.attempted += t.ops;
    outcome.failed += t.stale_reads;
    outcome.failures.extend(t.messages.iter().cloned());
    let (fs, acked, fb_dir) = (
        Arc::clone(&built.fs),
        Arc::clone(&built.acked),
        built.fb_dir.clone(),
    );
    let (s, seed) = (spec.clone(), opts.seed);
    let (lost, msgs) = within(deadline, "check", move || {
        check(&fs, &acked, fb_dir.as_deref(), &s, seed)
    })?;
    outcome.failed += lost;
    outcome.failures.extend(msgs);
    Ok((w, t, median(setup_times), rss, built))
}

fn measure(
    opts: &Options,
    spec: &Spec,
    deadline: Instant,
    outcome: &mut Outcome,
    envelope: &mut Envelope,
) -> Result<(), String> {
    if !opts.trace {
        let (w, t, setup_s, rss, built) =
            measured_window(opts, spec, false, opts.seconds, SETUPS, deadline, outcome)?;
        if spec.file_backend {
            envelope.set("backend_o_direct", built.o_direct.to_string());
        }
        envelope.set("cpu_granted", format!("{:.4}", w.granted));
        outcome.metrics = end_to_end(&w, &t, setup_s, rss);
        outcome.report.push(summary(&w, &t, outcome));
        // End-to-end figures BENCHMARK.json lists per layer, because they
        // are 0 on some workloads; an untraced run prints them too.
        outcome.report.push(format!(
            "also read_p50_us {} us, read_p99_us {} us, write_stall_frac {} frac, failed_op_frac {} frac",
            t.reads.quantile_ns(0.5) as f64 / 1e3,
            t.reads.quantile_ns(0.99) as f64 / 1e3,
            stall_frac(&w, &t),
            outcome.failed as f64 / outcome.attempted.max(1) as f64,
        ));
        return Ok(());
    }
    // Traced run: an untraced window, then a traced one on a fresh
    // set-up, each half the run's length.
    let half = opts.seconds / 2.0;
    let (plain, plain_t, ..) = measured_window(opts, spec, false, half, 1, deadline, outcome)?;
    let (w, t, _, _, built) = measured_window(opts, spec, true, half, 1, deadline, outcome)?;
    if spec.file_backend {
        envelope.set("backend_o_direct", built.o_direct.to_string());
    }
    envelope.set("cpu_granted", format!("{:.4}", w.granted));
    // Both rates over granted time, as `ops_per_s` is.
    let plain_ops = plain_t.ops as f64 / (plain.wall_s * plain.granted);
    let traced_ops = t.ops as f64 / (w.wall_s * w.granted);
    let overhead = 1.0 - traced_ops / plain_ops.max(1e-9);
    outcome.metrics = per_layer(&w, &t, overhead, &mut outcome.report);
    outcome.metrics.push(m(
        "failed_op_frac",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        "frac",
    ));
    outcome.report.push(summary(&w, &t, outcome));
    let path = opts.out_dir.join(format!("trace-{}.json", spec.name));
    let mut spans: Vec<&Spans> = w.clients.iter().filter_map(|c| c.spans.as_ref()).collect();
    spans.extend(w.cp.spans.as_ref());
    let dropped: u64 = spans.iter().map(|s| s.dropped()).sum();
    std::fs::write(&path, chrome_json(&spans, &envelope.json()))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    outcome.report.push(format!(
        "trace: {} ({} spans kept, {dropped} over the cap)",
        path.display(),
        spans.iter().map(|s| s.spans().len()).sum::<usize>()
    ));
    Ok(())
}

fn summary(w: &Window, t: &Totals, outcome: &Outcome) -> String {
    format!(
        "window {:.3} s: {} ops, {:.0} ops/s of wall time; {} writes (p99.9 {:.1} us, {} beyond p99), {} reads, {} CPs, write_stall_frac {:.4}, failed_op_frac {}, CPU granted {:.3}",
        w.wall_s,
        t.ops,
        t.ops as f64 / w.wall_s,
        t.writes.count(),
        t.writes.quantile_ns(0.999) as f64 / 1e3,
        t.writes.beyond(0.99),
        t.reads.count(),
        w.cp.reports.len(),
        stall_frac(w, t),
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        w.granted,
    )
}
