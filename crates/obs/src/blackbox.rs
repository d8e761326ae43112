//! Black-box flight recorder: on a trigger (drive offlining, CP crash
//! point, scrub finding, or a manual dump) it
//! atomically writes a post-mortem bundle — the most recent events
//! from every per-thread [`EventRing`](crate::ring::EventRing) with
//! per-thread drop counts, a full metrics snapshot, and any registered
//! provider sections (the RAID `FaultSnapshot`, the active `FsConfig`,
//! …) — schema `wafl.blackbox.v1`.
//!
//! # Deferred triggers
//!
//! Fire sites live deep in the stack (a drive's failure path, a CP
//! crash point) and may hold locks when they
//! fire, so [`trigger`] is **lock-free**: it only bumps process-wide
//! atomics on the trigger board. The actual dump happens later, when
//! an armed [`Blackbox`] services the board — from the sampler thread
//! ([`SamplerThread`](crate::sampler::SamplerThread)) or an explicit
//! [`Blackbox::service`]/[`Blackbox::dump`] call. This keeps trigger
//! sites free of lock-order edges (ward ranks the blackbox mutex below
//! the registry locks it reads during a dump) and makes firing cheap
//! enough to leave compiled in everywhere.
//!
//! Bundles are written atomically: the JSON goes to a temp file in the
//! target directory first and is `rename`d into place, so a crash
//! mid-dump never leaves a half-written bundle behind.

use crate::metrics::Registry;
use crate::sampler::RegistrySource;
use serde::Value;
use std::path::PathBuf;
// Note: deliberately std atomics — the trigger board is wall-clock
// plumbing the model checker never schedules (same note as trace.rs).
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Schema tag of blackbox bundles.
pub const BLACKBOX_SCHEMA: &str = "wafl.blackbox.v1";

/// The trigger taxonomy (DESIGN.md §16). Each variant has one slot on
/// the process-wide trigger board.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// A drive left service (`Drive::take_offline`).
    DriveOffline = 0,
    /// An injected CP crash point fired (`wafl::cp::CrashPoint`).
    CrashPoint = 1,
    /// The online scrubber verified a block and found it damaged.
    ScrubFinding = 2,
    /// An explicit [`Blackbox::dump`] call.
    Manual = 3,
}

impl Trigger {
    /// All triggers, board order.
    pub const ALL: [Trigger; 4] = [
        Trigger::DriveOffline,
        Trigger::CrashPoint,
        Trigger::ScrubFinding,
        Trigger::Manual,
    ];

    /// Stable snake_case name (bundle field, file-name suffix).
    pub fn name(self) -> &'static str {
        match self {
            Trigger::DriveOffline => "drive_offline",
            Trigger::CrashPoint => "crash_point",
            Trigger::ScrubFinding => "scrub_finding",
            Trigger::Manual => "manual",
        }
    }
}

/// The process-wide trigger board: per-trigger fire counts and the most
/// recent argument word. Plain atomics — safe from any context.
static FIRES: [AtomicU64; 4] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];
static LAST_ARG: [AtomicU64; 4] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];

/// Fire a trigger. Lock-free and always compiled in: callers fire
/// unconditionally; whether anything is recorded is decided by the
/// armed [`Blackbox`] (if any) at service time. `arg` is a
/// trigger-specific word (drive index, crash-point ordinal, shard, …).
#[inline]
pub fn trigger(t: Trigger, arg: u64) {
    // ordering: statistics counter; the servicing dump rereads the
    // board under its own lock, no publication needed here.
    LAST_ARG[t as usize].store(arg, Ordering::Relaxed);
    // ordering: as above.
    FIRES[t as usize].fetch_add(1, Ordering::Relaxed);
}

/// Fire counts per trigger, board order ([`Trigger::ALL`]).
pub fn fires() -> [u64; 4] {
    // ordering: statistics read; staleness acceptable.
    [0, 1, 2, 3].map(|i| FIRES[i].load(Ordering::Relaxed))
}

/// Total fires across all triggers.
pub fn total_fires() -> u64 {
    fires().iter().sum()
}

/// A section provider: called at dump time to contribute one named
/// JSON subtree (e.g. the RAID layer's `FaultSnapshot`, the active
/// `FsConfig`). Providers let the leaf `obs` crate bundle state from
/// crates above it without depending on them.
pub type SectionFn = Box<dyn Fn() -> Value + Send + Sync>;

/// Flight-recorder configuration.
#[derive(Debug, Clone)]
pub struct BlackboxConfig {
    /// Directory receiving bundles (created on first dump).
    pub dir: PathBuf,
    /// Newest events exported per thread (0 = all retained).
    pub max_events_per_thread: usize,
    /// Triggers this recorder reacts to at service time.
    pub enabled: Vec<Trigger>,
}

impl BlackboxConfig {
    /// All triggers enabled, 256 events/thread, bundles into `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        BlackboxConfig {
            dir: dir.into(),
            max_events_per_thread: 256,
            enabled: Trigger::ALL.to_vec(),
        }
    }
}

struct Inner {
    sections: Vec<(String, SectionFn)>,
    /// Board fires already handled, per trigger.
    serviced: [u64; 4],
    dumps: u64,
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inner")
            .field(
                "sections",
                &self.sections.iter().map(|(n, _)| n).collect::<Vec<_>>(),
            )
            .field("serviced", &self.serviced)
            .field("dumps", &self.dumps)
            .finish()
    }
}

/// The armed flight recorder (see module docs).
#[derive(Debug)]
pub struct Blackbox {
    cfg: BlackboxConfig,
    source: RegistrySource,
    inner: Mutex<Inner>, // lock-rank: obs.blackbox 78
}

impl Blackbox {
    /// Recorder over `source` with `cfg`.
    pub fn new(source: RegistrySource, cfg: BlackboxConfig) -> Self {
        Blackbox {
            cfg,
            source,
            inner: Mutex::new(Inner {
                sections: Vec::new(),
                // Fires predating arming are not retroactively dumped.
                serviced: fires(),
                dumps: 0,
            }),
        }
    }

    /// Recorder over the global registry.
    pub fn global(cfg: BlackboxConfig) -> Self {
        Self::new(RegistrySource::Global, cfg)
    }

    /// Register a provider contributing section `name` to every bundle.
    pub fn add_section(&self, name: impl Into<String>, f: SectionFn) {
        self.inner.lock().unwrap().sections.push((name.into(), f));
    }

    /// Bundles written so far.
    pub fn dumps(&self) -> u64 {
        self.inner.lock().unwrap().dumps
    }

    /// Service the trigger board: if any *enabled* trigger has fired
    /// since the last service, write one bundle covering everything
    /// pending and mark it handled. Returns the bundle path, or `None`
    /// when nothing was pending.
    pub fn service(&self) -> std::io::Result<Option<PathBuf>> {
        let mut inner = self.inner.lock().unwrap();
        let board = fires();
        let mut reason = None;
        for t in &self.cfg.enabled {
            let i = *t as usize;
            if board[i] > inner.serviced[i] && reason.is_none() {
                reason = Some(t.name());
            }
        }
        let Some(reason) = reason else {
            return Ok(None);
        };
        // One bundle covers all pending fires (enabled or not — the
        // board snapshot in the bundle shows everything).
        inner.serviced = board;
        self.write_bundle(&mut inner, reason).map(Some)
    }

    /// Write a bundle unconditionally, recording a [`Trigger::Manual`]
    /// fire. `reason` lands in the bundle and the file name.
    pub fn dump(&self, reason: &str) -> std::io::Result<PathBuf> {
        trigger(Trigger::Manual, 0);
        let mut inner = self.inner.lock().unwrap();
        let i = Trigger::Manual as usize;
        // ordering: statistics read; staleness acceptable.
        inner.serviced[i] = FIRES[i].load(Ordering::Relaxed);
        self.write_bundle(&mut inner, reason)
    }

    fn write_bundle(&self, inner: &mut Inner, reason: &str) -> std::io::Result<PathBuf> {
        let seq = inner.dumps;
        inner.dumps += 1;
        self.source
            .registry()
            .counter("telemetry_blackbox_dumps")
            .inc();

        let doc = self.render(inner, reason, seq);
        let json = serde_json::to_string(&doc).expect("blackbox bundle serializes");

        std::fs::create_dir_all(&self.cfg.dir)?;
        let safe_reason: String = reason
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        let finalp = self
            .cfg
            .dir
            .join(format!("blackbox-{seq:04}-{safe_reason}.json"));
        let tmp = self.cfg.dir.join(format!(".blackbox-{seq:04}.tmp"));
        std::fs::write(&tmp, json)?;
        std::fs::rename(&tmp, &finalp)?;
        Ok(finalp)
    }

    /// Build the bundle document. Holds the blackbox lock (rank 78)
    /// while reading the registry (85–87) and thread table (88) — a
    /// legal ascending acquisition.
    fn render(&self, inner: &Inner, reason: &str, seq: u64) -> Value {
        let board: Vec<Value> = Trigger::ALL
            .iter()
            .map(|t| {
                let i = *t as usize;
                Value::Map(vec![
                    ("name".into(), Value::Str(t.name().into())),
                    // ordering: statistics read; staleness acceptable.
                    (
                        "fires".into(),
                        Value::UInt(FIRES[i].load(Ordering::Relaxed) as u128),
                    ),
                    // ordering: as above.
                    (
                        "last_arg".into(),
                        Value::UInt(LAST_ARG[i].load(Ordering::Relaxed) as u128),
                    ),
                    ("enabled".into(), Value::Bool(self.cfg.enabled.contains(t))),
                ])
            })
            .collect();

        let cap = self.cfg.max_events_per_thread;
        let threads: Vec<Value> = crate::trace::snapshot_all()
            .into_iter()
            .map(|t| {
                let skip = if cap > 0 && t.events.len() > cap {
                    t.events.len() - cap
                } else {
                    0
                };
                let events: Vec<Value> = t.events[skip..]
                    .iter()
                    .map(|e| {
                        Value::Map(vec![
                            ("kind".into(), Value::Str(e.kind.name().into())),
                            ("ts_ns".into(), Value::UInt(e.ts_ns as u128)),
                            ("dur_ns".into(), Value::UInt(e.dur_ns as u128)),
                            ("arg".into(), Value::UInt(e.arg as u128)),
                            ("seq".into(), Value::UInt(e.seq as u128)),
                        ])
                    })
                    .collect();
                Value::Map(vec![
                    ("tid".into(), Value::UInt(t.tid as u128)),
                    ("name".into(), Value::Str(t.name)),
                    ("dropped".into(), Value::UInt(t.dropped as u128)),
                    ("trimmed".into(), Value::UInt(skip as u128)),
                    ("head".into(), Value::UInt(t.head as u128)),
                    ("events".into(), Value::Seq(events)),
                ])
            })
            .collect();

        let sections = Value::Map(
            inner
                .sections
                .iter()
                .map(|(name, f)| (name.clone(), f()))
                .collect(),
        );

        Value::Map(vec![
            ("schema".into(), Value::Str(BLACKBOX_SCHEMA.into())),
            ("seq".into(), Value::UInt(seq as u128)),
            ("reason".into(), Value::Str(reason.into())),
            ("at_ns".into(), Value::UInt(crate::trace::now_ns() as u128)),
            ("trace_build".into(), Value::Bool(crate::trace::ENABLED)),
            ("triggers".into(), Value::Seq(board)),
            ("threads".into(), Value::Seq(threads)),
            ("metrics".into(), metrics_value(self.source.registry())),
            ("sections".into(), sections),
        ])
    }
}

/// Full metrics snapshot as a JSON subtree (structured twin of
/// [`Registry::text_snapshot`]).
fn metrics_value(reg: &Registry) -> Value {
    let counters = Value::Map(
        reg.counter_values()
            .into_iter()
            .map(|(n, v)| (n, Value::UInt(v as u128)))
            .collect(),
    );
    let gauges = Value::Map(
        reg.gauge_values()
            .into_iter()
            .map(|(n, v, hi)| {
                (
                    n,
                    Value::Map(vec![
                        ("value".into(), Value::UInt(v as u128)),
                        ("high".into(), Value::UInt(hi as u128)),
                    ]),
                )
            })
            .collect(),
    );
    let hists = Value::Map(
        reg.histogram_handles()
            .into_iter()
            .map(|(n, h)| {
                (
                    n,
                    Value::Map(vec![
                        ("count".into(), Value::UInt(h.count() as u128)),
                        ("mean".into(), Value::UInt(h.mean() as u128)),
                        ("p50".into(), Value::UInt(h.percentile(0.50) as u128)),
                        ("p95".into(), Value::UInt(h.percentile(0.95) as u128)),
                        ("p99".into(), Value::UInt(h.percentile(0.99) as u128)),
                        ("p999".into(), Value::UInt(h.percentile(0.999) as u128)),
                        ("max".into(), Value::UInt(h.max() as u128)),
                    ]),
                )
            })
            .collect(),
    );
    Value::Map(vec![
        ("counters".into(), counters),
        ("gauges".into(), gauges),
        ("hists".into(), hists),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::RegistrySource;
    use std::sync::Arc;

    fn tempdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("obs-blackbox-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn field<'v>(v: &'v Value, key: &str) -> &'v Value {
        let Value::Map(pairs) = v else {
            panic!("expected object looking up {key}")
        };
        &pairs
            .iter()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("missing field {key}"))
            .1
    }

    #[test]
    fn service_is_idle_until_a_trigger_fires() {
        let dir = tempdir("idle");
        let reg = Arc::new(Registry::new());
        // Only the crash-point trigger, which no other unit test here
        // fires: the board is process-wide and tests run concurrently.
        let bb = Blackbox::new(
            RegistrySource::Shared(Arc::clone(&reg)),
            BlackboxConfig {
                enabled: vec![Trigger::CrashPoint],
                ..BlackboxConfig::new(&dir)
            },
        );
        assert!(bb.service().unwrap().is_none(), "no fire, no bundle");
        trigger(Trigger::CrashPoint, 3);
        let path = bb.service().unwrap().expect("pending fire dumps");
        assert!(path.exists());
        // Re-service without a new fire: nothing pending.
        assert!(bb.service().unwrap().is_none());
        assert_eq!(bb.dumps(), 1);
        assert_eq!(reg.counter("telemetry_blackbox_dumps").get(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bundle_has_schema_board_metrics_and_sections() {
        let dir = tempdir("bundle");
        let reg = Arc::new(Registry::new());
        reg.counter("puts").add(9);
        reg.histogram("lat").record(1234);
        let bb = Blackbox::new(
            RegistrySource::Shared(Arc::clone(&reg)),
            BlackboxConfig::new(&dir),
        );
        bb.add_section(
            "config",
            Box::new(|| Value::Map(vec![("io_queue_depth".into(), Value::UInt(8))])),
        );
        let path = bb.dump("unit-test").unwrap();
        let doc: Value = serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(*field(&doc, "schema"), Value::Str(BLACKBOX_SCHEMA.into()));
        assert_eq!(*field(&doc, "reason"), Value::Str("unit-test".into()));
        // Board covers the full taxonomy, manual fire recorded.
        let Value::Seq(board) = field(&doc, "triggers") else {
            panic!("triggers must be an array")
        };
        assert_eq!(board.len(), Trigger::ALL.len());
        let manual = board
            .iter()
            .find(|t| *field(t, "name") == Value::Str("manual".into()))
            .unwrap();
        let Value::UInt(n) = field(manual, "fires") else {
            panic!("fires must be a uint")
        };
        assert!(*n >= 1);
        // Metrics snapshot is consistent with the registry.
        let metrics = field(&doc, "metrics");
        assert_eq!(*field(field(metrics, "counters"), "puts"), Value::UInt(9));
        let lat = field(field(metrics, "hists"), "lat");
        assert_eq!(*field(lat, "count"), Value::UInt(1));
        assert_eq!(*field(lat, "max"), Value::UInt(1234));
        // Provider section made it in.
        assert_eq!(
            *field(field(field(&doc, "sections"), "config"), "io_queue_depth"),
            Value::UInt(8)
        );
        // Thread list matches the build: per-thread rings only exist
        // under --features trace.
        let Value::Seq(threads) = field(&doc, "threads") else {
            panic!("threads must be an array")
        };
        if !crate::trace::ENABLED {
            assert!(threads.is_empty());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disabled_triggers_do_not_dump() {
        let dir = tempdir("disabled");
        let bb = Blackbox::new(
            RegistrySource::Shared(Arc::new(Registry::new())),
            BlackboxConfig {
                enabled: vec![Trigger::DriveOffline],
                ..BlackboxConfig::new(&dir)
            },
        );
        trigger(Trigger::ScrubFinding, 7);
        assert!(bb.service().unwrap().is_none(), "disabled trigger ignored");
        trigger(Trigger::DriveOffline, 2);
        assert!(bb.service().unwrap().is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bundles_are_complete_files_with_no_temp_residue() {
        let dir = tempdir("atomic");
        let bb = Blackbox::new(
            RegistrySource::Shared(Arc::new(Registry::new())),
            BlackboxConfig::new(&dir),
        );
        for i in 0..3 {
            bb.dump(&format!("r{i}")).unwrap();
        }
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(
            names,
            vec![
                "blackbox-0000-r0.json",
                "blackbox-0001-r1.json",
                "blackbox-0002-r2.json"
            ]
        );
        for n in &names {
            let raw = std::fs::read_to_string(dir.join(n)).unwrap();
            let _: Value = serde_json::from_str(&raw).expect("bundle parses");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
