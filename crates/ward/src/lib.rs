//! `ward` — the workspace concurrency analyzer.
//!
//! A dependency-free static-analysis pass over the whole Rust tree
//! (token-level lexer, no `syn`), run from CI as
//! `cargo run -p ward -- --check`. Its checks are *cross-site*:
//!
//! 1. **Lock-order graph** ([`locks`]): every `Mutex`/`RwLock`
//!    declaration carries `// lock-rank: <name> <n>`; nested
//!    acquisitions must strictly ascend in rank, workspace-wide.
//! 2. **Release/Acquire pairing** ([`ordering`]): every
//!    `Ordering::Release`/`AcqRel` publish names its acquire partner via
//!    `pairs-with: <label>`; a deleted or weakened partner fails the
//!    build instead of silently dropping a happens-before edge.
//! 3. **Counter plumbing** ([`counters`]): every `AllocStats` counter
//!    and `FaultSnapshot` field must reach the reporting surfaces, and
//!    every `SimResult` integer must be listed in `named_counters`.
//! 4. **Per-site gates** ([`gates`], [`unsafety`]): ordering
//!    justifications, the unsafe audit (full-comment capture), cache
//!    ascending-shard order, and `IoTicket` minting.
//!
//! Findings carry stable content-derived IDs; `baseline.txt` suppresses
//! known accepted findings; `results/ward.json` is the machine-readable
//! report (`wafl.ward.v1`). See DESIGN.md §15 for the annotation
//! contract.

#![warn(missing_docs)]

pub mod counters;
pub mod gates;
pub mod locks;
pub mod ordering;
pub mod report;
pub mod scrub;
pub mod selftest;
pub mod unsafety;

pub use unsafety::render_audit;

use crate::counters::{CounterSources, TelemetrySources};
use crate::locks::{LockEdge, LockRegistry};
use crate::report::{Finding, ScanStats};
use crate::scrub::Scrubbed;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Path components excluded from every scan.
const EXCLUDE: [&str; 4] = ["vendor", "target", ".git", "fixtures"];

/// Everything one full scan produces.
pub struct Scan {
    /// All findings (unsuppressed; baseline application happens later).
    pub findings: Vec<Finding>,
    /// The unsafe inventory, for audit rendering.
    pub inventory: Vec<unsafety::UnsafeSite>,
    /// Observed nested-acquisition edges (the lock-order graph).
    pub edges: Vec<LockEdge>,
    /// Scan statistics for the report.
    pub stats: ScanStats,
}

/// Locate the workspace root: `$CARGO_MANIFEST_DIR/../..` when run via
/// cargo, else walk up from the current directory to a `[workspace]`
/// manifest.
pub fn workspace_root() -> PathBuf {
    if let Ok(md) = std::env::var("CARGO_MANIFEST_DIR") {
        let p = Path::new(&md);
        if let Some(root) = p.ancestors().nth(2) {
            if root.join("Cargo.toml").exists() {
                return root.to_path_buf();
            }
        }
    }
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.exists() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return dir;
                }
            }
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}

/// Every Rust file under `root`, sorted, minus excluded trees.
pub fn rust_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(rd) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in rd.flatten() {
            let p = entry.path();
            let name = entry.file_name().to_string_lossy().into_owned();
            if p.is_dir() {
                if !EXCLUDE.contains(&name.as_str()) {
                    stack.push(p);
                }
            } else if name.ends_with(".rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}

/// Is `rel` in scope for the lock-rank graph? Library sources only —
/// the model checker defines its own `Mutex` shim (not a lock
/// instance), and test-local mutexes are single-purpose.
fn lock_rank_scope(rel: &str) -> bool {
    rel.starts_with("crates/")
        && rel.contains("/src/")
        && !rel.starts_with("crates/mc/")
        && !rel.starts_with("crates/ward/")
}

/// Run the full analyzer over the workspace at `root`.
pub fn scan_workspace(root: &Path) -> Scan {
    let files = rust_files(root);
    let mut findings = Vec::new();
    let mut inventory = Vec::new();
    let mut stats = ScanStats {
        files: files.len(),
        ..Default::default()
    };
    let mut sources: Vec<(String, Scrubbed)> = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        // The analyzer's own sources and fixtures talk about the
        // annotation tokens constantly (doc comments, test strings) —
        // scanning them would be all self-noise.
        if rel.starts_with("crates/ward/") {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(path) else {
            continue;
        };
        sources.push((rel, Scrubbed::new(&text)));
    }

    // Pass 1: per-file checks + lock declarations.
    let mut registry = LockRegistry::default();
    let mut labels: BTreeMap<String, ordering::LabelSides> = BTreeMap::new();
    for (rel, src) in &sources {
        stats.ordering_sites += ordering::check_justifications(rel, src, &mut findings);
        ordering::check_pairing_file(rel, src, &mut findings, &mut labels);
        inventory.extend(unsafety::check_unsafe(rel, src, &mut findings));
        gates::check_ticket_construction(rel, src, &mut findings);
        if lock_rank_scope(rel) {
            let decls = locks::collect_decls(rel, src, &mut findings);
            registry.add(decls, &mut findings);
        }
    }
    stats.unsafe_sites = inventory.len();
    stats.lock_decls = registry.decls.len();
    stats.pair_labels = labels.len();
    ordering::check_pairing_global(&labels, &mut findings);

    // Pass 2: acquisition edges against the completed registry.
    let mut edges = Vec::new();
    for (rel, src) in &sources {
        if lock_rank_scope(rel) {
            edges.extend(locks::check_file_edges(rel, src, &registry, &mut findings));
        }
    }
    edges.sort();
    edges.dedup();
    stats.lock_edges = edges.len();

    // Module-specific gates.
    let by_rel = |want: &str| sources.iter().find(|(r, _)| r == want).map(|(_, s)| s);
    if let Some(src) = by_rel("crates/alligator/src/cache.rs") {
        locks::check_cache_ascending("crates/alligator/src/cache.rs", src, &mut findings);
    } else {
        findings.push(Finding::new(
            "cache-order",
            "crates/alligator/src/cache.rs",
            0,
            "cache.rs missing — lock-order check skipped",
            "missing",
        ));
    }
    // Counter plumbing across the four surfaces.
    let need = [
        "crates/alligator/src/stats.rs",
        "crates/simsrv/src/engine.rs",
        "crates/wafl/src/cleaner.rs",
        "crates/blockdev/src/io.rs",
    ];
    match (
        by_rel(need[0]),
        by_rel(need[1]),
        by_rel(need[2]),
        by_rel(need[3]),
    ) {
        (Some(stats_src), Some(engine), Some(cleaner), Some(io)) => {
            stats.counters = counters::check_counters(
                &CounterSources {
                    stats: stats_src,
                    engine,
                    cleaner,
                    io,
                },
                &mut findings,
            );
        }
        _ => findings.push(Finding::new(
            "counters",
            counters::STATS_PATH,
            0,
            "one of the counter-plumbing source files is missing",
            "missing-sources",
        )),
    }

    // Telemetry plumbing: the sampler's counter roster and the CP
    // profiler's phase exports.
    match (
        by_rel("crates/obs/src/sampler.rs"),
        by_rel("crates/obs/src/blackbox.rs"),
        by_rel("crates/wafl/src/cp.rs"),
    ) {
        (Some(sampler), Some(blackbox), Some(cp)) => {
            stats.counters += counters::check_telemetry(
                &TelemetrySources {
                    sampler,
                    blackbox,
                    cp,
                },
                &mut findings,
            );
        }
        _ => findings.push(Finding::new(
            "counters",
            counters::SAMPLER_PATH,
            0,
            "one of the telemetry source files is missing",
            "missing-sources",
        )),
    }

    Scan {
        findings,
        inventory,
        edges,
        stats,
    }
}

/// Split findings into `(unsuppressed, suppressed, stale_baseline_ids)`
/// given baseline IDs.
pub fn apply_baseline(
    findings: Vec<Finding>,
    baseline: &[String],
) -> (Vec<Finding>, Vec<(String, Finding)>, Vec<String>) {
    let mut unsuppressed = Vec::new();
    let mut suppressed = Vec::new();
    let mut used: Vec<&String> = Vec::new();
    for f in findings {
        let id = f.id();
        if let Some(b) = baseline.iter().find(|b| **b == id) {
            used.push(b);
            suppressed.push((id, f));
        } else {
            unsuppressed.push(f);
        }
    }
    let stale = baseline
        .iter()
        .filter(|b| !used.contains(b))
        .cloned()
        .collect();
    (unsuppressed, suppressed, stale)
}
