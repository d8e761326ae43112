//! Detection-power self-test: every check must still fire on its seeded
//! fixture violation, and the clean fixture must produce zero findings.
//! Mirrors the model checker's detection-power discipline — a gate that
//! cannot catch its target bug class is worse than no gate, because it
//! launders confidence.

use crate::counters::{CounterSources, TelemetrySources};
use crate::locks::LockRegistry;
use crate::report::Finding;
use crate::scrub::Scrubbed;
use crate::{gates, locks, ordering, unsafety};
use std::collections::BTreeMap;
use std::path::Path;

/// One self-test case outcome.
pub struct CaseResult {
    /// Case name (fixture stem).
    pub name: &'static str,
    /// Pass/fail.
    pub ok: bool,
    /// What went wrong, if anything.
    pub detail: String,
}

fn load(fixtures: &Path, name: &str) -> Result<Scrubbed, String> {
    let p = fixtures.join(name);
    std::fs::read_to_string(&p)
        .map(|t| Scrubbed::new(&t))
        .map_err(|e| format!("cannot read {}: {e}", p.display()))
}

fn case(
    name: &'static str,
    expect_check: &str,
    min: usize,
    res: Result<Vec<Finding>, String>,
) -> CaseResult {
    match res {
        Ok(findings) => {
            let hits = findings.iter().filter(|f| f.check == expect_check).count();
            if hits >= min {
                CaseResult {
                    name,
                    ok: true,
                    detail: format!("{hits} finding(s)"),
                }
            } else {
                CaseResult {
                    name,
                    ok: false,
                    detail: format!(
                        "expected ≥{min} `{expect_check}` finding(s), got {hits}: {findings:?}"
                    ),
                }
            }
        }
        Err(e) => CaseResult {
            name,
            ok: false,
            detail: e,
        },
    }
}

/// Run the whole detection-power suite against `fixtures` (the
/// `crates/ward/fixtures` directory). Returns per-case results.
pub fn run(fixtures: &Path) -> Vec<CaseResult> {
    let mut out = Vec::new();

    // 1. Unjustified ordering.
    out.push(case(
        "unjustified_ordering",
        "ordering",
        1,
        load(fixtures, "unjustified_ordering.rs").map(|src| {
            let mut f = Vec::new();
            ordering::check_justifications("fixture.rs", &src, &mut f);
            f
        }),
    ));

    // 2. Dangling pairs-with: a Release publish whose acquire partner
    // was weakened to Relaxed.
    out.push(case(
        "dangling_pairs_with",
        "pairing",
        2, // the weakened tag AND the dangling label
        load(fixtures, "dangling_pairs_with.rs").map(|src| {
            let mut f = Vec::new();
            let mut labels = BTreeMap::new();
            ordering::check_pairing_file("fixture.rs", &src, &mut f, &mut labels);
            ordering::check_pairing_global(&labels, &mut f);
            f
        }),
    ));

    // 3. Rank inversion.
    out.push(case(
        "rank_inversion",
        "lock-rank",
        1,
        load(fixtures, "rank_inversion.rs").map(|src| {
            let mut f = Vec::new();
            let decls = locks::collect_decls("fixture.rs", &src, &mut f);
            let mut reg = LockRegistry::default();
            reg.add(decls, &mut f);
            locks::check_file_edges("fixture.rs", &src, &reg, &mut f);
            f
        }),
    ));

    // 4. Undeclared (unranked) lock.
    out.push(case(
        "missing_lock_rank",
        "lock-rank",
        1,
        load(fixtures, "missing_lock_rank.rs").map(|src| {
            let mut f = Vec::new();
            locks::collect_decls("fixture.rs", &src, &mut f);
            f
        }),
    ));

    // 5. Unplumbed counter (four-source corpus).
    out.push(case(
        "unplumbed_counter",
        "counters",
        1,
        (|| {
            let stats = load(fixtures, "counters/stats.rs")?;
            let engine = load(fixtures, "counters/engine_bad.rs")?;
            let cleaner = load(fixtures, "counters/cleaner.rs")?;
            let io = load(fixtures, "counters/io.rs")?;
            let mut f = Vec::new();
            crate::counters::check_counters(
                &CounterSources {
                    stats: &stats,
                    engine: &engine,
                    cleaner: &cleaner,
                    io: &io,
                },
                &mut f,
            );
            Ok(f)
        })(),
    ));

    // 5b. Unmaintained telemetry counter + gutted CP profiler.
    out.push(case(
        "unplumbed_telemetry",
        "counters",
        3, // the flatlined counter, the lost phase field, a lost profile leg
        (|| {
            let sampler = load(fixtures, "telemetry/sampler.rs")?;
            let blackbox = load(fixtures, "telemetry/blackbox_bad.rs")?;
            let cp = load(fixtures, "telemetry/cp_bad.rs")?;
            let mut f = Vec::new();
            crate::counters::check_telemetry(
                &TelemetrySources {
                    sampler: &sampler,
                    blackbox: &blackbox,
                    cp: &cp,
                },
                &mut f,
            );
            Ok(f)
        })(),
    ));

    // 6. Missing SAFETY comment.
    out.push(case(
        "missing_safety",
        "unsafe",
        1,
        load(fixtures, "missing_safety.rs").map(|src| {
            let mut f = Vec::new();
            unsafety::check_unsafe("fixture.rs", &src, &mut f);
            f
        }),
    ));

    // 7. Forged IoTicket.
    out.push(case(
        "forged_ticket",
        "ticket",
        1,
        load(fixtures, "forged_ticket.rs").map(|src| {
            let mut f = Vec::new();
            gates::check_ticket_construction("crates/wafl/src/cp.rs", &src, &mut f);
            f
        }),
    ));

    // 8. Ascending-shard proof lost.
    out.push(case(
        "cache_order",
        "cache-order",
        1,
        load(fixtures, "cache_order.rs").map(|src| {
            let mut f = Vec::new();
            locks::check_cache_ascending("crates/alligator/src/cache.rs", &src, &mut f);
            f
        }),
    ));

    // Clean fixture: the full per-file battery must stay silent.
    let clean = (|| {
        let src = load(fixtures, "clean.rs")?;
        let mut f = Vec::new();
        let mut labels = BTreeMap::new();
        ordering::check_justifications("fixture.rs", &src, &mut f);
        ordering::check_pairing_file("fixture.rs", &src, &mut f, &mut labels);
        ordering::check_pairing_global(&labels, &mut f);
        unsafety::check_unsafe("fixture.rs", &src, &mut f);
        gates::check_ticket_construction("fixture.rs", &src, &mut f);
        let decls = locks::collect_decls("fixture.rs", &src, &mut f);
        let mut reg = LockRegistry::default();
        reg.add(decls, &mut f);
        locks::check_file_edges("fixture.rs", &src, &reg, &mut f);
        Ok::<_, String>(f)
    })();
    out.push(match clean {
        Ok(f) if f.is_empty() => CaseResult {
            name: "clean_fixture",
            ok: true,
            detail: "0 findings".into(),
        },
        Ok(f) => CaseResult {
            name: "clean_fixture",
            ok: false,
            detail: format!("clean fixture produced findings: {f:?}"),
        },
        Err(e) => CaseResult {
            name: "clean_fixture",
            ok: false,
            detail: e,
        },
    });

    // Clean counters corpus: the good engine variant stays silent.
    let clean_counters = (|| {
        let stats = load(fixtures, "counters/stats.rs")?;
        let engine = load(fixtures, "counters/engine_good.rs")?;
        let cleaner = load(fixtures, "counters/cleaner.rs")?;
        let io = load(fixtures, "counters/io.rs")?;
        let mut f = Vec::new();
        crate::counters::check_counters(
            &CounterSources {
                stats: &stats,
                engine: &engine,
                cleaner: &cleaner,
                io: &io,
            },
            &mut f,
        );
        Ok::<_, String>(f)
    })();
    out.push(match clean_counters {
        Ok(f) if f.is_empty() => CaseResult {
            name: "clean_counters",
            ok: true,
            detail: "0 findings".into(),
        },
        Ok(f) => CaseResult {
            name: "clean_counters",
            ok: false,
            detail: format!("clean counters corpus produced findings: {f:?}"),
        },
        Err(e) => CaseResult {
            name: "clean_counters",
            ok: false,
            detail: e,
        },
    });

    // Clean telemetry corpus: the maintained trio stays silent.
    let clean_telemetry = (|| {
        let sampler = load(fixtures, "telemetry/sampler.rs")?;
        let blackbox = load(fixtures, "telemetry/blackbox.rs")?;
        let cp = load(fixtures, "telemetry/cp.rs")?;
        let mut f = Vec::new();
        crate::counters::check_telemetry(
            &TelemetrySources {
                sampler: &sampler,
                blackbox: &blackbox,
                cp: &cp,
            },
            &mut f,
        );
        Ok::<_, String>(f)
    })();
    out.push(match clean_telemetry {
        Ok(f) if f.is_empty() => CaseResult {
            name: "clean_telemetry",
            ok: true,
            detail: "0 findings".into(),
        },
        Ok(f) => CaseResult {
            name: "clean_telemetry",
            ok: false,
            detail: format!("clean telemetry corpus produced findings: {f:?}"),
        },
        Err(e) => CaseResult {
            name: "clean_telemetry",
            ok: false,
            detail: e,
        },
    });

    out
}
