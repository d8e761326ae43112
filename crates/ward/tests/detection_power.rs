//! Detection-power integration tests: the analyzer must catch every
//! seeded fixture violation, and — the acceptance criterion for the
//! whole gate — *mutating a clean source* (weakening a pairs-with
//! partner, swapping two lock ranks) must flip the verdict from silent
//! to failing. A checker that stays green under its target mutations is
//! laundering confidence, not providing it.

use std::collections::BTreeMap;
use std::path::Path;
use ward::locks::LockRegistry;
use ward::report::Finding;
use ward::scrub::Scrubbed;
use ward::{locks, ordering, selftest};

fn fixtures() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures"))
}

/// Every `--self-test` case passes: each of the nine seeded violations
/// is detected and the three clean corpora stay silent.
#[test]
fn selftest_suite_is_all_green() {
    let results = selftest::run(fixtures());
    assert!(results.len() >= 12, "suite shrank: {} cases", results.len());
    let failures: Vec<String> = results
        .iter()
        .filter(|c| !c.ok)
        .map(|c| format!("{}: {}", c.name, c.detail))
        .collect();
    assert!(failures.is_empty(), "self-test failures: {failures:?}");
}

/// Run the pairing battery (per-file + global) over one in-memory source.
fn pairing_findings(text: &str) -> Vec<Finding> {
    let src = Scrubbed::new(text);
    let mut findings = Vec::new();
    let mut labels = BTreeMap::new();
    ordering::check_pairing_file("mutant.rs", &src, &mut findings, &mut labels);
    ordering::check_pairing_global(&labels, &mut findings);
    findings
}

/// A minimal, fully annotated Release/Acquire hand-off. The base form
/// must be silent; the mutations below must each produce a `pairing`
/// finding.
const PAIRED: &str = r#"
struct S {
    flag: AtomicBool,
}
impl S {
    fn publish(&self) {
        // ordering: Release publishes readiness; pairs-with: demo.flag.
        self.flag.store(true, Ordering::Release);
    }
    fn observe(&self) -> bool {
        // ordering: Acquire side of the readiness hand-off;
        // pairs-with: demo.flag.
        self.flag.load(Ordering::Acquire)
    }
}
"#;

#[test]
fn intact_pair_is_silent() {
    let findings = pairing_findings(PAIRED);
    assert!(findings.is_empty(), "clean pair flagged: {findings:?}");
}

/// Weakening the acquire partner to `Relaxed` — the exact regression
/// the check exists for (a happens-before edge silently dropped) —
/// must fail the scan even though the release side is untouched.
#[test]
fn weakened_acquire_partner_is_detected() {
    let mutant = PAIRED.replace("Ordering::Acquire", "Ordering::Relaxed");
    assert_ne!(mutant, PAIRED, "mutation did not apply");
    let findings = pairing_findings(&mutant);
    assert!(
        findings.iter().any(|f| f.check == "pairing"),
        "weakened acquire partner went undetected: {findings:?}"
    );
}

/// Deleting the acquire site outright must dangle the label.
#[test]
fn deleted_acquire_partner_is_detected() {
    let cut = PAIRED.find("fn observe").expect("observe in fixture");
    let mutant = format!("{}}}\n", &PAIRED[..cut]);
    let findings = pairing_findings(&mutant);
    assert!(
        findings.iter().any(|f| f.check == "pairing"),
        "deleted acquire partner went undetected: {findings:?}"
    );
}

/// Weakening the *release* side while its tag still claims a pair must
/// also fail (tag on a non-publishing site).
#[test]
fn weakened_release_side_is_detected() {
    let mutant = PAIRED.replace("Ordering::Release", "Ordering::Relaxed");
    assert_ne!(mutant, PAIRED, "mutation did not apply");
    let findings = pairing_findings(&mutant);
    assert!(
        findings.iter().any(|f| f.check == "pairing"),
        "weakened release side went undetected: {findings:?}"
    );
}

/// Run the lock battery (decls + edges) over one in-memory source.
fn lock_findings(text: &str) -> Vec<Finding> {
    let src = Scrubbed::new(text);
    let mut findings = Vec::new();
    let decls = locks::collect_decls("mutant.rs", &src, &mut findings);
    let mut reg = LockRegistry::default();
    reg.add(decls, &mut findings);
    locks::check_file_edges("mutant.rs", &src, &reg, &mut findings);
    findings
}

/// Two ranked locks nested in rank order. Silent as written; swapping
/// the two rank numbers (so the nesting becomes descending) must fail.
const RANKED: &str = r#"
struct A {
    outer: Mutex<u32>, // lock-rank: demo.outer 10
    inner: Mutex<u32>, // lock-rank: demo.inner 20
}
impl A {
    fn both(&self) -> u32 {
        let a = self.outer.lock().unwrap();
        let b = self.inner.lock().unwrap();
        *a + *b
    }
}
"#;

#[test]
fn ascending_nesting_is_silent() {
    let findings = lock_findings(RANKED);
    assert!(findings.is_empty(), "clean nesting flagged: {findings:?}");
}

/// Swapping the declared ranks turns the same nesting into an
/// inversion; the graph check must catch it without any code change at
/// the acquisition site.
#[test]
fn swapped_ranks_are_detected() {
    let mutant = RANKED
        .replace("demo.outer 10", "demo.outer 99")
        .replace("demo.inner 20", "demo.inner 1");
    assert_ne!(mutant, RANKED, "mutation did not apply");
    let findings = lock_findings(&mutant);
    assert!(
        findings.iter().any(|f| f.check == "lock-rank"),
        "rank inversion went undetected: {findings:?}"
    );
}

/// Stripping a declaration's rank annotation must be flagged even when
/// the lock is never nested anywhere.
#[test]
fn stripped_rank_annotation_is_detected() {
    let mutant = RANKED.replace(" // lock-rank: demo.inner 20", "");
    assert_ne!(mutant, RANKED, "mutation did not apply");
    let findings = lock_findings(&mutant);
    assert!(
        findings.iter().any(|f| f.check == "lock-rank"),
        "unranked declaration went undetected: {findings:?}"
    );
}

/// Finding IDs are content-derived: re-running the same battery yields
/// the same IDs (baseline stability), and the ID does not move when the
/// site's line number does.
#[test]
fn finding_ids_are_stable_across_line_shifts() {
    let mutant = RANKED.replace(" // lock-rank: demo.inner 20", "");
    let a = lock_findings(&mutant);
    let shifted = format!("\n\n\n{mutant}");
    let b = lock_findings(&shifted);
    let ids = |v: &[Finding]| v.iter().map(|f| f.id()).collect::<Vec<_>>();
    assert_eq!(ids(&a), ids(&b), "IDs moved with line numbers");
    assert_ne!(a[0].line, b[0].line, "shift fixture did not shift lines");
}
