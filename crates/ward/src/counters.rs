//! Counter-plumbing completeness: every counter declared in
//! `alloc_counters!` and every `FaultSnapshot` field must reach the
//! reporting surfaces — `StatsSnapshot`/`named()` (macro legs),
//! `CleanerPool::metrics_text`, and for the DES mirror every integer
//! field of `SimResult` must be listed in `named_counters` (which
//! `SimResult::metrics_text` must import). The per-crate serde-walk
//! tests check this at run time; ward makes it a build-time gate and,
//! crucially, checks it *across* crates.

use crate::report::Finding;
use crate::scrub::{find_word, matching, Scrubbed};

/// The four sources the check reads (paths fixed in the workspace scan,
/// parameterized here so fixtures can exercise the detection power).
pub struct CounterSources<'a> {
    /// `crates/alligator/src/stats.rs`
    pub stats: &'a Scrubbed,
    /// `crates/simsrv/src/engine.rs`
    pub engine: &'a Scrubbed,
    /// `crates/wafl/src/cleaner.rs`
    pub cleaner: &'a Scrubbed,
    /// `crates/blockdev/src/io.rs`
    pub io: &'a Scrubbed,
}

/// Paths used in findings (mirror the real tree even for fixtures).
pub const STATS_PATH: &str = "crates/alligator/src/stats.rs";
const ENGINE_PATH: &str = "crates/simsrv/src/engine.rs";
const CLEANER_PATH: &str = "crates/wafl/src/cleaner.rs";
const IO_PATH: &str = "crates/blockdev/src/io.rs";

/// Run the completeness check. Returns the number of counters traced.
pub fn check_counters(srcs: &CounterSources<'_>, findings: &mut Vec<Finding>) -> usize {
    let mut traced = 0;

    // --- AllocStats counters, from the alloc_counters! invocation. ---
    let counters = macro_section_idents(&srcs.stats.code, "counters");
    let gauges = macro_section_idents(&srcs.stats.code, "gauges");
    if counters.is_empty() {
        findings.push(Finding::new(
            "counters",
            STATS_PATH,
            0,
            "could not locate the `alloc_counters! { counters { … } }` \
             declaration — the plumbing check has nothing to trace",
            "no-counters",
        ));
        return 0;
    }
    traced += counters.len() + gauges.len();

    // Macro legs: the single declaration must still expand into the
    // snapshot struct, the copy loop, and the named exporter. If the
    // macro is rewritten, each leg must keep plumbing `$cname`.
    let stats_code = &srcs.stats.code;
    for (leg, marker) in [
        ("StatsSnapshot field list", "pub struct StatsSnapshot"),
        ("snapshot() copy loop", "fn snapshot"),
        ("NAMES exporter", "NAMES"),
        ("named() exporter", "fn named"),
    ] {
        if !stats_code.contains(marker) {
            findings.push(Finding::new(
                "counters",
                STATS_PATH,
                0,
                format!(
                    "the {leg} (`{marker}`) is gone from stats.rs — a counter \
                     can now be collected without reaching the snapshot/report \
                     path"
                ),
                format!("leg:{marker}"),
            ));
        }
    }
    if stats_code.contains("macro_rules") {
        for marker in ["$cname", "stringify"] {
            if !stats_code.contains(marker) {
                findings.push(Finding::new(
                    "counters",
                    STATS_PATH,
                    0,
                    format!(
                        "alloc_counters! no longer plumbs `{marker}` through its \
                         expansion — generated legs have lost the counter list"
                    ),
                    format!("macro-leg:{marker}"),
                ));
            }
        }
    } else {
        // Hand-expanded fallback: every counter must appear by name in
        // the snapshot struct.
        for c in &counters {
            if !word_in(stats_code, c) {
                findings.push(Finding::new(
                    "counters",
                    STATS_PATH,
                    0,
                    format!("counter `{c}` does not reach StatsSnapshot"),
                    format!("snapshot:{c}"),
                ));
            }
        }
    }

    // --- CleanerPool::metrics_text must export every counter. ---
    let cleaner_body = fn_body_named(&srcs.cleaner.code, "metrics_text");
    match cleaner_body {
        Some(body) => {
            // `.named()` imports the whole StatsSnapshot at once; absent
            // that wildcard, each counter must be exported by name.
            if !body.contains(".named()") && !body.contains("named()") {
                for c in &counters {
                    if !word_in(&body, c) {
                        findings.push(Finding::new(
                            "counters",
                            CLEANER_PATH,
                            0,
                            format!(
                                "counter `{c}` is collected in AllocStats but never \
                                 reaches CleanerPool::metrics_text (no `.named()` \
                                 wildcard import and no by-name export)"
                            ),
                            format!("metrics_text:{c}"),
                        ));
                    }
                }
            }
            // FaultSnapshot fields are hand-plumbed — each must appear.
            let fault_fields = struct_fields(&srcs.io.code, "FaultSnapshot");
            if fault_fields.is_empty() {
                findings.push(Finding::new(
                    "counters",
                    IO_PATH,
                    0,
                    "could not locate `struct FaultSnapshot` fields",
                    "no-faultsnapshot",
                ));
            }
            traced += fault_fields.len();
            for f in &fault_fields {
                if !word_in(&body, f) {
                    findings.push(Finding::new(
                        "counters",
                        CLEANER_PATH,
                        0,
                        format!(
                            "FaultSnapshot field `{f}` is collected by the RAID \
                             layer but never reaches CleanerPool::metrics_text"
                        ),
                        format!("fault:{f}"),
                    ));
                }
            }
            // Gauges are levels kept on AllocStats only; metrics_text is
            // expected to surface them (as gauges) too.
            for g in &gauges {
                if !word_in(&body, g) && !word_in(&srcs.cleaner.code, g) {
                    findings.push(Finding::new(
                        "counters",
                        CLEANER_PATH,
                        0,
                        format!(
                            "gauge `{g}` is maintained on AllocStats but never \
                             surfaced by the cleaner pool's reporting"
                        ),
                        format!("gauge:{g}"),
                    ));
                }
            }
        }
        None => findings.push(Finding::new(
            "counters",
            CLEANER_PATH,
            0,
            "CleanerPool::metrics_text not found — allocator counters have \
             no pool-level reporting surface",
            "no-metrics-text",
        )),
    }

    // --- SimResult: every u64 field must be listed in named_counters,
    //     and metrics_text must import that list. ---
    let sim_fields = struct_fields_typed(&srcs.engine.code, "SimResult", "u64");
    traced += sim_fields.len();
    match fn_body_named(&srcs.engine.code, "named_counters") {
        Some(body) => {
            for f in &sim_fields {
                let self_ref = format!("self.{f}");
                if !body.contains(&self_ref) {
                    findings.push(Finding::new(
                        "counters",
                        ENGINE_PATH,
                        0,
                        format!(
                            "SimResult counter `{f}` is missing from \
                             named_counters() — the DES run collects it but no \
                             report will ever show it"
                        ),
                        format!("named_counters:{f}"),
                    ));
                }
            }
        }
        None => findings.push(Finding::new(
            "counters",
            ENGINE_PATH,
            0,
            "SimResult::named_counters not found",
            "no-named-counters",
        )),
    }
    if let Some(body) = fn_body_named_in_impl(&srcs.engine.code, "metrics_text") {
        if !body.contains("named_counters") {
            findings.push(Finding::new(
                "counters",
                ENGINE_PATH,
                0,
                "SimResult::metrics_text no longer imports named_counters() — \
                 counters and the text export can drift apart",
                "metrics-text-import",
            ));
        }
    } else {
        findings.push(Finding::new(
            "counters",
            ENGINE_PATH,
            0,
            "SimResult::metrics_text not found",
            "no-sim-metrics-text",
        ));
    }

    // --- Cross-layer naming: a SimResult counter that mirrors an
    //     AllocStats counter must use the identical name, so the two
    //     reports stay joinable. ---
    for f in &sim_fields {
        if f.starts_with("cache_") || f.starts_with("io_") {
            let known = counters.iter().chain(gauges.iter()).any(|c| c == f);
            if !known {
                findings.push(Finding::new(
                    "counters",
                    ENGINE_PATH,
                    0,
                    format!(
                        "SimResult field `{f}` looks like a DES mirror of an \
                         allocator counter but no AllocStats counter/gauge of \
                         that name exists — the mirror and the real counter \
                         have drifted apart"
                    ),
                    format!("mirror:{f}"),
                ));
            }
        }
    }
    traced
}

/// The telemetry-layer sources (ISSUE 10): the sampler/blackbox
/// self-counters and the CP critical-path profiler.
pub struct TelemetrySources<'a> {
    /// `crates/obs/src/sampler.rs`
    pub sampler: &'a Scrubbed,
    /// `crates/obs/src/blackbox.rs`
    pub blackbox: &'a Scrubbed,
    /// `crates/wafl/src/cp.rs`
    pub cp: &'a Scrubbed,
}

/// Path used in telemetry findings.
pub const SAMPLER_PATH: &str = "crates/obs/src/sampler.rs";
const CP_PATH: &str = "crates/wafl/src/cp.rs";

/// Telemetry plumbing: every counter declared in `TELEMETRY_COUNTERS`
/// must actually be maintained somewhere in the sampler/blackbox pair,
/// and every CP phase named in `CP_PHASE_NAMES` must have a
/// `<phase>_ns` report field that `phase_ns()` exports and
/// `record_profile()` publishes as a `cp_phase_*` series. Counter names
/// live inside string literals, which the scrubber blanks, so this
/// check reads the raw `.text` (same byte offsets).
pub fn check_telemetry(srcs: &TelemetrySources<'_>, findings: &mut Vec<Finding>) -> usize {
    let mut traced = 0;

    // --- telemetry_* self-counters. ---
    let names = str_array(&srcs.sampler.text, "TELEMETRY_COUNTERS");
    if names.is_empty() {
        findings.push(Finding::new(
            "counters",
            SAMPLER_PATH,
            0,
            "could not locate the `TELEMETRY_COUNTERS` declaration — the \
             telemetry plumbing check has nothing to trace",
            "no-telemetry-counters",
        ));
    }
    traced += names.len();
    for n in &names {
        // One quoted occurrence is the declaration itself; a second is
        // the maintenance site (`registry.counter("…").inc()`).
        let quoted = format!("\"{n}\"");
        let uses = srcs.sampler.text.matches(&quoted).count()
            + srcs.blackbox.text.matches(&quoted).count();
        if uses < 2 {
            findings.push(Finding::new(
                "counters",
                SAMPLER_PATH,
                0,
                format!(
                    "telemetry counter `{n}` is declared in TELEMETRY_COUNTERS \
                     but never maintained by the sampler or the blackbox — \
                     it will report 0 forever"
                ),
                format!("telemetry:{n}"),
            ));
        }
    }

    // --- CP critical-path profiler. ---
    let phases = str_array(&srcs.cp.text, "CP_PHASE_NAMES");
    if phases.is_empty() {
        findings.push(Finding::new(
            "counters",
            CP_PATH,
            0,
            "could not locate the `CP_PHASE_NAMES` declaration — the CP \
             profiler check has nothing to trace",
            "no-cp-phases",
        ));
        return traced;
    }
    traced += phases.len();
    let report_fields = struct_fields(&srcs.cp.code, "CpReport");
    let phase_ns = fn_body_named(&srcs.cp.code, "phase_ns").unwrap_or_default();
    for p in &phases {
        let field = format!("{p}_ns");
        if !report_fields.contains(&field) {
            findings.push(Finding::new(
                "counters",
                CP_PATH,
                0,
                format!(
                    "CP phase `{p}` is named in CP_PHASE_NAMES but CpReport \
                     has no `{field}` field — its wall time is never measured"
                ),
                format!("cp-phase-field:{field}"),
            ));
        }
        if !word_in(&phase_ns, &field) {
            findings.push(Finding::new(
                "counters",
                CP_PATH,
                0,
                format!(
                    "CpReport field `{field}` is not exported by phase_ns() — \
                     the profiler and binding-phase attribution will miss it"
                ),
                format!("cp-phase-export:{field}"),
            ));
        }
    }
    // record_profile must publish the histogram/counter series; its
    // body holds the names inside format strings, so slice the raw
    // text by the scrubbed body's offsets.
    match fn_span_named(&srcs.cp.code, "record_profile") {
        Some((open, close)) => {
            let body = &srcs.cp.text[open..=close];
            for marker in ["cp_phase_", "cp_phase_binding_", "cp_phase_profiled"] {
                if !body.contains(marker) {
                    findings.push(Finding::new(
                        "counters",
                        CP_PATH,
                        0,
                        format!(
                            "record_profile() no longer publishes the `{marker}*` \
                             series — the phase histograms/counters have lost \
                             their only producer"
                        ),
                        format!("cp-profile-leg:{marker}"),
                    ));
                }
            }
            if find_word(&srcs.cp.code, "record_profile").len() < 2 {
                findings.push(Finding::new(
                    "counters",
                    CP_PATH,
                    0,
                    "record_profile() is defined but never called — no CP \
                     will ever publish its critical-path profile",
                    "cp-profile-uncalled",
                ));
            }
        }
        None => findings.push(Finding::new(
            "counters",
            CP_PATH,
            0,
            "CpReport::record_profile not found — the CP profiler has no \
             publication path",
            "no-record-profile",
        )),
    }
    traced
}

/// String literals inside `<name>: [...] = [ "...", ... ]` — reads raw
/// text because the scrubber blanks literal contents.
fn str_array(text: &str, name: &str) -> Vec<String> {
    // Anchor on the `const <name>` declaration — doc comments elsewhere
    // mention the name too.
    let Some(p) = find_word(text, name)
        .into_iter()
        .find(|&p| text[..p].trim_end().ends_with("const"))
    else {
        return Vec::new();
    };
    let Some(open) = text[p..].find('[').map(|i| p + i) else {
        return Vec::new();
    };
    // The declared type may itself be an array (`[&str; 4]`): take the
    // bracket group after `=`.
    let open = match text[p..open].contains('=') {
        true => open,
        false => {
            let Some(close) = matching(text, open) else {
                return Vec::new();
            };
            let Some(next) = text[close..].find('[').map(|i| close + i) else {
                return Vec::new();
            };
            next
        }
    };
    let Some(close) = matching(text, open) else {
        return Vec::new();
    };
    let body = &text[open + 1..close];
    let mut out = Vec::new();
    let mut rest = body;
    while let Some(q0) = rest.find('"') {
        let Some(q1) = rest[q0 + 1..].find('"').map(|i| q0 + 1 + i) else {
            break;
        };
        out.push(rest[q0 + 1..q1].to_string());
        rest = &rest[q1 + 1..];
    }
    out
}

/// Byte span `(open, close)` of the first `fn <name>` body in `code`.
fn fn_span_named(code: &str, name: &str) -> Option<(usize, usize)> {
    for p in find_word(code, name) {
        let pre = code[..p].trim_end();
        if !pre.ends_with("fn") {
            continue;
        }
        let open = code[p..].find('{').map(|i| p + i)?;
        let close = matching(code, open)?;
        return Some((open, close));
    }
    None
}

/// Identifiers declared in `alloc_counters! { <section> { … } }`.
fn macro_section_idents(code: &str, section: &str) -> Vec<String> {
    let Some(mac) = code.find("alloc_counters!") else {
        return Vec::new();
    };
    let Some(open) = code[mac..].find('{').map(|i| mac + i) else {
        return Vec::new();
    };
    let Some(close) = matching(code, open) else {
        return Vec::new();
    };
    let body = &code[open..=close];
    let Some(sec) = find_word(body, section)
        .into_iter()
        .find(|&p| body[p + section.len()..].trim_start().starts_with('{'))
    else {
        return Vec::new();
    };
    let Some(sopen) = body[sec..].find('{').map(|i| sec + i) else {
        return Vec::new();
    };
    let Some(sclose) = matching(body, sopen) else {
        return Vec::new();
    };
    body[sopen + 1..sclose]
        .split(',')
        .map(|s| s.trim())
        .filter(|s| !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'))
        .map(|s| s.to_string())
        .collect()
}

/// Field names of `struct <name> { … }`.
fn struct_fields(code: &str, name: &str) -> Vec<String> {
    struct_fields_inner(code, name, None)
}

/// Field names of `struct <name>` whose type starts with `ty`.
fn struct_fields_typed(code: &str, name: &str, ty: &str) -> Vec<String> {
    struct_fields_inner(code, name, Some(ty))
}

fn struct_fields_inner(code: &str, name: &str, ty: Option<&str>) -> Vec<String> {
    let mut out = Vec::new();
    for p in find_word(code, name) {
        let pre = code[..p].trim_end();
        if !pre.ends_with("struct") {
            continue;
        }
        let Some(open) = code[p..].find('{').map(|i| p + i) else {
            continue;
        };
        let Some(close) = matching(code, open) else {
            continue;
        };
        let body = &code[open + 1..close];
        // Split on commas at depth 0 (field types may nest generics).
        let mut depth = 0i64;
        let mut start = 0usize;
        let bytes = body.as_bytes();
        for (i, &c) in bytes.iter().enumerate().chain([(body.len(), &b',')]) {
            match c {
                b'<' | b'(' | b'[' | b'{' => depth += 1,
                b'>' | b')' | b']' | b'}' => depth -= 1,
                b',' if depth <= 0 => {
                    let field = body[start..i.min(body.len())].trim();
                    start = i + 1;
                    let Some((fname, fty)) = field.rsplit_once(':') else {
                        continue;
                    };
                    let fname = fname
                        .trim()
                        .trim_start_matches("pub")
                        .trim()
                        .trim_start_matches("(crate)")
                        .trim();
                    if fname.is_empty()
                        || !fname.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
                    {
                        continue;
                    }
                    if let Some(want) = ty {
                        if fty.trim() != want {
                            continue;
                        }
                    }
                    out.push(fname.to_string());
                }
                _ => {}
            }
        }
        break;
    }
    out
}

/// Body of the first `fn <name>` in `code`.
fn fn_body_named(code: &str, name: &str) -> Option<String> {
    for p in find_word(code, name) {
        let pre = code[..p].trim_end();
        if !pre.ends_with("fn") {
            continue;
        }
        let open = code[p..].find('{').map(|i| p + i)?;
        let close = matching(code, open)?;
        return Some(code[open..=close].to_string());
    }
    None
}

fn fn_body_named_in_impl(code: &str, name: &str) -> Option<String> {
    fn_body_named(code, name)
}

fn word_in(haystack: &str, word: &str) -> bool {
    !find_word(haystack, word).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATS: &str = "macro_rules! alloc_counters { (..) => { \
        pub struct StatsSnapshot { } \
        impl AllocStats { pub fn snapshot(&self) {} } \
        impl StatsSnapshot { pub const NAMES: u8 = 0; pub fn named(&self) {} } } } \
        alloc_counters! { counters { gets, cache_get_fast, } gauges { io_inflight, } } \
        fn plumb() { let _ = ($cname, stringify!(x)); }";
    const ENGINE: &str = "pub struct SimResult { pub ops: u64, pub cache_get_fast: u64, } \
        impl SimResult { pub fn named_counters(&self) { (self.ops, self.cache_get_fast); } \
        pub fn metrics_text(&self) { self.named_counters(); } }";
    const CLEANER: &str =
        "impl CleanerPool { pub fn metrics_text(&self) { reg.import(self.stats().named()); \
         f.reconstructed_reads; io_inflight; } }";
    const IO: &str = "pub struct FaultSnapshot { pub reconstructed_reads: u64, }";

    fn run(stats: &str, engine: &str, cleaner: &str, io: &str) -> Vec<Finding> {
        let (s, e, c, i) = (
            Scrubbed::new(stats),
            Scrubbed::new(engine),
            Scrubbed::new(cleaner),
            Scrubbed::new(io),
        );
        let mut f = Vec::new();
        check_counters(
            &CounterSources {
                stats: &s,
                engine: &e,
                cleaner: &c,
                io: &i,
            },
            &mut f,
        );
        f
    }

    #[test]
    fn clean_plumbing_passes() {
        let f = run(STATS, ENGINE, CLEANER, IO);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unplumbed_sim_counter_is_flagged() {
        let engine = "pub struct SimResult { pub ops: u64, pub cache_get_fast: u64, } \
            impl SimResult { pub fn named_counters(&self) { (self.ops,); } \
            pub fn metrics_text(&self) { self.named_counters(); } }";
        let f = run(STATS, engine, CLEANER, IO);
        assert!(
            f.iter().any(|x| x.message.contains("cache_get_fast")),
            "{f:?}"
        );
    }

    #[test]
    fn missing_fault_field_is_flagged() {
        let cleaner = "impl CleanerPool { pub fn metrics_text(&self) { \
                       reg.import(self.stats().named()); io_inflight; } }";
        let f = run(STATS, ENGINE, cleaner, IO);
        assert!(
            f.iter().any(|x| x.message.contains("reconstructed_reads")),
            "{f:?}"
        );
    }

    #[test]
    fn drifted_mirror_is_flagged() {
        let engine = "pub struct SimResult { pub cache_get_fastest: u64, } \
            impl SimResult { pub fn named_counters(&self) { (self.cache_get_fastest,); } \
            pub fn metrics_text(&self) { self.named_counters(); } }";
        let f = run(STATS, engine, CLEANER, IO);
        assert!(f.iter().any(|x| x.key.contains("mirror")), "{f:?}");
    }

    #[test]
    fn macro_leg_removal_is_flagged() {
        let stats = STATS.replace("pub fn named(&self) {}", "");
        let f = run(&stats, ENGINE, CLEANER, IO);
        assert!(f.iter().any(|x| x.message.contains("named()")), "{f:?}");
    }

    const SAMPLER: &str = "pub const TELEMETRY_COUNTERS: [&str; 2] = \
        [\"telemetry_ticks\", \"telemetry_dumps\"]; \
        fn sample(&self) { self.registry().counter(\"telemetry_ticks\").inc(); }";
    const BLACKBOX: &str =
        "fn write_bundle(&self) { self.registry().counter(\"telemetry_dumps\").inc(); }";
    const CP: &str = "pub const CP_PHASE_NAMES: [&str; 2] = [\"freeze\", \"clean\"]; \
        pub struct CpReport { pub freeze_ns: u64, pub clean_ns: u64, } \
        impl CpReport { \
        pub fn phase_ns(&self) -> [u64; 2] { [self.freeze_ns, self.clean_ns] } \
        pub fn record_profile(&self) { \
        reg.histogram(&format!(\"cp_phase_{n}_ns\")); \
        reg.counter(&format!(\"cp_phase_binding_{n}\")); \
        reg.counter(\"cp_phase_profiled\"); } } \
        fn run_cp_inner() { report.record_profile(); }";

    fn run_telemetry(sampler: &str, blackbox: &str, cp: &str) -> Vec<Finding> {
        let (s, b, c) = (
            Scrubbed::new(sampler),
            Scrubbed::new(blackbox),
            Scrubbed::new(cp),
        );
        let mut f = Vec::new();
        check_telemetry(
            &TelemetrySources {
                sampler: &s,
                blackbox: &b,
                cp: &c,
            },
            &mut f,
        );
        f
    }

    #[test]
    fn clean_telemetry_plumbing_passes() {
        let f = run_telemetry(SAMPLER, BLACKBOX, CP);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unmaintained_telemetry_counter_is_flagged() {
        // Declared in the array, incremented nowhere.
        let blackbox = "fn write_bundle(&self) {}";
        let f = run_telemetry(SAMPLER, blackbox, CP);
        assert!(
            f.iter().any(|x| x.key == "telemetry:telemetry_dumps"),
            "{f:?}"
        );
    }

    #[test]
    fn unmeasured_cp_phase_is_flagged() {
        let cp = CP
            .replace("pub clean_ns: u64, ", "")
            .replace("[self.freeze_ns, self.clean_ns]", "[self.freeze_ns, 0]");
        let f = run_telemetry(SAMPLER, BLACKBOX, &cp);
        assert!(
            f.iter().any(|x| x.key == "cp-phase-field:clean_ns"),
            "{f:?}"
        );
        assert!(
            f.iter().any(|x| x.key == "cp-phase-export:clean_ns"),
            "{f:?}"
        );
    }

    #[test]
    fn uncalled_record_profile_is_flagged() {
        let cp = CP.replace("fn run_cp_inner() { report.record_profile(); }", "");
        let f = run_telemetry(SAMPLER, BLACKBOX, &cp);
        assert!(f.iter().any(|x| x.key == "cp-profile-uncalled"), "{f:?}");
    }

    #[test]
    fn lost_profile_publication_leg_is_flagged() {
        let cp = CP.replace("reg.counter(\"cp_phase_profiled\"); ", "");
        let f = run_telemetry(SAMPLER, BLACKBOX, &cp);
        assert!(
            f.iter()
                .any(|x| x.key == "cp-profile-leg:cp_phase_profiled"),
            "{f:?}"
        );
    }
}
