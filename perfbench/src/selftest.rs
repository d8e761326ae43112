//! Self-tests of the whole benchmark at tiny sizes.

use crate::field;
use crate::run::{run, Options};
use crate::workload::NAMES;
use serde::Value;
use std::path::PathBuf;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn tiny(workload: &str, trace: bool, tag: &str) -> Options {
    Options {
        workload: workload.to_string(),
        seed: 3,
        seconds: 0.3,
        trace,
        shrink: 64,
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../.bench_out")
            .join(format!("selftest-{tag}-{workload}")),
        plant_lost_write: false,
        blocks_per_drive: None,
    }
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    let v: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    field(&v, list)
        .as_seq()
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k| field(m, k).as_str().expect("string").to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

#[test]
fn every_workload_emits_every_benchmark_metric_with_its_unit() {
    let v: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let listed: Vec<&str> = field(&v, "workloads")
        .as_seq()
        .expect("workload list")
        .iter()
        .map(|w| field(w, "name").as_str().expect("name"))
        .collect();
    assert!(
        listed.iter().all(|w| NAMES.contains(w)),
        "BENCHMARK.json lists the workloads the program runs"
    );
    for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
        let mut want = declared(list);
        want.sort();
        for name in NAMES {
            let out = run(&tiny(name, trace, "emit"));
            assert!(out.attempted > 0, "{name}: no ops ran: {:?}", out.failures);
            let mut got: Vec<(String, String)> = out
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            got.sort();
            assert_eq!(got, want, "{name} (trace {trace}) emits the {list} list");
            assert!(
                out.metrics.iter().all(|m| m.value.is_finite()),
                "{name}: every value is a finite number"
            );
        }
    }
}

#[test]
fn read_back_catches_a_planted_lost_write() {
    let mut opts = tiny("seq_overwrite", false, "planted");
    let clean = run(&opts);
    assert!(clean.correct, "unplanted run passes: {:?}", clean.failures);
    opts.plant_lost_write = true;
    let planted = run(&opts);
    assert!(!planted.correct);
    assert_eq!(planted.failed, 1, "exactly the planted write is lost");
    assert!(
        planted.failures.iter().any(|f| f.starts_with("read-back")),
        "{:?}",
        planted.failures
    );
}

#[test]
fn a_panic_in_the_program_fails_the_run_with_its_message() {
    // 4096 live blocks on 8 x 560 = 4480 blocks: the first overwrite CP
    // runs the aggregate out of space, which the cleaner answers with a
    // panic (the ROADMAP's exhaustion item).
    let mut opts = tiny("seq_overwrite", false, "panic");
    opts.blocks_per_drive = Some(560);
    let out = run(&opts);
    assert!(!out.correct);
    assert!(out.attempted >= 1);
    assert_eq!(
        out.failed, out.attempted,
        "a run that panics fails every op"
    );
    assert!(
        out.failures.iter().any(|f| f.contains("panicked")),
        "{:?}",
        out.failures
    );
}
