//! Command-line entry point; see `perfbench/README.md`.
//!
//! ```sh
//! perfbench --workload seq_overwrite --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is the result as one JSON object.

use perfbench::envelope::escape;
use perfbench::run::{run, Options};
use std::fmt::Write as _;
use std::path::PathBuf;

const USAGE: &str =
    "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]";

fn parse() -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        shrink: 1,
        out_dir: PathBuf::from(".bench_out"),
        plant_lost_write: false,
        blocks_per_drive: None,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => opts.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => opts.trace = value == "1",
            "--out-dir" => opts.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if opts.workload.is_empty() || opts.seconds <= 0.0 {
        return Err(USAGE.into());
    }
    Ok(opts)
}

fn main() {
    let opts = match parse() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let out = run(&opts);
    println!("envelope {}", out.envelope.json());
    for line in &out.report {
        println!("{line}");
    }
    for f in &out.failures {
        println!("FAILURE {f}");
    }
    for m in &out.metrics {
        println!("metric {:<32} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let mut metrics = String::new();
    for (i, m) in out.metrics.iter().enumerate() {
        if i > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            escape(m.name),
            m.value,
            escape(m.unit)
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.correct, out.attempted, out.failed
    );
    // Returning from `main` ends the process, reaping any thread a hung
    // run abandoned.
    if !out.correct {
        std::process::exit(1);
    }
}
