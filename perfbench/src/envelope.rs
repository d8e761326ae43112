//! The machine envelope printed with every result, so no number is
//! reported without the machine and build that produced it.

use crate::workload::{CLEANERS, CLIENTS, WAFFINITY_THREADS};
use std::fmt::Write as _;
use std::path::Path;

/// Machine, build and run tags for one result.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Key/value pairs, in print order.
    pub fields: Vec<(&'static str, String)>,
}

fn first_line(s: &str) -> String {
    s.lines().next().unwrap_or("").trim().to_string()
}

/// The `model name` of the first CPU in `/proc/cpuinfo`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// A glibc tunable from the environment, `adaptive` when unset.
fn env_or(key: &str) -> String {
    std::env::var(key).unwrap_or_else(|_| "adaptive".into())
}

fn rustc_version() -> String {
    if let Ok(v) = std::env::var("PERFBENCH_RUSTC") {
        return v;
    }
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .map(|o| first_line(&String::from_utf8_lossy(&o.stdout)))
        .unwrap_or_else(|_| "unknown".into())
}

/// File-system type holding `dir`: the longest mount point in
/// `/proc/self/mounts` that prefixes its canonical path.
pub fn fs_type(dir: &Path) -> String {
    let Ok(path) = dir.canonicalize() else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mnt, ty) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mnt).then(|| (mnt.len(), ty.to_string()))
        })
        .max()
        .map(|(_, ty)| ty)
        .unwrap_or_else(|| "unknown".into())
}

impl Envelope {
    /// Tags for a run of `workload` under `seed`.
    pub fn new(workload: &str, seed: u64, trace: bool) -> Self {
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        let commit = std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into());
        Self {
            fields: vec![
                ("workload", workload.to_string()),
                ("seed", seed.to_string()),
                ("trace", trace.to_string()),
                ("nproc", nproc.to_string()),
                ("cpu", cpu_model()),
                ("rustc", rustc_version()),
                ("commit", commit),
                ("clients", CLIENTS.to_string()),
                ("cleaners", CLEANERS.to_string()),
                ("waffinity_threads", WAFFINITY_THREADS.to_string()),
                ("malloc_mmap_threshold", env_or("MALLOC_MMAP_THRESHOLD_")),
                ("malloc_trim_threshold", env_or("MALLOC_TRIM_THRESHOLD_")),
            ],
        }
    }

    /// Add or replace a tag.
    pub fn set(&mut self, key: &'static str, value: String) {
        match self.fields.iter_mut().find(|(k, _)| *k == key) {
            Some(f) => f.1 = value,
            None => self.fields.push((key, value)),
        }
    }

    /// The tags as one JSON object.
    pub fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{k}\":\"{}\"", escape(v));
        }
        out.push('}');
        out
    }
}

/// Escape `s` for a JSON string body.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}
