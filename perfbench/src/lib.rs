//! # perfbench — the repository's end-to-end benchmark
//!
//! Drives the real [`wafl::Filesystem`] from one process: closed-loop
//! client threads write and read through the public API while a CP
//! thread runs consistency points as NVRAM halves fill (§II-C), so a
//! slow CP shows up as client stalls. Every run ends with a correctness
//! check of every acknowledged write. A traced run adds per-layer
//! counters, a layer budget and a Chrome trace. See `perfbench/README.md`.

pub mod envelope;
pub mod gate;
pub mod lat;
pub mod layers;
pub mod run;
pub mod trace;
pub mod workload;

#[cfg(test)]
mod selftest;

/// Look up `key` in a parsed JSON object (test helper).
#[cfg(test)]
pub(crate) fn field<'a>(v: &'a serde::Value, key: &str) -> &'a serde::Value {
    v.as_map()
        .and_then(|m| m.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing key {key}"))
}
