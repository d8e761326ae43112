//! `obs` — always-on observability for the White Alligator
//! reproduction (DESIGN.md §11).
//!
//! Three pieces:
//!
//! * **Event rings** ([`ring::EventRing`], [`trace`]): per-thread
//!   lock-free fixed-capacity rings recording typed spans/instants for
//!   the bucket lifecycle (GET/USE/PUT), refill rounds, tetris stripe
//!   fires, stage commits, CP phases, and injected faults. Zero cost
//!   unless built with `--features trace`; a runtime switch inside a
//!   trace build gates recording for overhead A/B runs.
//! * **Metrics registry** ([`metrics::Registry`]): named counters,
//!   gauges, and log-bucketed histograms with a sorted plain-text
//!   export, replacing the hand-threaded counter relay.
//! * **Exporters** ([`chrome::chrome_trace_json`],
//!   [`metrics::Registry::text_snapshot`]): Chrome trace-event JSON for
//!   `chrome://tracing`/Perfetto, and text dumps for reports/logs.
//! * **Continuous telemetry** ([`sampler::Sampler`], DESIGN.md §16): a
//!   background thread snapshots every registered metric into a
//!   timestamped delta ring — rate queries, SLO burn-rate tracking, a
//!   Prometheus-text exporter, and a `wafl.telemetry.v1` JSON export.
//! * **Flight recorder** ([`blackbox::Blackbox`]): on a trigger (drive
//!   offlining, CP crash point, scrub finding, manual) atomically
//!   writes a post-mortem bundle — recent events from every thread
//!   ring, full metrics, registered config/fault sections — schema
//!   `wafl.blackbox.v1`.
//!
//! Instrumentation sites use the macros:
//!
//! ```
//! let mut sp = obs::trace_span!(obs::EventKind::Refill);
//! // ... do the work ...
//! sp.set_arg(3 /* buckets built */);
//! drop(sp); // records one complete event (no-op without `trace`)
//! obs::trace_instant!(obs::EventKind::InsertAll, 3);
//! ```

#![warn(missing_docs)]

pub mod blackbox;
pub mod chrome;
pub mod event;
pub mod metrics;
pub mod ring;
pub mod sampler;
pub mod sync;
pub mod trace;

pub use blackbox::{trigger, Blackbox, BlackboxConfig, Trigger, BLACKBOX_SCHEMA};
pub use event::{Event, EventKind};
pub use metrics::{Counter, Gauge, LogHistogram, Registry};
pub use ring::{EventRing, RingSnapshot};
pub use sampler::{
    RegistrySource, Sampler, SamplerConfig, SamplerThread, SloObjective, TELEMETRY_SCHEMA,
};
pub use trace::{Span, ThreadTrace, ENABLED};

/// Record an instantaneous event on the current thread's ring.
/// `trace_instant!(kind)` or `trace_instant!(kind, arg)`. Compiles to
/// nothing without the `trace` feature (the called function is a no-op
/// that the optimizer deletes — the `log`-crate pattern, so consumer
/// crates never forward the feature themselves).
#[macro_export]
macro_rules! trace_instant {
    ($kind:expr) => {
        $crate::trace::instant($kind, 0)
    };
    ($kind:expr, $arg:expr) => {
        $crate::trace::instant($kind, $arg)
    };
}

/// Open a span recording one complete event when dropped.
/// `trace_span!(kind)` or `trace_span!(kind, arg)`; bind the result
/// (`let _sp = ...` — not `let _ = ...`, which drops immediately) and
/// optionally `_sp.set_arg(..)` before it goes out of scope. No-op ZST
/// without the `trace` feature.
#[macro_export]
macro_rules! trace_span {
    ($kind:expr) => {
        $crate::trace::span($kind)
    };
    ($kind:expr, $arg:expr) => {
        $crate::trace::span_arg($kind, $arg)
    };
}
