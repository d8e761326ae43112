//! Synchronization shim: the single import point for every atomic,
//! lock, and condvar used by the bucket cache (`cache.rs`).
//!
//! * Default build: zero-cost re-exports of `std::sync::atomic` and
//!   `parking_lot` — identical codegen to using them directly.
//! * `--features mc`: the same names resolve to the `mc` crate's
//!   model-checker shims, turning every operation into a yield point of
//!   a controlled scheduler (see `crates/mc`). The checker's test suite
//!   builds alligator this way to explore interleavings exhaustively
//!   and deterministically.
//!
//! Code under check must come through this module (never `std::sync`
//! directly) for the model to see its memory accesses.

#[cfg(feature = "mc")]
pub use mc::sync::{Condvar, Mutex, MutexGuard};

#[cfg(not(feature = "mc"))]
pub use parking_lot::{Condvar, Mutex, MutexGuard};

/// Atomics: `std::sync::atomic` types or their model-aware doubles.
pub mod atomic {
    #[cfg(feature = "mc")]
    pub use mc::sync::atomic::AtomicUsize;
    #[cfg(not(feature = "mc"))]
    pub use std::sync::atomic::AtomicUsize;
    pub use std::sync::atomic::Ordering;
}
