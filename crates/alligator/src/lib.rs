//! # alligator — the White Alligator scalable write allocator
//!
//! This crate is the reproduction of the paper's primary contribution
//! (§IV): a write-allocation architecture that scales on many cores by
//! separating
//!
//! * the **infrastructure** ([`infra`]) — which "processes allocation
//!   metafiles to find available VBNs that meet the write allocator's
//!   objectives and uses them to construct a set of buckets", running as
//!   messages in Waffinity so the scheduler coordinates concurrent
//!   metadata access — from
//! * the **cleaner threads** (clients of this crate, see the `wafl`
//!   crate), which assign VBNs to dirty buffers through a narrow MP-safe
//!   API and "do not directly perform any metafile accesses".
//!
//! ## The API (Figure 2)
//!
//! The API is composed of **GET**, **USE**, and **PUT** operations that
//! execute in the context of cleaner threads:
//!
//! 1. the infrastructure enqueues filled buckets to the lock-protected
//!    **bucket cache** ([`cache::BucketCache`]);
//! 2. **GET** ([`Allocator::get_bucket`]) acquires a bucket of VBNs;
//! 3. **USE** ([`bucket::Bucket::use_vbn`]) assigns one VBN from the
//!    bucket to a dirty buffer and enqueues the buffer toward the
//!    per-RAID-group **tetris** ([`tetris::Tetris`]);
//! 4. when a tetris has collected all its outstanding buckets, the write
//!    I/O is constructed and sent to RAID;
//! 5. **PUT** ([`Allocator::put_bucket`]) returns the bucket to the
//!    **used bucket queue**;
//! 6. the infrastructure drains the used bucket queue and updates
//!    allocation metafiles to reflect the consumed VBNs, then refills the
//!    bucket.
//!
//! A parallel path handles **frees** of overwritten VBNs through
//! [`stage::Stage`] structures ("analogous to a bucket").
//!
//! ## Configuration knobs (used by the evaluation)
//!
//! [`config::AllocConfig`] exposes the paper's experimental dimensions:
//! chunk size (bucket length, §IV-C), serialized vs parallel
//! infrastructure (Figs 4, 6, 7), and collective vs immediate bucket
//! reinsertion (the equal-progress ablation).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod allocator;
pub mod bucket;
pub mod cache;
pub mod config;
pub mod executor;
pub mod infra;
pub mod stage;
pub mod stats;
pub mod sync;
pub mod tetris;

pub use allocator::Allocator;
pub use bucket::Bucket;
pub use cache::BucketCache;
pub use config::{AllocConfig, InfraMode, ReinsertPolicy};
pub use executor::{Executor, InlineExecutor, InstrumentedExecutor, PoolExecutor};
pub use infra::Infrastructure;
pub use stage::Stage;
pub use stats::{AllocStats, StatsSnapshot};
pub use tetris::Tetris;
