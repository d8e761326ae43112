//! Allocator-wide statistics, shared across infrastructure and cleaners.
//!
//! Counters are declared once, in [`alloc_counters!`]; the macro
//! generates the atomic struct, the plain-value snapshot, the copy
//! loop, and the [`StatsSnapshot::named`] exporter. Adding a counter is
//! therefore a one-line change here — it flows to every consumer
//! (reports, the obs metrics registry, text dumps) automatically
//! instead of being hand-threaded through a five-struct relay.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Declares the allocator's statistics in one place.
///
/// `counters` are monotone and appear in [`StatsSnapshot`];
/// `gauges` are instantaneous levels kept on [`AllocStats`] only (their
/// derived high-water counters live in the `counters` list).
macro_rules! alloc_counters {
    (
        counters { $( $(#[$cmeta:meta])* $cname:ident, )* }
        gauges { $( $(#[$gmeta:meta])* $gname:ident, )* }
    ) => {
        /// Monotone counters describing allocator activity. All relaxed: they are
        /// reporting-only and never guard correctness.
        #[derive(Debug, Default)]
        pub struct AllocStats {
            $( $(#[$cmeta])* pub $cname: AtomicU64, )*
            $( $(#[$gmeta])* pub $gname: AtomicU64, )*
        }

        /// Plain-value copy of [`AllocStats`].
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
        #[allow(missing_docs)]
        pub struct StatsSnapshot {
            $( pub $cname: u64, )*
        }

        impl AllocStats {
            /// Plain-value snapshot for reporting.
            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot {
                    $( $cname: self.$cname.load(Ordering::Relaxed), )* // ordering: statistics counter; staleness is acceptable.
                }
            }
        }

        impl StatsSnapshot {
            /// Every counter name, in declaration order.
            pub const NAMES: &'static [&'static str] = &[ $( stringify!($cname), )* ];

            /// `(name, value)` pairs for every counter — feed this to
            /// `obs::Registry::import_counters` (or any exporter) so no
            /// counter can be collected but never reported.
            pub fn named(&self) -> Vec<(&'static str, u64)> {
                vec![ $( (stringify!($cname), self.$cname), )* ]
            }
        }
    };
}

alloc_counters! {
    counters {
        /// GET operations (buckets handed to cleaners).
        gets,
        /// GETs that found the bucket cache empty and had to wait/refill —
        /// the paper's infrastructure "keeps this list non-empty to ensure
        /// that the GET operation does not block" (§IV-D), so this counter
        /// measures how well the refill pipeline keeps up.
        get_stalls,
        /// USE operations (VBNs assigned to buffers).
        uses,
        /// PUT operations (buckets returned).
        puts,
        /// Refill rounds executed by the infrastructure.
        refill_rounds,
        /// Buckets filled with VBNs.
        buckets_filled,
        /// VBNs reserved from the bitmaps.
        vbns_reserved,
        /// VBNs committed as used (metafile updates, step 6 of Fig 2).
        vbns_committed,
        /// Reserved VBNs released unconsumed.
        vbns_released,
        /// VBNs freed through stages (overwrites).
        vbns_freed,
        /// Stage-commit messages processed by the infrastructure.
        stage_commits,
        /// Tetris write I/Os sent to RAID.
        tetris_ios,
        /// Allocation-Area switches (a new AA selected for a RAID group).
        aa_switches,
        /// Infrastructure messages executed (refill + commit + free-commit).
        infra_msgs,
        /// Tetris write I/Os that failed terminally (retries exhausted or too
        /// many drives offline). The stamps of a failed I/O never reached
        /// stable storage.
        io_errors,
        /// Cache pops satisfied by the getter's own (affinity) shard — the
        /// uncontended fast path the sharded bucket cache is built around
        /// (§IV-C's amortized synchronization, divided per drive).
        cache_get_fast,
        /// Cache pops that missed the home shard and work-stole a bucket from
        /// another shard.
        cache_get_steal,
        /// Nanoseconds spent waiting for a contended shard mutex (fast-path
        /// `try_lock` successes cost nothing and are not timed).
        cache_lock_waits_ns,
        /// GETs that found every shard empty and parked on the shard condvar
        /// (the §IV-D starvation case the refill pipeline is meant to avoid).
        cache_blocked_gets,
        /// Buckets delivered *beyond the first* by batched `get_many` pops —
        /// each one is a GET whose synchronization was amortized into the
        /// batch's single lock acquisition (§IV-C applied to GET).
        cache_get_batched,
        /// High-water mark of the commit queue: the deepest backlog of
        /// submitted-but-unexecuted PUT commits observed. Measures the
        /// used-queue/commit funnel before it gets optimized.
        put_commit_queue_len,
        /// Nanoseconds the infrastructure spent inside `commit_bucket`
        /// (metafile updates + release of unconsumed VBNs) — the per-PUT
        /// commit cost whose queueing the convoy gauge watches.
        commit_batch_ns,
        /// Nanoseconds PUT commit messages spent queued behind the
        /// infrastructure executor before starting to run — the convoy
        /// *wait* that, together with `commit_batch_ns` (service) and
        /// `put_commit_queue_len` (depth), decides whether the used
        /// queues need sharding (ROADMAP).
        commit_queue_wait_ns,
        /// Nanoseconds cleaners spent inside `get_bucket_many` (the full
        /// GET wall time, stalls included) — the denominator the PUT
        /// convoy is compared against in `exp_put_convoy`.
        get_wait_ns,
        /// GET batches the adaptive sizer widened beyond the configured
        /// base because the home shard was running deep.
        cache_batch_grows,
        /// GET batches the adaptive sizer shrank toward 1 because the
        /// cache was at or under the refill low watermark.
        cache_batch_shrinks,
        /// Scrub range messages executed (one per allocation-area unit).
        scrub_units,
        /// Media blocks the scrubber cross-checked (stamps + parity).
        scrub_blocks_checked,
        /// Corruption findings confirmed after quarantine re-check.
        scrub_findings,
        /// Findings repaired through the degraded/reconstruction path.
        scrub_repairs,
        /// Repairs that passed the post-repair re-verify read-back.
        scrub_reverified,
        /// Detection candidates dismissed during quarantine (racing CP or
        /// allocator activity, not corruption) — the false-positive guard.
        scrub_false_alarms,
        /// Transiently faulted scrub reads retried under the bounded
        /// backoff policy.
        scrub_retries,
        /// Times the scrubber paused under cleaner pressure (§VI-style
        /// utilization signal above the activation threshold).
        scrub_pauses,
        /// Times the scrubber resumed after pressure fell below the
        /// deactivation threshold.
        scrub_resumes,
        /// Always 0. The bucket cache takes per-shard mutexes and has no
        /// CAS loop to retry; the field stays because external readers
        /// of [`StatsSnapshot`] (the end-to-end benchmark's layer
        /// report) still name it.
        cache_cas_retries,
        /// High-water mark of async write I/Os in flight (submitted to
        /// the `blockdev::aio` engine, completion not yet harvested) —
        /// the queue-depth headline of the pipelined CP.
        io_queue_depth_peak,
        /// Nanoseconds from async submit to completion publish, summed
        /// over harvested completions (divide by completed I/Os for the
        /// mean; the full distribution is in the obs histogram).
        io_submit_to_complete_ns,
    }
    gauges {
        /// PUT-side convoy gauge: commit messages submitted but not yet
        /// executed, right now. Not part of the snapshot (it is a level, not
        /// a counter); feeds the `put_commit_queue_len` high-water mark.
        put_commit_outstanding,
        /// Async write I/Os in flight right now (a level; its
        /// high-water mark is `io_queue_depth_peak`).
        io_inflight,
    }
}

impl AllocStats {
    /// Record one PUT commit entering the infrastructure queue,
    /// maintaining the convoy high-water mark.
    pub fn commit_enqueued(&self) {
        // ordering: AcqRel keeps the outstanding gauge and its high-water mark
        // mutually consistent; pairs-with: stats.commit-gauge.
        let depth = self.put_commit_outstanding.fetch_add(1, Ordering::AcqRel) + 1;
        // ordering: AcqRel — see the gauge increment above;
        // pairs-with: stats.commit-gauge.
        self.put_commit_queue_len.fetch_max(depth, Ordering::AcqRel);
    }

    /// Record one PUT commit leaving the queue (executed).
    pub fn commit_dequeued(&self) {
        // ordering: AcqRel — pairs with the gauge increment;
        // pairs-with: stats.commit-gauge.
        self.put_commit_outstanding.fetch_sub(1, Ordering::AcqRel);
    }

    /// Record one async write I/O submitted, maintaining the queue-depth
    /// high-water mark (same shape as [`AllocStats::commit_enqueued`]).
    pub fn io_submitted(&self) {
        // ordering: AcqRel keeps the inflight gauge and its high-water mark
        // mutually consistent; pairs-with: stats.io-gauge.
        let depth = self.io_inflight.fetch_add(1, Ordering::AcqRel) + 1;
        // ordering: AcqRel — see the gauge increment above;
        // pairs-with: stats.io-gauge.
        self.io_queue_depth_peak.fetch_max(depth, Ordering::AcqRel);
    }

    /// Record `n` async write completions harvested, with their summed
    /// submit→complete latency.
    pub fn io_completed(&self, n: u64, latency_ns: u64) {
        // ordering: AcqRel — pairs with the gauge increment;
        // pairs-with: stats.io-gauge.
        self.io_inflight.fetch_sub(n, Ordering::AcqRel);
        // ordering: statistics counter; staleness is acceptable.
        self.io_submit_to_complete_ns
            .fetch_add(latency_ns, Ordering::Relaxed);
    }
}

impl StatsSnapshot {
    /// Conservation check: every reserved VBN is committed, released, or
    /// still outstanding in a live bucket. With `outstanding` known (e.g.,
    /// zero after a full drain), the identity must hold exactly.
    pub fn check_conservation(&self, outstanding: u64) -> Result<(), String> {
        let accounted = self.vbns_committed + self.vbns_released + outstanding;
        if self.vbns_reserved != accounted {
            return Err(format!(
                "VBN conservation violated: reserved {} != committed {} + released {} + outstanding {}",
                self.vbns_reserved, self.vbns_committed, self.vbns_released, outstanding
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_copies_values() {
        let s = AllocStats::default();
        // ordering: statistics counter; staleness is acceptable.
        s.gets.store(3, Ordering::Relaxed);
        // ordering: statistics counter; staleness is acceptable.
        s.uses.store(17, Ordering::Relaxed);
        let snap = s.snapshot();
        assert_eq!(snap.gets, 3);
        assert_eq!(snap.uses, 17);
    }

    #[test]
    fn conservation_identity() {
        let snap = StatsSnapshot {
            vbns_reserved: 100,
            vbns_committed: 60,
            vbns_released: 30,
            ..Default::default()
        };
        snap.check_conservation(10).unwrap();
        assert!(snap.check_conservation(0).is_err());
    }

    /// The audit the reporting bug of PR 3 motivated: `named()` must
    /// cover *every* snapshot field, so a counter that is collected can
    /// no longer silently miss the reports. Cross-checked against the
    /// serde field list (independent of the macro's own expansion).
    #[test]
    fn named_covers_every_snapshot_field() {
        let snap = StatsSnapshot {
            gets: 1,
            commit_queue_wait_ns: 7,
            ..Default::default()
        };
        let named = snap.named();
        assert_eq!(named.len(), StatsSnapshot::NAMES.len());
        let serde::Value::Map(fields) = serde::Serialize::to_value(&snap) else {
            panic!("snapshot serializes as a map");
        };
        let field_names: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        let named_names: Vec<&str> = named.iter().map(|(k, _)| *k).collect();
        assert_eq!(
            named_names, field_names,
            "named() must match the struct exactly"
        );
        assert_eq!(named[0], ("gets", 1));
        assert!(named.contains(&("commit_queue_wait_ns", 7)));
    }
}
