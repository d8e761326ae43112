//! Paper-vs-measured reporting helpers shared by the `fig*` binaries.

use crate::engine::SimResult;
use serde::{Deserialize, Serialize};

/// One row of a reproduced figure/table: a named quantity, the paper's
/// reported value (when one exists), and ours.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FigureRow {
    /// Row label (e.g., "parallel/parallel gain").
    pub label: String,
    /// The paper's reported value, if it states one.
    pub paper: Option<f64>,
    /// Our measured value.
    pub measured: f64,
    /// Unit for display ("%", "cores", "ops/s", "ms").
    pub unit: String,
}

/// A reproduced figure/table: id, caption, and rows.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FigureTable {
    /// Paper artifact id ("fig4", "table-batching", …).
    pub id: String,
    /// What the artifact shows.
    pub caption: String,
    /// The rows.
    pub rows: Vec<FigureRow>,
}

impl FigureTable {
    /// New empty table.
    pub fn new(id: impl Into<String>, caption: impl Into<String>) -> Self {
        Self {
            id: id.into(),
            caption: caption.into(),
            rows: Vec::new(),
        }
    }

    /// Append a row with a paper-reported reference value.
    pub fn row(
        &mut self,
        label: impl Into<String>,
        paper: f64,
        measured: f64,
        unit: impl Into<String>,
    ) -> &mut Self {
        self.rows.push(FigureRow {
            label: label.into(),
            paper: Some(paper),
            measured,
            unit: unit.into(),
        });
        self
    }

    /// Append a measurement-only row.
    pub fn row_measured(
        &mut self,
        label: impl Into<String>,
        measured: f64,
        unit: impl Into<String>,
    ) -> &mut Self {
        self.rows.push(FigureRow {
            label: label.into(),
            paper: None,
            measured,
            unit: unit.into(),
        });
        self
    }

    /// Render as an aligned text table (what the `fig*` binaries print).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.caption));
        out.push_str(&format!(
            "{:<44} {:>12} {:>12}  {}\n",
            "quantity", "paper", "measured", "unit"
        ));
        for r in &self.rows {
            let paper = r
                .paper
                .map(|p| format!("{p:.2}"))
                .unwrap_or_else(|| "—".to_string());
            out.push_str(&format!(
                "{:<44} {:>12} {:>12.2}  {}\n",
                r.label, paper, r.measured, r.unit
            ));
        }
        out
    }

    /// Serialize to JSON (machine-readable record for EXPERIMENTS.md).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("FigureTable serializes")
    }

    /// Append the bucket-cache contention block of a run: home-shard GET
    /// fraction, work-steals, modeled lock-wait time, and blocked GETs.
    /// Measurement-only rows (the paper reports no per-lock numbers).
    pub fn cache_rows(&mut self, label_prefix: &str, r: &SimResult) -> &mut Self {
        let pops = r.cache_get_fast + r.cache_get_steal;
        let fast_pct = if pops > 0 {
            100.0 * r.cache_get_fast as f64 / pops as f64
        } else {
            0.0
        };
        self.row_measured(format!("{label_prefix} GET home-shard hit"), fast_pct, "%")
            .row_measured(
                format!("{label_prefix} GET work-steals"),
                r.cache_get_steal as f64,
                "count",
            )
            .row_measured(
                format!("{label_prefix} shard-lock wait"),
                r.cache_lock_waits_ns as f64 / 1e6,
                "ms",
            )
            .row_measured(
                format!("{label_prefix} blocked GETs"),
                r.cache_blocked_gets as f64,
                "count",
            )
            .row_measured(
                format!("{label_prefix} batched GET extra buckets"),
                r.cache_get_batched as f64,
                "count",
            )
            .row_measured(
                format!("{label_prefix} PUT commit queue high-water"),
                r.put_commit_queue_len as f64,
                "count",
            )
            .row_measured(
                format!("{label_prefix} used-bucket commit time"),
                r.commit_batch_ns as f64 / 1e6,
                "ms",
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_includes_all_rows() {
        let mut t = FigureTable::new("fig4", "seq write permutations");
        t.row("both parallel gain", 274.0, 265.3, "%");
        t.row_measured("bucket stalls", 12.0, "count");
        let s = t.render();
        assert!(s.contains("fig4"));
        assert!(s.contains("274.00"));
        assert!(s.contains("265.30"));
        assert!(s.contains("—"));
    }

    #[test]
    fn cache_rows_summarize_contention_counters() {
        let mut r = SimResult {
            measured_ns: 1,
            ops_completed: 0,
            blocks_written: 0,
            throughput_ops: 0.0,
            throughput_per_client: 0.0,
            latency: Default::default(),
            usage: Default::default(),
            avg_active_cleaners: 0.0,
            bucket_stalls: 2,
            refills: 0,
            cleaner_messages: 0,
            free_mf_blocks: 0,
            tuner_changes: 0,
            injected_faults: 0,
            fault_retries: 0,
            cache_get_fast: 75,
            cache_get_steal: 25,
            cache_lock_waits_ns: 3_000_000,
            cache_blocked_gets: 2,
            cache_get_batched: 30,
            put_commit_queue_len: 5,
            commit_batch_ns: 2_000_000,
            io_inflight: 0,
            io_queue_depth_peak: 5,
            io_submit_to_complete_ns: 2_000_000,
        };
        let mut t = FigureTable::new("cache", "contention");
        t.cache_rows("sharded", &r);
        assert_eq!(t.rows.len(), 7);
        assert!((t.rows[0].measured - 75.0).abs() < 1e-9, "75% home hits");
        assert!((t.rows[2].measured - 3.0).abs() < 1e-9, "3 ms lock wait");
        assert!((t.rows[4].measured - 30.0).abs() < 1e-9, "batched extras");
        assert!((t.rows[5].measured - 5.0).abs() < 1e-9, "commit high-water");
        assert!((t.rows[6].measured - 2.0).abs() < 1e-9, "2 ms commit time");
        // Zero pops must not divide by zero.
        r.cache_get_fast = 0;
        r.cache_get_steal = 0;
        let mut t2 = FigureTable::new("cache", "contention");
        t2.cache_rows("idle", &r);
        assert_eq!(t2.rows[0].measured, 0.0);
    }

    #[test]
    fn json_roundtrips() {
        let mut t = FigureTable::new("fig7", "random write");
        t.row("gain", 50.0, 48.0, "%");
        let j = t.to_json();
        let back: FigureTable = serde_json::from_str(&j).unwrap();
        assert_eq!(back.rows.len(), 1);
        assert_eq!(back.rows[0].paper, Some(50.0));
    }
}
