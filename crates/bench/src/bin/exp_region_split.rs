//! Extension experiment — §V-C's unpublished result: "we also handle the
//! opposite scenario wherein many writes happen to a small number of
//! files by allowing individual inodes to be processed in parallel by
//! multiple cleaner threads. We do not present these results due to space
//! limitations."
//!
//! We present them. Part 1 (simulator): a single-file write flood where
//! cleaning is either confined to one cleaner (no region split — an inode
//! is one unit of work) or spread over many (region split). Part 2 (real
//! stack): the region partitioner's message counts, and its wall time on
//! one 64 Ki-buffer inode.

use std::sync::Arc;
use std::time::Instant;
use wafl::cleaner::{partition_work, CleanerConfig};
use wafl::{DirtyBuffer, FileId, Volume, VolumeId};
use wafl_bench::{emit, gain_pct, platform};
use wafl_simsrv::{CleanerSetting, FigureTable, Simulator, WorkloadKind};

fn main() {
    let mut t = FigureTable::new(
        "exp_region_split",
        "single-file workload: multiple cleaners per inode via region split",
    );

    // Simulator: without region split, one inode's dirty buffers are a
    // single cleaning stream (1 cleaner); with region split, N cleaners
    // share the inode.
    let mut without = platform(WorkloadKind::sequential_write());
    without.cleaners = CleanerSetting::Fixed(1);
    let r_without = Simulator::new(without).run();
    let mut with = platform(WorkloadKind::sequential_write());
    with.cleaners = CleanerSetting::Fixed(4);
    let r_with = Simulator::new(with).run();
    t.row_measured(
        "throughput, inode-granular cleaning (1 cleaner)",
        r_without.throughput_ops,
        "ops/s",
    );
    t.row_measured(
        "throughput, region split (4 cleaners, one inode)",
        r_with.throughput_ops,
        "ops/s",
    );
    t.row_measured(
        "single-file parallel-cleaning gain",
        gain_pct(r_with.throughput_ops, r_without.throughput_ops),
        "%",
    );

    // Real partitioner: one 4096-buffer inode.
    let vol = Volume::new(VolumeId(0), 0, 1 << 20);
    vol.create_file(FileId(1));
    let cfg = CleanerConfig::default();
    let items = partition_work(vec![(Arc::clone(&vol), FileId(1), dirty(4096))], &cfg);
    t.row_measured(
        "cleaner messages for one 4096-buffer inode",
        items.len() as f64,
        "messages",
    );
    t.row_measured(
        "buffers per region message",
        cfg.region_size as f64,
        "buffers",
    );

    // Partition cost for one 64 Ki-buffer inode (best of 20): regions are
    // index ranges of the frozen slice, so this is one job per region.
    let big = dirty(64 * 1024);
    let best = (0..20)
        .map(|_| {
            let t0 = Instant::now();
            let items = partition_work(vec![(Arc::clone(&vol), FileId(1), Arc::clone(&big))], &cfg);
            let ns = t0.elapsed().as_nanos() as f64;
            assert_eq!(items.len(), big.len().div_ceil(cfg.region_size));
            ns
        })
        .fold(f64::INFINITY, f64::min);
    t.row_measured(
        "wall time to partition one 64 Ki-buffer inode (best of 20)",
        best / 1e3,
        "us",
    );
    emit(&t);
}

/// A frozen slice of `n` first-write buffers.
fn dirty(n: u64) -> Arc<[DirtyBuffer]> {
    (0..n)
        .map(|fbn| DirtyBuffer::first_write(fbn, wafl_blockdev::stamp(1, fbn, 1)))
        .collect()
}
