//! The workloads: sizes, configuration, and seeded op generators.
//!
//! All workloads run on SSD in-memory drives in two RAID groups of four
//! data drives and one parity drive, with two closed-loop client
//! threads, two cleaner threads and a one-thread Waffinity pool. A
//! client owns a disjoint set of blocks and is their only writer, so the
//! last acknowledged stamp of every block is known exactly.

use std::sync::atomic::{AtomicU32, Ordering};
use wafl_blockdev::{stamp, BlockStamp};

/// Client threads per run.
pub const CLIENTS: usize = 2;
/// Cleaner threads per run.
pub const CLEANERS: usize = 2;
/// Waffinity pool threads per run.
pub const WAFFINITY_THREADS: usize = 1;
/// Data drives per RAID group (each group also has one parity drive).
pub const DATA_DRIVES: u32 = 4;
/// RAID groups in the aggregate.
pub const RAID_GROUPS: u32 = 2;

/// What the clients do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pattern {
    /// Each client overwrites its own files in order, again and again.
    Sequential,
    /// `reads` reads to `writes` writes of single blocks, uniformly at
    /// random: writes over the client's own files, reads over all files.
    Mix { reads: u64, writes: u64 },
}

/// One workload at one scale.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Name as given on the command line.
    pub name: &'static str,
    /// Client access pattern.
    pub pattern: Pattern,
    /// Files per client.
    pub files_per_client: u64,
    /// Blocks per file (all prefilled during set-up).
    pub file_blocks: u64,
    /// Blocks per drive.
    pub blocks_per_drive: u64,
    /// Ops per NVLog half.
    pub nvlog_half: u64,
    /// `FsConfig::io_queue_depth`.
    pub io_queue_depth: usize,
    /// Mirror every media write into per-drive files (barrier sync).
    pub file_backend: bool,
    /// Blocks read back from a remount of the file backend.
    pub remount_sample: u64,
}

/// Every workload the program runs. `BENCHMARK.json` lists all but
/// `oltp_mix`, which fails its correctness check on two program defects
/// (see `perfbench/README.md`), and `file_backend_seq`, whose drive files
/// land on the checkout's disk: on a shared virtual disk its figures
/// measure the neighbours' I/O.
pub const NAMES: [&str; 4] = ["seq_overwrite", "oltp_mix", "aio_seq", "file_backend_seq"];

const KI: u64 = 1024;

impl Spec {
    /// The workload `name` at full size, or divided by `shrink` (a power
    /// of two) for quick self-tests.
    pub fn named(name: &str, shrink: u64) -> Option<Spec> {
        let seq = Spec {
            name: "seq_overwrite",
            pattern: Pattern::Sequential,
            files_per_client: 2,
            file_blocks: 64 * KI,
            blocks_per_drive: 56 * KI,
            nvlog_half: 64 * KI,
            io_queue_depth: 0,
            file_backend: false,
            remount_sample: 0,
        };
        let spec = match name {
            "seq_overwrite" => seq,
            "oltp_mix" => Spec {
                name: "oltp_mix",
                pattern: Pattern::Mix {
                    reads: 2,
                    writes: 1,
                },
                files_per_client: 2048,
                file_blocks: 128,
                blocks_per_drive: 128 * KI,
                nvlog_half: 32 * KI,
                ..seq
            },
            "aio_seq" => Spec {
                name: "aio_seq",
                io_queue_depth: 8,
                ..seq
            },
            "file_backend_seq" => Spec {
                name: "file_backend_seq",
                io_queue_depth: 8,
                file_backend: true,
                remount_sample: 4 * KI,
                ..seq
            },
            _ => return None,
        };
        Some(spec.shrunk(shrink))
    }

    fn shrunk(mut self, shrink: u64) -> Spec {
        assert!(shrink.is_power_of_two(), "shrink must be a power of two");
        // Many small files shrink in count, few large ones in length.
        if self.file_blocks >= 1024 {
            self.file_blocks /= shrink;
        } else {
            self.files_per_client = (self.files_per_client / shrink).max(1);
        }
        self.blocks_per_drive = (self.blocks_per_drive / shrink).max(1024);
        self.nvlog_half = (self.nvlog_half / shrink).max(64);
        self.remount_sample = self.remount_sample.min(self.blocks()) / shrink.min(8);
        self
    }

    /// Blocks across all clients' files.
    pub fn blocks(&self) -> u64 {
        CLIENTS as u64 * self.files_per_client * self.file_blocks
    }

    /// Dense index of `(file, fbn)` over all clients' blocks.
    pub fn block(&self, file: u64, fbn: u64) -> usize {
        (file * self.file_blocks + fbn) as usize
    }
}

/// The stamp a write of generation `generation` gives `(file, fbn)`.
pub fn block_stamp(file: u64, fbn: u64, generation: u32) -> BlockStamp {
    stamp(file, fbn, generation as u64)
}

/// Last acknowledged generation of every block. Each block has exactly
/// one writer (its owning client), which stores the generation only
/// after `Filesystem::write` returned.
pub struct Acked(Vec<AtomicU32>);

impl Acked {
    /// Every block at generation `generation` (the prefill).
    pub fn new(blocks: u64, generation: u32) -> Self {
        Self((0..blocks).map(|_| AtomicU32::new(generation)).collect())
    }

    /// Generation last acknowledged for block `b`.
    pub fn get(&self, b: usize) -> u32 {
        // ordering: Acquire pairs with the owner's Release in `set`, so
        // a reader that sees generation g also sees write g acknowledged.
        self.0[b].load(Ordering::Acquire)
    }

    /// Record generation `generation` of block `b` as acknowledged.
    pub fn set(&self, b: usize, generation: u32) {
        // ordering: Release — published after the write returned;
        // pairs with `get`.
        self.0[b].store(generation, Ordering::Release);
    }
}

/// SplitMix64: a small seeded generator.
pub struct Rng(u64);

impl Rng {
    /// Generator for stream `stream` of `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// One generated client op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Write the next generation of `(file, fbn)`.
    Write { file: u64, fbn: u64 },
    /// Read `(file, fbn)`.
    Read { file: u64, fbn: u64 },
}

/// A client's op stream: a pure function of the seed and client index.
pub struct OpGen {
    pattern: Pattern,
    client: usize,
    files: u64,
    file_blocks: u64,
    all_files: u64,
    rng: Rng,
    /// Sequential cursor over the client's blocks.
    cursor: u64,
}

impl OpGen {
    /// Op stream of `client` under `seed`.
    pub fn new(spec: &Spec, seed: u64, client: usize) -> Self {
        let mut rng = Rng::new(seed, client as u64 + 1);
        let own = spec.files_per_client * spec.file_blocks;
        let cursor = rng.below(own);
        Self {
            pattern: spec.pattern,
            client,
            files: spec.files_per_client,
            file_blocks: spec.file_blocks,
            all_files: CLIENTS as u64 * spec.files_per_client,
            rng,
            cursor,
        }
    }

    fn own(&self, i: u64) -> (u64, u64) {
        let file = self.client as u64 * self.files + i / self.file_blocks;
        (file, i % self.file_blocks)
    }

    /// The next op.
    pub fn next_op(&mut self) -> Op {
        let own = self.files * self.file_blocks;
        match self.pattern {
            Pattern::Sequential => {
                let (file, fbn) = self.own(self.cursor);
                self.cursor = (self.cursor + 1) % own;
                Op::Write { file, fbn }
            }
            Pattern::Mix { reads, writes } => {
                if self.rng.below(reads + writes) < writes {
                    let i = self.rng.below(own);
                    let (file, fbn) = self.own(i);
                    Op::Write { file, fbn }
                } else {
                    let file = self.rng.below(self.all_files);
                    let fbn = self.rng.below(self.file_blocks);
                    Op::Read { file, fbn }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_ops_and_clients_write_only_their_own_files() {
        for name in NAMES {
            let spec = Spec::named(name, 64).expect("known workload");
            for client in 0..CLIENTS {
                let mut a = OpGen::new(&spec, 7, client);
                let mut b = OpGen::new(&spec, 7, client);
                let mut c = OpGen::new(&spec, 8, client);
                let a: Vec<Op> = (0..2000).map(|_| a.next_op()).collect();
                let b: Vec<Op> = (0..2000).map(|_| b.next_op()).collect();
                let c: Vec<Op> = (0..2000).map(|_| c.next_op()).collect();
                assert_eq!(a, b);
                assert_ne!(a, c);
                for op in a {
                    if let Op::Write { file, fbn } = op {
                        assert_eq!(file / spec.files_per_client, client as u64);
                        assert!(fbn < spec.file_blocks);
                    }
                }
            }
        }
    }

    #[test]
    fn full_sizes_match_the_documented_fill() {
        let seq = Spec::named("seq_overwrite", 1).expect("known");
        assert_eq!(seq.blocks(), 256 * KI);
        let oltp = Spec::named("oltp_mix", 1).expect("known");
        assert_eq!(oltp.blocks(), 512 * KI);
        assert_eq!(CLIENTS as u64 * oltp.files_per_client, 4096);
        let fb = Spec::named("file_backend_seq", 1).expect("known");
        let bytes = fb.blocks_per_drive * (RAID_GROUPS * DATA_DRIVES) as u64 * 4096;
        assert!(bytes < 2 << 30, "file backend footprint stays under 2 GiB");
    }
}
