//! Real-thread concurrency stress: clients write while CPs run on a
//! Waffinity pool with multiple cleaner threads. Validates the MP-safety
//! invariants of DESIGN.md §8 under genuine interleaving.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use wafl::{ExecMode, FileId, Filesystem, FsConfig, VolumeId};
use wafl_blockdev::{stamp, DriveKind, GeometryBuilder};

fn big_fs() -> Arc<Filesystem> {
    let mut cfg = FsConfig::default();
    cfg.cleaner.threads = 4;
    Arc::new(Filesystem::new(
        cfg,
        GeometryBuilder::new()
            .aa_stripes(256)
            .raid_group(4, 1, 64 * 1024)
            .build(),
        DriveKind::Ssd,
        ExecMode::Pool(3),
    ))
}

#[test]
fn concurrent_writers_with_back_to_back_cps() {
    let fs = big_fs();
    fs.create_volume(VolumeId(0));
    const WRITERS: u64 = 4;
    const FILES_PER_WRITER: u64 = 4;
    const BLOCKS: u64 = 64;
    for w in 0..WRITERS {
        for f in 0..FILES_PER_WRITER {
            fs.create_file(VolumeId(0), FileId(w * FILES_PER_WRITER + f));
        }
    }
    let stop = Arc::new(AtomicBool::new(false));
    let generations = Arc::new(AtomicU64::new(0));

    let mut handles = Vec::new();
    for w in 0..WRITERS {
        let fs = Arc::clone(&fs);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let mut generation = 1u64;
            // ordering: shutdown flag; no data is published through it.
            while !stop.load(Ordering::Relaxed) {
                for f in 0..FILES_PER_WRITER {
                    let file = FileId(w * FILES_PER_WRITER + f);
                    for fbn in 0..BLOCKS {
                        fs.write(VolumeId(0), file, fbn, stamp(file.0, fbn, generation));
                    }
                }
                generation += 1;
            }
            generation
        }));
    }

    // CP thread: run CPs continuously while writers are active.
    let cp_fs = Arc::clone(&fs);
    let cp_stop = Arc::clone(&stop);
    let cp_handle = std::thread::spawn(move || {
        let mut cps = 0u32;
        // ordering: shutdown flag; no data is published through it.
        while !cp_stop.load(Ordering::Relaxed) {
            cp_fs.run_cp();
            cps += 1;
        }
        cps
    });

    std::thread::sleep(std::time::Duration::from_millis(400));
    // ordering: shutdown flag; no data is published through it.
    stop.store(true, Ordering::Relaxed);
    let gens: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let cps = cp_handle.join().unwrap();
    // ordering: statistics counter; staleness is acceptable.
    generations.store(gens.iter().copied().min().unwrap(), Ordering::Relaxed);
    assert!(cps > 0, "at least one CP ran");

    // Final CP: all acknowledged data becomes durable.
    fs.run_cp();
    fs.verify_integrity().unwrap();

    // Every block holds *some complete generation's* stamp for its file
    // (writes are per-block atomic; the logical view can't interleave
    // within a block).
    for w in 0..WRITERS {
        for f in 0..FILES_PER_WRITER {
            let file = FileId(w * FILES_PER_WRITER + f);
            for fbn in 0..BLOCKS {
                let got = fs.read(VolumeId(0), file, fbn).expect("block exists");
                let max_gen = gens[w as usize] + 1;
                let valid = (1..=max_gen).any(|g| got == stamp(file.0, fbn, g));
                assert!(
                    valid,
                    "file {file:?} fbn {fbn} holds a stamp from no generation"
                );
            }
        }
    }
}

#[test]
fn writes_racing_a_cp_are_never_lost() {
    let fs = big_fs();
    fs.create_volume(VolumeId(0));
    fs.create_file(VolumeId(0), FileId(7));
    // Seed with generation 1.
    for fbn in 0..512 {
        fs.write(VolumeId(0), FileId(7), fbn, stamp(7, fbn, 1));
    }
    // Writer races the CP with generation 2.
    let w_fs = Arc::clone(&fs);
    let writer = std::thread::spawn(move || {
        for fbn in 0..512 {
            w_fs.write(VolumeId(0), FileId(7), fbn, stamp(7, fbn, 2));
        }
    });
    fs.run_cp();
    writer.join().unwrap();
    // Whatever the race outcome, a second CP commits generation 2 fully.
    fs.run_cp();
    for fbn in 0..512 {
        assert_eq!(
            fs.read_persisted(VolumeId(0), FileId(7), fbn),
            Some(stamp(7, fbn, 2)),
            "generation 2 lost at fbn {fbn}"
        );
    }
    fs.verify_integrity().unwrap();
}

/// Two clients write one file while CPs run back to back, and the system
/// crashes at a random instant. A write lists its inode as dirty only
/// when it takes the inode from clean to dirty, so the listing must
/// happen under the inode lock: otherwise the other client can find the
/// inode dirty, skip the listing, and log into an NVLog half that a CP
/// which never saw the inode then discards.
#[test]
fn acked_writes_to_a_shared_file_survive_a_crash_mid_cp() {
    const WRITERS: u64 = 2;
    const BLOCKS: u64 = 16; // per writer, disjoint
    const CRASHES: u64 = 6;
    let (vol, file) = (VolumeId(0), FileId(1));
    let mut rng = ChaCha12Rng::seed_from_u64(0x5eed);
    for crash in 0..CRASHES {
        let fs = big_fs();
        fs.create_volume(vol);
        fs.create_file(vol, file);
        let stop = Arc::new(AtomicBool::new(false));
        // acked[fbn]: the last generation whose write to fbn returned.
        let acked: Arc<Vec<AtomicU64>> =
            Arc::new((0..WRITERS * BLOCKS).map(|_| AtomicU64::new(0)).collect());
        let mut handles = Vec::new();
        for w in 0..WRITERS {
            let (fs, stop, acked) = (Arc::clone(&fs), Arc::clone(&stop), Arc::clone(&acked));
            handles.push(std::thread::spawn(move || {
                let mut generation = 1;
                // ordering: shutdown flag; no data is published through it.
                while !stop.load(Ordering::Relaxed) {
                    for fbn in w * BLOCKS..(w + 1) * BLOCKS {
                        fs.write(vol, file, fbn, stamp(file.0, fbn, generation));
                        // ordering: Release — the acknowledged write (and
                        // its NVLog entry) precedes the published
                        // generation; pairs-with: test.acked.
                        acked[fbn as usize].store(generation, Ordering::Release);
                    }
                    generation += 1;
                }
            }));
        }
        let (cp_fs, cp_stop) = (Arc::clone(&fs), Arc::clone(&stop));
        handles.push(std::thread::spawn(move || {
            // ordering: shutdown flag; no data is published through it.
            while !cp_stop.load(Ordering::Relaxed) {
                cp_fs.run_cp();
            }
        }));
        std::thread::sleep(Duration::from_micros(rng.gen_range(500..20_000)));
        // The crash: what was acknowledged by now must survive it.
        let before: Vec<u64> = acked
            .iter()
            // ordering: Acquire — sees every write the generation covers;
            // pairs-with: test.acked.
            .map(|a| a.load(Ordering::Acquire))
            .collect();
        let r = fs.crash_and_recover(ExecMode::Inline);
        // ordering: shutdown flag; no data is published through it.
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        for (fbn, (&want, last)) in (0..).zip(before.iter().zip(acked.iter())) {
            // ordering: the writers have joined; a plain read.
            let last = last.load(Ordering::Relaxed);
            let got = r.read(vol, file, fbn);
            assert!(
                want == 0 || (want..=last).any(|g| got == Some(stamp(file.0, fbn, g))),
                "crash {crash}: fbn {fbn} lost generation {want} (read {got:?})"
            );
        }
    }
}

#[test]
fn region_split_cleans_one_large_inode_with_many_cleaners() {
    // §IV-A: multiple cleaner threads on different regions of one inode.
    let mut cfg = FsConfig::default();
    cfg.cleaner.threads = 4;
    cfg.cleaner.region_split_threshold = 128;
    cfg.cleaner.region_size = 64;
    let fs = Filesystem::new(
        cfg,
        GeometryBuilder::new()
            .aa_stripes(256)
            .raid_group(4, 1, 64 * 1024)
            .build(),
        DriveKind::Ssd,
        ExecMode::Pool(2),
    );
    fs.create_volume(VolumeId(0));
    fs.create_file(VolumeId(0), FileId(1));
    for fbn in 0..2000 {
        fs.write(VolumeId(0), FileId(1), fbn, stamp(1, fbn, 1));
    }
    let r = fs.run_cp();
    assert_eq!(r.buffers_cleaned, 2000);
    assert!(
        r.cleaner_messages >= 2000 / 64,
        "large inode split into region messages: {}",
        r.cleaner_messages
    );
    for fbn in (0..2000).step_by(97) {
        assert_eq!(
            fs.read_persisted(VolumeId(0), FileId(1), fbn),
            Some(stamp(1, fbn, 1))
        );
    }
    fs.verify_integrity().unwrap();
}

#[test]
fn dynamic_active_limit_changes_mid_flight() {
    let fs = big_fs();
    fs.create_volume(VolumeId(0));
    fs.create_file(VolumeId(0), FileId(1));
    for round in 1..=4u64 {
        for fbn in 0..500 {
            fs.write(VolumeId(0), FileId(1), fbn, stamp(1, fbn, round));
        }
        fs.cleaner_pool()
            .set_active_limit(((round % 4) + 1) as usize);
        fs.run_cp();
    }
    fs.cleaner_pool().set_active_limit(4);
    fs.verify_integrity().unwrap();
}
