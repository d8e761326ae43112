//! Fault-torture suite for the online scrubber.
//!
//! Seeds every corruption class the scrubber claims to handle — media
//! bit-flips, bad parity, stale/missing active-map bits, AA summary
//! skew, dead drives, transient read faults — and asserts the full
//! detect → quarantine → repair → re-verify pipeline: 100 % detection,
//! repair via redundancy, a clean re-scan afterwards, and zero findings
//! on uncorrupted images. Also exercises the checkpoint cursor across
//! `crash_and_recover` and the scrub running online against an active
//! cleaner pool.

use std::collections::{BTreeMap, BTreeSet};

use wafl::scrub::{FindingState, ScrubCheckpoint, ScrubCheckpointStore, ScrubConfig};
use wafl::{ExecMode, FileId, Filesystem, FsConfig, VolumeId};
use wafl_blockdev::{
    stamp, BlockStamp, Dbn, DriveKind, FaultSpec, GeometryBuilder, RetryPolicy, Vbn,
};

const FBNS: u64 = 48;
/// Extra fills a test may commit to get fully referenced stripes.
const EXTRA_FILLS: u64 = 8;

/// Two RAID groups of (3 data + 1 parity) × 1024 blocks, 64-stripe AAs:
/// 16 AAs per group, 32 scrub units.
fn mk_fs(exec: ExecMode) -> Filesystem {
    let cfg = FsConfig {
        vvbn_per_volume: 1 << 14,
        ..FsConfig::default()
    };
    let fs = Filesystem::new(
        cfg,
        GeometryBuilder::new()
            .aa_stripes(64)
            .raid_group(3, 1, 1024)
            .raid_group(3, 1, 1024)
            .build(),
        DriveKind::Ssd,
        exec,
    );
    fs.create_volume(VolumeId(0));
    fs.create_volume(VolumeId(1));
    fs
}

/// Fill `files` × `FBNS` blocks of `vol` and commit a CP.
fn fill(fs: &Filesystem, vol: VolumeId, files: u64, generation: u64) {
    fill_files(fs, vol, 0..files, generation);
}

/// Fill `FBNS` blocks of each new file in `ids` and commit a CP.
fn fill_files(fs: &Filesystem, vol: VolumeId, ids: std::ops::Range<u64>, generation: u64) {
    for f in ids {
        fs.create_file(vol, FileId(f));
        for fbn in 0..FBNS {
            fs.write(vol, FileId(f), fbn, stamp(f, fbn, generation));
        }
    }
    fs.run_cp();
}

/// After `fill(fs, vol, files, generation)`: commit further fills of
/// `files` fresh files, one CP each, until `vol` alone fully references
/// at least `want` stripes. A small CP can spread one refill round
/// across both RAID groups (cleaner i homes on shard i % nshards) and
/// leave no stripe fully referenced.
fn fill_until_full_stripes(
    fs: &Filesystem,
    vol: VolumeId,
    files: u64,
    generation: u64,
    want: usize,
) {
    let mut extra = 0;
    loop {
        let refs: BTreeSet<u64> = image_refs(fs, vol).into_keys().collect();
        if full_stripes(fs, &refs).len() >= want {
            return;
        }
        assert!(
            extra < EXTRA_FILLS,
            "fewer than {want} fully referenced stripes after {EXTRA_FILLS} extra fills"
        );
        extra += 1;
        fill_files(fs, vol, extra * files..(extra + 1) * files, generation);
    }
}

/// vbn → expected stamp for every file block the committed image
/// references in `vol`.
fn image_refs(fs: &Filesystem, vol: VolumeId) -> BTreeMap<u64, BlockStamp> {
    let img = fs.committed_image().expect("at least one CP committed");
    let mut refs = BTreeMap::new();
    for vi in &img.volumes {
        if vi.id != vol {
            continue;
        }
        for (_f, blocks) in &vi.files {
            for (_fbn, ptr) in blocks {
                refs.insert(ptr.pvbn.0, ptr.stamp);
            }
        }
    }
    refs
}

/// All referenced vbns (any volume) plus metafile blocks.
fn all_refs(fs: &Filesystem) -> BTreeSet<u64> {
    let img = fs.committed_image().expect("at least one CP committed");
    let mut refs = BTreeSet::new();
    for vi in &img.volumes {
        for (_f, blocks) in &vi.files {
            for (_fbn, ptr) in blocks {
                refs.insert(ptr.pvbn.0);
            }
        }
    }
    for ((_src, _blk), vbn) in &img.metafile_locs {
        refs.insert(vbn.0);
    }
    refs
}

/// vbn → expected stamp for every file block of every volume.
fn all_file_refs(fs: &Filesystem) -> BTreeMap<u64, BlockStamp> {
    let img = fs.committed_image().expect("at least one CP committed");
    let mut refs = BTreeMap::new();
    for vi in &img.volumes {
        for (_f, blocks) in &vi.files {
            for (_fbn, ptr) in blocks {
                refs.insert(ptr.pvbn.0, ptr.stamp);
            }
        }
    }
    refs
}

/// Overwrite the media stamp at `vbn` (a seeded bit-flip / torn write).
fn corrupt_stamp(fs: &Filesystem, vbn: u64, bad: BlockStamp) {
    let loc = fs.io().geometry().locate(Vbn(vbn)).expect("valid vbn");
    let group = fs.io().raid_group(loc.rg);
    group.data_drives()[loc.drive_in_rg as usize].repair_write(loc.dbn, &[bad]);
}

/// Every stripe `(rg_index, dbn)` whose data blocks are all in `refs`.
fn full_stripes(fs: &Filesystem, refs: &BTreeSet<u64>) -> Vec<(u32, u64)> {
    let geo = fs.io().geometry();
    let mut out = Vec::new();
    for rg in geo.rg_ids() {
        let group = fs.io().raid_group(rg);
        let drives = group.data_drives().len() as u32;
        for dbn in 0..group.geometry().blocks_per_drive {
            if (0..drives).all(|d| refs.contains(&geo.vbn_at(rg, d, Dbn(dbn)).0)) {
                out.push((rg.0, dbn));
            }
        }
    }
    out
}

/// Find a stripe whose every data block is in `refs` (so a seeded
/// parity corruption cannot be "fixed" by a concurrent full-stripe
/// write), excluding one stripe. Returns `(rg_index, dbn)`.
fn referenced_stripe(
    fs: &Filesystem,
    refs: &BTreeSet<u64>,
    exclude: Option<(u32, u64)>,
) -> (u32, u64) {
    full_stripes(fs, refs)
        .into_iter()
        .find(|&s| Some(s) != exclude)
        .expect("no fully referenced stripe anywhere")
}

/// XOR-corrupt the parity block of `(rg, dbn)`.
fn corrupt_parity(fs: &Filesystem, rg_index: u32, dbn: u64) {
    let group = fs.io().raid_group(wafl_blockdev::RaidGroupId(rg_index));
    let cur = group.parity_drives()[0].peek(Dbn(dbn));
    group.parity_drives()[0].repair_write(Dbn(dbn), &[cur ^ 0xBAD_F00D]);
}

/// A free, unreferenced vbn scanned from the top of the address space
/// (the allocator fills from the emptiest AAs, so high free vbns in a
/// mostly-full low region stay untouched).
fn free_unreferenced_vbn(fs: &Filesystem, refs: &BTreeSet<u64>) -> u64 {
    let aggmap = fs.allocator().infra().aggmap();
    let total = fs.io().geometry().total_vbns();
    for vbn in (0..total).rev() {
        if !refs.contains(&vbn) && !aggmap.is_used(Vbn(vbn)) {
            return vbn;
        }
    }
    panic!("no free unreferenced vbn");
}

/// The scrub-unit index (pass cursor position) covering `vbn`.
fn unit_of(fs: &Filesystem, vbn: u64) -> usize {
    let geo = fs.io().geometry();
    let loc = geo.locate(Vbn(vbn)).expect("valid vbn");
    let aa = geo.aa_of(Vbn(vbn));
    let mut idx = 0usize;
    for rg in geo.rg_ids() {
        if rg == loc.rg {
            return idx + aa.index as usize;
        }
        idx += geo.aa_count(rg) as usize;
    }
    unreachable!("vbn located in an unknown raid group");
}

fn finding_keys(report: &wafl::ScrubReport) -> BTreeSet<String> {
    report.findings.iter().map(|f| f.error.key()).collect()
}

fn assert_all_reverified(report: &wafl::ScrubReport) {
    for f in &report.findings {
        assert_eq!(
            f.state,
            FindingState::Reverified,
            "finding not re-verified: {} ({:?})",
            f.error,
            f.state
        );
    }
}

#[test]
fn clean_image_scrub_reports_nothing() {
    let fs = mk_fs(ExecMode::Inline);
    fill(&fs, VolumeId(0), 4, 1);
    fill(&fs, VolumeId(1), 3, 2);
    let store = ScrubCheckpointStore::new();
    let report = fs.scrub(&ScrubConfig::default(), &store);
    assert!(report.completed, "pass ran to the end");
    assert_eq!(report.units_scanned, report.units_total);
    assert!(report.blocks_checked > 0);
    assert!(
        report.is_clean(),
        "clean image produced findings: {:?}",
        report.findings
    );
    assert_eq!(report.false_alarms, 0, "quiesced clean scan saw no races");
}

#[test]
fn scrub_detects_and_repairs_every_seeded_corruption_class() {
    let fs = mk_fs(ExecMode::Inline);
    fill(&fs, VolumeId(0), 4, 1);
    fill(&fs, VolumeId(1), 3, 2);
    // Two, so one survives excluding the bit-flip's stripe below.
    fill_until_full_stripes(&fs, VolumeId(1), 3, 2, 2);
    let refs1 = image_refs(&fs, VolumeId(1));
    let all = all_refs(&fs);
    let aggmap = fs.allocator().infra().aggmap();

    // Class 1: media bit-flip on a referenced block (also breaks its
    // stripe's parity — the collateral parity finding is real too).
    let (&flip_vbn, &flip_stamp) = refs1.iter().nth(refs1.len() / 2).expect("vol 1 has blocks");
    corrupt_stamp(&fs, flip_vbn, flip_stamp ^ 0xDEAD_BEEF);
    let flip_loc = fs.io().geometry().locate(Vbn(flip_vbn)).unwrap();

    // Class 2: bad parity on a fully referenced stripe (excluding the
    // bit-flip's stripe, whose parity finding is its collateral).
    let vol1_set: BTreeSet<u64> = refs1.keys().copied().collect();
    let (parity_rg, parity_dbn) =
        referenced_stripe(&fs, &vol1_set, Some((flip_loc.rg.0, flip_loc.dbn.0)));
    corrupt_parity(&fs, parity_rg, parity_dbn);

    // Class 3: stale active-map bit (leak) — bit set behind the AA
    // summary's back, so the same unit also has AA counter skew.
    let stale_vbn = free_unreferenced_vbn(&fs, &all);
    aggmap.active_map().reserve(stale_vbn).expect("was free");

    // Class 4: missing active-map bit (refcount skew toward free) on a
    // referenced block, again skewing its AA summary.
    let (&miss_vbn, _) = refs1
        .iter()
        .find(|(v, _)| unit_of(&fs, **v) != unit_of(&fs, stale_vbn) && **v != flip_vbn)
        .expect("a referenced block outside the stale unit");
    aggmap.active_map().free(miss_vbn).expect("was used");

    let store = ScrubCheckpointStore::new();
    let report = fs.scrub(&ScrubConfig::default(), &store);

    let keys = finding_keys(&report);
    let required = [
        format!("stamp:vbn={flip_vbn}"),
        format!("parity:rg={parity_rg}:dbn={parity_dbn}"),
        format!("stalebit:vbn={stale_vbn}"),
        format!("missbit:vbn={miss_vbn}"),
    ];
    for k in &required {
        assert!(
            keys.contains(k),
            "seeded corruption undetected: {k}; got {keys:?}"
        );
    }
    // Everything else reported must be a real collateral of the seeds:
    // the bit-flip's stripe parity, and the AA summary skew of the two
    // bitmap seeds.
    let flip_parity = format!("parity:rg={}:dbn={}", flip_loc.rg.0, flip_loc.dbn.0);
    let geo = fs.io().geometry();
    let stale_aa = geo.aa_of(Vbn(stale_vbn));
    let miss_aa = geo.aa_of(Vbn(miss_vbn));
    let mut allowed: BTreeSet<String> = required.iter().cloned().collect();
    allowed.insert(flip_parity);
    allowed.insert(format!("aaskew:rg={}:aa={}", stale_aa.rg.0, stale_aa.index));
    allowed.insert(format!("aaskew:rg={}:aa={}", miss_aa.rg.0, miss_aa.index));
    for k in &keys {
        assert!(allowed.contains(k), "false positive finding: {k}");
    }

    assert_all_reverified(&report);
    assert!(report.repaired() >= required.len() as u64);

    // Repairs restored every invariant: full integrity check (stamps,
    // bitmap vs trees, AA summaries, raw parity scrub) passes, and a
    // fresh scrub pass is clean.
    fs.verify_integrity().expect("post-repair integrity");
    let second = fs.scrub(&ScrubConfig::default(), &store);
    assert!(
        second.is_clean(),
        "re-scan after repair found: {:?}",
        second.findings
    );
}

#[test]
fn scrub_retries_through_transient_read_faults_without_false_positives() {
    let cfg = FsConfig {
        vvbn_per_volume: 1 << 14,
        ..FsConfig::default()
    };
    // 2 % transient read-error rate: heavy enough to force retries,
    // far below any chance of exhausting the retry budget.
    let fs = Filesystem::with_faults(
        cfg,
        GeometryBuilder::new()
            .aa_stripes(64)
            .raid_group(3, 1, 1024)
            .build(),
        DriveKind::Ssd,
        FaultSpec {
            seed: 0x5eed,
            read_error_ppm: 20_000,
            ..FaultSpec::default()
        },
        RetryPolicy::default(),
        ExecMode::Inline,
    );
    fs.create_volume(VolumeId(0));
    fill(&fs, VolumeId(0), 4, 1);

    let store = ScrubCheckpointStore::new();
    let scfg = ScrubConfig {
        retry: RetryPolicy {
            backoff_base_ns: 1_000, // keep the test fast
            ..RetryPolicy::default()
        },
        ..ScrubConfig::default()
    };
    let retries_before = fs.io().fault_snapshot().io_retries;
    let report = fs.scrub(&scfg, &store);
    assert!(report.completed);
    assert!(
        report.is_clean(),
        "transient faults must not become findings: {:?}",
        report.findings
    );
    // Scrub reads flow through the RAID layer's RetryPolicy; a 2 %
    // fault rate over thousands of block reads must have retried.
    let retries_after = fs.io().fault_snapshot().io_retries;
    assert!(
        retries_after > retries_before,
        "2 % read-fault rate must exercise the bounded retry path"
    );
}

#[test]
fn dead_drive_mid_scrub_is_detected_rebuilt_and_reverified() {
    let fs = mk_fs(ExecMode::Inline);
    fill(&fs, VolumeId(0), 4, 1);
    fill(&fs, VolumeId(1), 3, 2);
    let refs = all_file_refs(&fs);

    // Derive the slice boundary from where the allocator actually put
    // the data: corrupt a stamp in the *last* populated unit so its
    // detection happens while the group is degraded.
    let geo = fs.io().geometry();
    let last_unit = refs
        .keys()
        .map(|v| unit_of(&fs, *v))
        .max()
        .expect("image has file blocks");
    assert!(last_unit > 0, "fill spans more than one scrub unit");
    let (&late_vbn, &late_stamp) = refs
        .iter()
        .find(|(v, _)| unit_of(&fs, **v) == last_unit)
        .expect("a referenced block in the last populated unit");
    corrupt_stamp(&fs, late_vbn, late_stamp ^ 0xF00D);

    // Scan up to (but not into) the corrupted unit, then kill a drive
    // "mid-scrub".
    let store = ScrubCheckpointStore::new();
    let first = fs.scrub(
        &ScrubConfig {
            unit_budget: Some(last_unit),
            ..ScrubConfig::default()
        },
        &store,
    );
    assert!(!first.completed);
    let dead_loc = geo.locate(Vbn(late_vbn)).unwrap();
    let group = fs.io().raid_group(dead_loc.rg);
    // Kill a *different* drive of the same group, so the corrupted
    // block stays directly readable while the group is degraded.
    let dead_in_rg = (dead_loc.drive_in_rg + 1) % group.data_drives().len() as u32;
    let dead_id = group.data_drives()[dead_in_rg as usize].id().0;
    group.data_drives()[dead_in_rg as usize].take_offline();

    // Resume: the scrubber must report the dead drive, rebuild it via
    // the degraded path, and still catch the stamp corruption.
    let second = fs.scrub(&ScrubConfig::default(), &store);
    assert_eq!(second.resumed_from, Some(last_unit as u64));
    assert!(second.completed);
    let keys = finding_keys(&second);
    assert!(
        keys.contains(&format!("dead:drive={dead_id}")),
        "dead drive unreported: {keys:?}"
    );
    assert!(
        keys.contains(&format!("stamp:vbn={late_vbn}")),
        "degraded-mode stamp detection failed: {keys:?}"
    );
    assert_all_reverified(&second);
    assert!(fs.io().offline_drives().is_empty(), "drive rebuilt online");
    assert!(
        fs.io().fault_snapshot().blocks_rebuilt > 0,
        "rebuild progress counter advanced"
    );
    fs.verify_integrity().expect("post-rebuild integrity");
}

#[test]
fn interrupted_scrub_resumes_from_checkpoint_across_crash() {
    let fs = mk_fs(ExecMode::Inline);
    fill(&fs, VolumeId(0), 4, 1);
    fill(&fs, VolumeId(1), 3, 2);
    let refs = all_file_refs(&fs);

    // Derive the slice boundary from where the allocator actually put
    // the data: one corruption in the first populated unit, one in the
    // last, with the checkpoint cursor parked between them.
    let units: BTreeSet<usize> = refs.keys().map(|v| unit_of(&fs, *v)).collect();
    let first_unit = *units.first().expect("image has file blocks");
    let last_unit = *units.last().expect("image has file blocks");
    assert!(
        last_unit > first_unit,
        "fill spans more than one scrub unit"
    );
    let (&early_vbn, &early_stamp) = refs
        .iter()
        .find(|(v, _)| unit_of(&fs, **v) == first_unit)
        .expect("a referenced block in the first populated unit");
    let (&late_vbn, &late_stamp) = refs
        .iter()
        .find(|(v, _)| unit_of(&fs, **v) == last_unit)
        .expect("a referenced block in the last populated unit");
    corrupt_stamp(&fs, early_vbn, early_stamp ^ 0xAAAA);
    corrupt_stamp(&fs, late_vbn, late_stamp ^ 0xBBBB);

    // Slice 1 stops just short of the late unit: finds and repairs the
    // early seed only.
    let store = ScrubCheckpointStore::new();
    let first = fs.scrub(
        &ScrubConfig {
            unit_budget: Some(last_unit),
            ..ScrubConfig::default()
        },
        &store,
    );
    assert!(!first.completed);
    assert_eq!(first.units_scanned, last_unit as u64);
    let first_keys = finding_keys(&first);
    assert!(first_keys.contains(&format!("stamp:vbn={early_vbn}")));
    assert!(!first_keys.contains(&format!("stamp:vbn={late_vbn}")));
    let cp = store.load().expect("cursor committed");
    assert_eq!(cp.next_unit, last_unit as u64);
    assert!(cp.repaired.contains(&format!("stamp:vbn={early_vbn}")));

    // Crash and recover; the checkpoint store survives like the
    // superblock store does (the caller holds the Arc).
    let recovered = fs.crash_and_recover(ExecMode::Inline);

    // Slice 2 resumes at the cursor: scans only the remaining units,
    // reports only the late seed — the already-repaired early finding
    // is not re-reported.
    let second = recovered.scrub(&ScrubConfig::default(), &store);
    assert_eq!(second.resumed_from, Some(last_unit as u64));
    assert!(second.completed);
    assert_eq!(second.units_scanned, second.units_total - last_unit as u64);
    let second_keys = finding_keys(&second);
    assert!(second_keys.contains(&format!("stamp:vbn={late_vbn}")));
    assert!(
        !second_keys.contains(&format!("stamp:vbn={early_vbn}")),
        "repaired finding re-reported after resume"
    );

    recovered.verify_integrity().expect("post-repair integrity");
    let fresh = recovered.scrub(&ScrubConfig::default(), &store);
    assert!(fresh.resumed_from.is_none(), "completed pass starts fresh");
    assert!(fresh.is_clean(), "third pass found: {:?}", fresh.findings);
}

#[test]
fn checkpointed_repairs_are_suppressed_not_rereported() {
    let fs = mk_fs(ExecMode::Inline);
    fill(&fs, VolumeId(0), 4, 1);
    fill(&fs, VolumeId(1), 3, 2);
    let all = all_refs(&fs);
    let aggmap = fs.allocator().infra().aggmap();

    // Seed a stale bit in some unit > 0 (bitmap repairs are in-memory
    // until the next CP persists the metafiles, so this is the class a
    // crash can revert after the checkpoint already recorded it).
    let stale_vbn = free_unreferenced_vbn(&fs, &all);
    let stale_unit = unit_of(&fs, stale_vbn);
    assert!(stale_unit > 0, "free space exists beyond unit 0");
    aggmap.active_map().reserve(stale_vbn).expect("was free");

    // Simulate the post-crash store state: the pass cursor sits before
    // the stale unit, and the repair is already on record.
    let geo = fs.io().geometry();
    let total: u64 = geo.rg_ids().map(|rg| geo.aa_count(rg) as u64).sum();
    let stale_aa = geo.aa_of(Vbn(stale_vbn));
    let mut repaired = BTreeSet::new();
    repaired.insert(format!("stalebit:vbn={stale_vbn}"));
    repaired.insert(format!("aaskew:rg={}:aa={}", stale_aa.rg.0, stale_aa.index));
    let store = ScrubCheckpointStore::new();
    store.commit(ScrubCheckpoint {
        pass: 3,
        next_unit: 1,
        total_units: total,
        repaired,
    });

    let report = fs.scrub(&ScrubConfig::default(), &store);
    assert_eq!(report.resumed_from, Some(1));
    assert!(report.completed);
    assert!(
        report.suppressed >= 1,
        "re-detected repaired finding was not suppressed"
    );
    let keys = finding_keys(&report);
    assert!(
        !keys.contains(&format!("stalebit:vbn={stale_vbn}")),
        "suppressed finding re-reported: {keys:?}"
    );
    // Suppression still repairs: the leak is gone.
    assert!(
        !aggmap.is_used(Vbn(stale_vbn)),
        "suppressed finding left unrepaired"
    );
    fs.verify_integrity().expect("post-repair integrity");
}

#[test]
fn online_scrub_against_active_cleaners_catches_all_seeds() {
    let fs = mk_fs(ExecMode::Pool(4));
    // Volume 1 is the quiescent victim; volume 0 takes foreground churn.
    fill(&fs, VolumeId(1), 4, 7);
    fill_until_full_stripes(&fs, VolumeId(1), 4, 7, 2);
    fill(&fs, VolumeId(0), 4, 1);
    let refs1 = image_refs(&fs, VolumeId(1));
    let all = all_refs(&fs);
    let aggmap = fs.allocator().infra().aggmap();

    // Seed three stable-under-load classes: a bit-flip on a quiescent
    // referenced block, bad parity on a fully referenced stripe, and a
    // stale bit on a free block (set bits are never handed out by the
    // allocator, so no cleaner can touch it).
    let (&flip_vbn, &flip_stamp) = refs1.iter().nth(refs1.len() / 3).expect("vol 1 blocks");
    corrupt_stamp(&fs, flip_vbn, flip_stamp ^ 0x0DD_0DD);
    let flip_loc = fs.io().geometry().locate(Vbn(flip_vbn)).unwrap();
    // The parity victim stripe must be referenced entirely by the
    // quiescent volume, so no foreground write can ever rewrite it.
    let vol1_set: BTreeSet<u64> = refs1.keys().copied().collect();
    let (parity_rg, parity_dbn) =
        referenced_stripe(&fs, &vol1_set, Some((flip_loc.rg.0, flip_loc.dbn.0)));
    corrupt_parity(&fs, parity_rg, parity_dbn);
    let stale_vbn = free_unreferenced_vbn(&fs, &all);
    aggmap.active_map().reserve(stale_vbn).expect("was free");

    // Foreground: ≥4 cleaner threads (CleanerConfig default) stay busy
    // with write + CP rounds while the scrub runs on the same pool.
    assert!(fs.config().cleaner.threads >= 4);
    let report = std::thread::scope(|s| {
        s.spawn(|| {
            for round in 0..12u64 {
                for f in 0..4u64 {
                    for fbn in 0..FBNS {
                        fs.write(VolumeId(0), FileId(f), fbn, stamp(f, fbn, 100 + round));
                    }
                }
                fs.run_cp();
            }
        });
        fs.scrub(&ScrubConfig::default(), &ScrubCheckpointStore::new())
    });

    assert!(report.completed);
    let keys = finding_keys(&report);
    let required = [
        format!("stamp:vbn={flip_vbn}"),
        format!("parity:rg={parity_rg}:dbn={parity_dbn}"),
        format!("stalebit:vbn={stale_vbn}"),
    ];
    for k in &required {
        assert!(
            keys.contains(k),
            "online scrub missed a seeded corruption: {k}; got {keys:?}"
        );
    }
    let geo = fs.io().geometry();
    let stale_aa = geo.aa_of(Vbn(stale_vbn));
    let mut allowed: BTreeSet<String> = required.iter().cloned().collect();
    allowed.insert(format!(
        "parity:rg={}:dbn={}",
        flip_loc.rg.0, flip_loc.dbn.0
    ));
    allowed.insert(format!("aaskew:rg={}:aa={}", stale_aa.rg.0, stale_aa.index));
    for k in &keys {
        assert!(
            allowed.contains(k),
            "online scrub confirmed a false positive: {k}"
        );
    }
    for f in &report.findings {
        assert!(
            matches!(f.state, FindingState::Reverified | FindingState::Repaired),
            "online finding unrepaired: {} ({:?})",
            f.error,
            f.state
        );
    }

    // Quiesce, then a fresh pass over the whole pool must be clean.
    fs.run_cp();
    fs.verify_integrity().expect("post-torture integrity");
    let quiet = fs.scrub(&ScrubConfig::default(), &ScrubCheckpointStore::new());
    assert!(
        quiet.is_clean(),
        "post-torture re-scan found: {:?}",
        quiet.findings
    );
}
