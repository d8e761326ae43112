//! Detection-power property test for the online scrubber.
//!
//! For every corruption class the scrubber claims to detect — media
//! bit-flips, stale and missing active-bitmap bits, AA refcount skew,
//! bad parity — seed one instance with randomized placement and payload
//! and assert the scrub (a) always reports it, (b) reports nothing
//! outside the seeded fault and its physically entailed collaterals
//! (a flipped data block also breaks its stripe's parity; a bitmap edit
//! also skews its AA's counter), and (c) leaves the aggregate clean on
//! a re-scan. A second property asserts zero false positives on clean
//! images across randomized fill shapes.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use wafl::scrub::{FindingState, ScrubCheckpointStore, ScrubConfig};
use wafl::{ExecMode, FileId, Filesystem, FsConfig, VolumeId};
use wafl_blockdev::{stamp, BlockStamp, Dbn, DriveKind, GeometryBuilder, RaidGroupId, Vbn};

const FILES: u64 = 4;
const FBNS: u64 = 48;
/// Extra CPs the bad-parity seed may add to find a full stripe.
const EXTRA_CPS: u64 = 8;

/// Two RAID groups of (3 data + 1 parity) × 1024 blocks, 64-stripe AAs.
fn mk_fs() -> Filesystem {
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
        ExecMode::Inline,
    );
    fs.create_volume(VolumeId(0));
    fs
}

fn fill(fs: &Filesystem, files: u64, fbns: u64) {
    fill_files(fs, 0..files, fbns);
}

/// Write `fbns` blocks to each new file in `ids`, then commit one CP.
fn fill_files(fs: &Filesystem, ids: std::ops::Range<u64>, fbns: u64) {
    for f in ids {
        fs.create_file(VolumeId(0), FileId(f));
        for fbn in 0..fbns {
            fs.write(VolumeId(0), FileId(f), fbn, stamp(f, fbn, 1));
        }
    }
    fs.run_cp();
}

/// A stripe `(rg, dbn)` whose every data member is referenced, if any.
fn fully_referenced_stripe(fs: &Filesystem) -> Option<(RaidGroupId, u64)> {
    let geo = fs.io().geometry();
    let all = all_refs(fs);
    geo.rg_ids().find_map(|rg| {
        let group = fs.io().raid_group(rg);
        let drives = group.data_drives().len() as u32;
        (0..group.geometry().blocks_per_drive)
            .find(|&dbn| (0..drives).all(|d| all.contains(&geo.vbn_at(rg, d, Dbn(dbn)).0)))
            .map(|dbn| (rg, dbn))
    })
}

/// vbn → expected stamp for every committed file block.
fn file_refs(fs: &Filesystem) -> BTreeMap<u64, BlockStamp> {
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

/// All referenced vbns, including metafile homes.
fn all_refs(fs: &Filesystem) -> BTreeSet<u64> {
    let img = fs.committed_image().expect("at least one CP committed");
    let mut refs: BTreeSet<u64> = file_refs(fs).into_keys().collect();
    for ((_src, _blk), vbn) in &img.metafile_locs {
        refs.insert(vbn.0);
    }
    refs
}

/// The parity-mismatch key for the stripe holding `vbn`.
fn stripe_parity_key(fs: &Filesystem, vbn: u64) -> String {
    let loc = fs.io().geometry().locate(Vbn(vbn)).expect("valid vbn");
    format!("parity:rg={}:dbn={}", loc.rg.0, loc.dbn.0)
}

/// The AA-skew key for the allocation area holding `vbn`.
fn aa_skew_key(fs: &Filesystem, vbn: u64) -> String {
    let aa = fs.io().geometry().aa_of(Vbn(vbn));
    format!("aaskew:rg={}:aa={}", aa.rg.0, aa.index)
}

/// One seeded fault: the class plus randomized placement / payload.
#[derive(Debug, Clone, Copy)]
enum Seed {
    /// XOR a referenced block's media stamp.
    BitFlip { pick: usize, mask: u128 },
    /// Mark a free block used behind the allocator's back.
    StaleBit { pick: usize },
    /// Mark a referenced block free behind the allocator's back.
    MissingBit { pick: usize },
    /// XOR the parity block of a fully referenced stripe.
    BadParity { mask: u128 },
    /// Inflate an AA's tracked free count (refcount skew).
    RefcountSkew { pick: usize, delta: u64 },
}

fn seeds() -> impl Strategy<Value = Seed> {
    prop_oneof![
        (0usize..1 << 20, 1u128..u128::MAX).prop_map(|(pick, mask)| Seed::BitFlip { pick, mask }),
        (0usize..1 << 20).prop_map(|pick| Seed::StaleBit { pick }),
        (0usize..1 << 20).prop_map(|pick| Seed::MissingBit { pick }),
        (1u128..u128::MAX).prop_map(|mask| Seed::BadParity { mask }),
        (0usize..1 << 20, 1u64..4).prop_map(|(pick, delta)| Seed::RefcountSkew { pick, delta }),
    ]
}

/// Plant `seed` and return `(required_key, allowed_keys)`: the finding
/// the scrub MUST report, and the full set it MAY report (the required
/// key plus physically entailed collateral findings).
fn plant(fs: &Filesystem, seed: Seed) -> (String, BTreeSet<String>) {
    let geo = fs.io().geometry();
    let refs = file_refs(fs);
    let aggmap = fs.allocator().infra().aggmap();
    match seed {
        Seed::BitFlip { pick, mask } => {
            let (&vbn, &good) = refs.iter().nth(pick % refs.len()).unwrap();
            let loc = geo.locate(Vbn(vbn)).unwrap();
            let group = fs.io().raid_group(loc.rg);
            group.data_drives()[loc.drive_in_rg as usize].repair_write(loc.dbn, &[good ^ mask]);
            let key = format!("stamp:vbn={vbn}");
            // A flipped data block also breaks its stripe's parity.
            let allowed = BTreeSet::from([key.clone(), stripe_parity_key(fs, vbn)]);
            (key, allowed)
        }
        Seed::StaleBit { pick } => {
            let all = all_refs(fs);
            let free: Vec<u64> = (0..geo.total_vbns())
                .rev()
                .filter(|v| !all.contains(v) && !aggmap.is_used(Vbn(*v)))
                .take(256)
                .collect();
            let vbn = free[pick % free.len()];
            aggmap.active_map().reserve(vbn).expect("was free");
            let key = format!("stalebit:vbn={vbn}");
            // A raw bitmap edit bypasses the AA counters: skew entailed.
            let allowed = BTreeSet::from([key.clone(), aa_skew_key(fs, vbn)]);
            (key, allowed)
        }
        Seed::MissingBit { pick } => {
            let (&vbn, _) = refs.iter().nth(pick % refs.len()).unwrap();
            aggmap.active_map().free(vbn).expect("was used");
            let key = format!("missbit:vbn={vbn}");
            let allowed = BTreeSet::from([key.clone(), aa_skew_key(fs, vbn)]);
            (key, allowed)
        }
        Seed::BadParity { mask } => {
            // Seed a stripe whose every data member is referenced, so the
            // parity seed cannot be clobbered by a later full-stripe
            // write. A small CP can spread one refill round across both
            // RAID groups (cleaner i homes on shard i % nshards) and
            // leave no stripe fully referenced; if so, commit another
            // fill of fresh files per CP until a full stripe appears.
            let mut extra = 0;
            let (rg, dbn) = loop {
                if let Some(found) = fully_referenced_stripe(fs) {
                    break found;
                }
                assert!(
                    extra < EXTRA_CPS,
                    "no fully referenced stripe after {EXTRA_CPS} extra CPs"
                );
                extra += 1;
                fill_files(fs, extra * FILES..(extra + 1) * FILES, FBNS);
            };
            let group = fs.io().raid_group(rg);
            let cur = group.parity_drives()[0].peek(Dbn(dbn));
            group.parity_drives()[0].repair_write(Dbn(dbn), &[cur ^ mask]);
            let key = format!("parity:rg={}:dbn={dbn}", rg.0);
            (key.clone(), BTreeSet::from([key]))
        }
        Seed::RefcountSkew { pick, delta } => {
            let aas: Vec<wafl_blockdev::AaId> = geo
                .rg_ids()
                .flat_map(|rg| {
                    (0..geo.aa_count(rg)).map(move |i| wafl_blockdev::AaId { rg, index: i })
                })
                .collect();
            let aa = aas[pick % aas.len()];
            // on_release only inflates the tracked count: safe for any AA.
            aggmap.aa_stats().on_release(aa, delta);
            let key = format!("aaskew:rg={}:aa={}", aa.rg.0, aa.index);
            (key.clone(), BTreeSet::from([key]))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every seeded corruption is detected (100 % detection), nothing
    /// outside the seed and its entailed collaterals is reported (no
    /// false positives), every finding is repaired and re-verified, and
    /// a second pass comes back clean.
    #[test]
    fn every_corruption_class_is_detected_and_repaired(seed in seeds()) {
        let fs = mk_fs();
        fill(&fs, 4, FBNS);
        let (required, allowed) = plant(&fs, seed);

        let store = ScrubCheckpointStore::new();
        let report = fs.scrub(&ScrubConfig::default(), &store);
        prop_assert!(report.completed);
        let keys: BTreeSet<String> =
            report.findings.iter().map(|f| f.error.key()).collect();
        prop_assert!(
            keys.contains(&required),
            "seed {seed:?} undetected; got {keys:?}"
        );
        for k in &keys {
            prop_assert!(
                allowed.contains(k),
                "false positive {k} for seed {seed:?} (allowed {allowed:?})"
            );
        }
        for f in &report.findings {
            prop_assert!(
                matches!(f.state, FindingState::Repaired | FindingState::Reverified),
                "finding {} not repaired: {:?}", f.error, f.state
            );
        }

        let again = fs.scrub(&ScrubConfig::default(), &store);
        prop_assert!(
            again.is_clean(),
            "re-scan after repair of {seed:?} found {:?}", again.findings
        );
        fs.verify_integrity().map_err(|e| {
            TestCaseError::fail(format!("post-repair integrity: {e}"))
        })?;
    }

    /// A clean image never produces findings, whatever its fill shape.
    #[test]
    fn clean_images_produce_zero_findings(files in 1u64..5, fbns in 8u64..64) {
        let fs = mk_fs();
        fill(&fs, files, fbns);
        let store = ScrubCheckpointStore::new();
        let report = fs.scrub(&ScrubConfig::default(), &store);
        prop_assert!(report.completed);
        prop_assert!(
            report.is_clean(),
            "clean image produced findings: {:?}", report.findings
        );
        prop_assert_eq!(report.false_alarms, 0);
    }
}
