//! FlexVol volumes: file containers within an aggregate.
//!
//! "WAFL houses and exports multiple file systems called FlexVol volumes
//! from within a shared pool of storage called an aggregate … A block in
//! a FlexVol volume has both a VBN to specify the physical location of
//! the block and a Virtual VBN to specify the block's offset within the
//! volume" (§II-B).

use crate::buffer::DirtyBuffer;
use crate::inode::{FileId, Inode};
use crate::snapshot::{Snapshot, SnapshotSet};
use crate::vvbn::VvbnSpace;
use parking_lot::{Mutex, MutexGuard, RwLock};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use wafl_blockdev::BlockStamp;

/// Volume identifier within the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct VolumeId(pub u32);

/// One file's in-memory inode behind its own mutex: the lock client
/// writes, reads and truncates take, and so does every CP phase that
/// touches the file.
#[derive(Debug)]
pub struct InodeCell {
    inode: Mutex<Inode>, // lock-rank: volume.inode 16
}

impl InodeCell {
    fn new(file: FileId) -> Self {
        Self {
            inode: Mutex::new(Inode::new(file)),
        }
    }

    /// Lock the inode.
    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, Inode> {
        self.inode.lock()
    }
}

/// A FlexVol volume: inodes + VVBN space + dirty-inode list.
pub struct Volume {
    id: VolumeId,
    /// Aggregate index in the Waffinity topology housing this volume.
    aggr: u32,
    inodes: RwLock<BTreeMap<FileId, Arc<InodeCell>>>, // lock-rank: volume.inodes 15
    vvbn: VvbnSpace,
    /// "a list of dirty inodes to process in the next consistency point"
    /// (§II-C). A set: an inode appears once however many blocks dirty.
    /// An inode joins it when a write takes it from clean to dirty.
    dirty: Mutex<BTreeSet<FileId>>, // lock-rank: volume.dirty 17
    /// Retained point-in-time images (see [`crate::snapshot`]).
    snapshots: SnapshotSet,
}

impl Volume {
    /// Create a volume with a VVBN space of `vvbn_total` blocks.
    pub fn new(id: VolumeId, aggr: u32, vvbn_total: u64) -> Arc<Self> {
        Arc::new(Self {
            id,
            aggr,
            inodes: RwLock::new(BTreeMap::new()),
            vvbn: VvbnSpace::new(vvbn_total),
            dirty: Mutex::new(BTreeSet::new()),
            snapshots: SnapshotSet::new(),
        })
    }

    /// Volume id.
    #[inline]
    pub fn id(&self) -> VolumeId {
        self.id
    }

    /// Housing aggregate (Waffinity index).
    #[inline]
    pub fn aggr(&self) -> u32 {
        self.aggr
    }

    /// The volume's VVBN allocator.
    #[inline]
    pub fn vvbn(&self) -> &VvbnSpace {
        &self.vvbn
    }

    /// Create an empty file. Returns `false` if it already exists.
    pub fn create_file(&self, file: FileId) -> bool {
        let mut inodes = self.inodes.write();
        if inodes.contains_key(&file) {
            return false;
        }
        inodes.insert(file, Arc::new(InodeCell::new(file)));
        true
    }

    /// Does the file exist?
    pub fn has_file(&self, file: FileId) -> bool {
        self.inodes.read().contains_key(&file)
    }

    /// Number of files.
    pub fn file_count(&self) -> usize {
        self.inodes.read().len()
    }

    /// Handle to an inode.
    pub fn inode(&self, file: FileId) -> Option<Arc<InodeCell>> {
        self.inodes.read().get(&file).cloned()
    }

    /// Client write: dirty the block, and list the inode as dirty if this
    /// write made it so.
    ///
    /// The insert happens under the inode lock. A second writer that
    /// finds the front map non-empty skips the insert, so by then the
    /// inode must be listed (or taken by a CP that will freeze it);
    /// otherwise a CP could commit, and discard that writer's NVLog
    /// half, without ever seeing the inode.
    ///
    /// # Panics
    /// Panics if the file does not exist (callers route creates first).
    pub fn write(&self, file: FileId, fbn: u64, stamp: BlockStamp) {
        let inodes = self.inodes.read();
        let inode = inodes
            .get(&file)
            .unwrap_or_else(|| panic!("write to missing file {file:?}"));
        let mut ino = inode.lock();
        if ino.write(fbn, stamp) {
            self.dirty.lock().insert(file);
        }
    }

    /// Client read of current logical contents (dirty data wins).
    pub fn read(&self, file: FileId, fbn: u64) -> Option<BlockStamp> {
        self.inode(file).and_then(|i| i.lock().read(fbn))
    }

    /// Truncate a file, freeing its VVBNs beyond the new size in the
    /// volume map. Returns the freed *physical* VBNs for the caller to
    /// stage through the allocator — blocks still referenced by a
    /// snapshot are retained by it and excluded. `None` if the file does
    /// not exist.
    pub fn truncate_file(
        &self,
        file: FileId,
        new_size_fbns: u64,
    ) -> Option<Vec<wafl_blockdev::Vbn>> {
        let inode = self.inode(file)?;
        let mut ino = inode.lock();
        let freed = ino.truncate(new_size_fbns);
        // The inode may have gone clean (all dirty buffers beyond size).
        // Delist it under the inode lock, so a write that re-dirties it
        // lists it again after this removal.
        if !ino.is_dirty() {
            self.dirty.lock().remove(&file);
        }
        drop(ino);
        let mut pvbns = Vec::with_capacity(freed.len());
        for (fbn, vvbn, pvbn) in freed {
            if self.snapshots.any_references(file, fbn, pvbn) {
                continue; // the snapshot owns this block now
            }
            self.vvbn.free(vvbn);
            pvbns.push(pvbn);
        }
        Some(pvbns)
    }

    /// Delete a file entirely. Returns its freed physical VBNs, or `None`
    /// if it does not exist.
    pub fn delete_file(&self, file: FileId) -> Option<Vec<wafl_blockdev::Vbn>> {
        let pvbns = self.truncate_file(file, 0)?;
        self.inodes.write().remove(&file);
        self.dirty.lock().remove(&file);
        Some(pvbns)
    }

    /// Number of inodes on the dirty list.
    pub fn dirty_count(&self) -> usize {
        self.dirty.lock().len()
    }

    /// CP freeze: atomically take the dirty-inode list and each inode's
    /// dirty buffers, as one fbn-sorted slice per inode (shared with the
    /// inode's read path). New writes dirty inodes for the *next* CP.
    ///
    /// Overwrite frees of blocks still referenced by a snapshot are
    /// suppressed here, before the slice is shared: the old block
    /// transfers to the snapshot instead of returning to the free pool.
    pub fn freeze_for_cp(&self) -> Vec<(FileId, Arc<[DirtyBuffer]>)> {
        let ids = {
            let mut dirty = self.dirty.lock();
            std::mem::take(&mut *dirty)
        };
        let mut out = Vec::with_capacity(ids.len());
        for id in ids {
            let Some(inode) = self.inode(id) else {
                continue;
            };
            let buffers = if self.snapshots.is_empty() {
                inode.lock().freeze_for_cp()
            } else {
                inode.lock().freeze_for_cp_with(|b| {
                    if let Some(old) = b.old_pvbn {
                        if self.snapshots.any_references(id, b.fbn, old) {
                            b.old_pvbn = None;
                            b.old_vvbn = None;
                        }
                    }
                })
            };
            if !buffers.is_empty() {
                out.push((id, buffers));
            }
        }
        out
    }

    /// Iterate over all file ids (verification/recovery helper).
    pub fn file_ids(&self) -> Vec<FileId> {
        self.inodes.read().keys().copied().collect()
    }

    /// The volume's snapshot set.
    #[inline]
    pub fn snapshots(&self) -> &SnapshotSet {
        &self.snapshots
    }

    /// Build a snapshot of the *committed* state under `name` (caller
    /// ensures a CP ran just before, so the image is current). The
    /// snapshot shares every block-map leaf with the inodes; a CP copies
    /// a leaf only when it overwrites a block in it. Returns `false` if
    /// the name exists.
    pub fn take_snapshot(&self, name: &str, cp_id: u64) -> bool {
        let mut files = std::collections::BTreeMap::new();
        for f in self.file_ids() {
            let inode = self.inode(f).expect("listed file exists");
            let map = inode.lock().block_map().clone();
            if !map.is_empty() {
                files.insert(f, map);
            }
        }
        self.snapshots.add(Snapshot {
            name: name.to_string(),
            cp_id,
            files,
        })
    }

    /// Delete a snapshot, returning the physical/virtual blocks that are
    /// now unreferenced (not in the active maps nor in any remaining
    /// snapshot) for the caller to free. `None` if no such snapshot.
    pub fn delete_snapshot(&self, name: &str) -> Option<Vec<(u64, wafl_blockdev::Vbn)>> {
        let snap = self.snapshots.remove(name)?;
        let mut reclaimed = Vec::new();
        for (file, fbn, ptr) in snap.iter_blocks() {
            // Still live in the active file system?
            let active = self
                .inode(file)
                .and_then(|inode| inode.lock().lookup(fbn))
                .map(|p| p.pvbn == ptr.pvbn)
                .unwrap_or(false);
            if active {
                continue;
            }
            // Still referenced by another snapshot?
            if self.snapshots.any_references(file, fbn, ptr.pvbn) {
                continue;
            }
            reclaimed.push((ptr.vvbn, ptr.pvbn));
        }
        Some(reclaimed)
    }
}

impl std::fmt::Debug for Volume {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Volume")
            .field("id", &self.id)
            .field("files", &self.file_count())
            .field("dirty", &self.dirty_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_write_read() {
        let v = Volume::new(VolumeId(0), 0, 1000);
        assert!(v.create_file(FileId(1)));
        assert!(!v.create_file(FileId(1)), "duplicate create rejected");
        v.write(FileId(1), 5, 0x55);
        assert_eq!(v.read(FileId(1), 5), Some(0x55));
        assert_eq!(v.read(FileId(1), 6), None);
        assert_eq!(v.dirty_count(), 1);
    }

    #[test]
    fn dirty_list_dedupes_inodes() {
        let v = Volume::new(VolumeId(0), 0, 1000);
        v.create_file(FileId(1));
        for fbn in 0..10 {
            v.write(FileId(1), fbn, fbn as u128 + 1);
        }
        assert_eq!(v.dirty_count(), 1);
    }

    #[test]
    fn freeze_takes_dirty_work_and_resets() {
        let v = Volume::new(VolumeId(0), 0, 1000);
        v.create_file(FileId(1));
        v.create_file(FileId(2));
        v.write(FileId(1), 0, 0xa);
        v.write(FileId(2), 0, 0xb);
        v.write(FileId(2), 1, 0xc);
        let frozen = v.freeze_for_cp();
        assert_eq!(frozen.len(), 2);
        let total: usize = frozen.iter().map(|(_, b)| b.len()).sum();
        assert_eq!(total, 3);
        assert_eq!(v.dirty_count(), 0);
        // Writes during the CP re-dirty for the next CP.
        v.write(FileId(1), 9, 0xd);
        assert_eq!(v.dirty_count(), 1);
    }

    #[test]
    #[should_panic(expected = "missing file")]
    fn write_to_missing_file_panics() {
        let v = Volume::new(VolumeId(0), 0, 1000);
        v.write(FileId(9), 0, 1);
    }

    #[test]
    fn concurrent_writers_to_distinct_files() {
        let v = Volume::new(VolumeId(0), 0, 100_000);
        for f in 0..8u64 {
            v.create_file(FileId(f));
        }
        let mut handles = Vec::new();
        for f in 0..8u64 {
            let v = Arc::clone(&v);
            handles.push(std::thread::spawn(move || {
                for fbn in 0..100 {
                    v.write(FileId(f), fbn, wafl_blockdev::stamp(f, fbn, 1));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(v.dirty_count(), 8);
        for f in 0..8u64 {
            assert_eq!(v.read(FileId(f), 42), Some(wafl_blockdev::stamp(f, 42, 1)));
        }
    }
}
