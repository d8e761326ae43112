//! Inodes: per-file metadata and the dirty-buffer front/CP split.
//!
//! "Writing to a file 'dirties' the in-memory inode associated with the
//! file and adds it to a list of dirty inodes to process in the next
//! consistency point" (§II-C). During a CP, "in-memory data that is to be
//! included in a CP is atomically identified at the start of the CP and
//! isolated from further modifications … any attempts to change an
//! inode's properties or a buffer's contents during a CP result in the
//! object being COW'd in memory."
//!
//! [`Inode`] realizes that with a **front** dirty map (accepts client
//! writes at any time) and a **CP snapshot** taken by
//! [`Inode::freeze_for_cp`]: the front map is moved out wholesale at CP
//! start, so writes that arrive during the CP dirty the (new, empty)
//! front map and are persisted by the *next* CP — exactly the paper's
//! semantics, with the copy made eagerly at the snapshot boundary instead
//! of lazily per object.
//!
//! The snapshot is **one** fbn-sorted `Arc<[DirtyBuffer]>`, made once per
//! inode per CP. Every cleaner job of the inode holds a clone and cleans
//! an index range of it, and the inode keeps a clone as its read-side
//! frozen set: a read during a CP finds the CP's buffer by binary search
//! and never falls back to the pre-CP block. [`Inode::end_cp`] drops the
//! inode's clone once the CP has installed every buffer in the block map.

use crate::blockmap::BlockMap;
use crate::buffer::{CleanedBlock, DirtyBuffer};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;
use wafl_blockdev::{BlockStamp, Vbn};

/// File identifier, unique within a volume.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FileId(pub u64);

/// A block's on-disk location: `(vvbn, pvbn)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockPtr {
    /// Virtual VBN (offset space of the volume).
    pub vvbn: u64,
    /// Physical VBN (aggregate space).
    pub pvbn: Vbn,
    /// Stamp last persisted there (kept for integrity checks).
    pub stamp: BlockStamp,
}

/// An in-memory inode: attributes, block map, and dirty buffers.
#[derive(Debug, Clone)]
pub struct Inode {
    id: FileId,
    /// Persistent block map: fbn → current on-disk location. Updated only
    /// by CP apply; the superblock commit shares its leaves.
    block_map: BlockMap,
    /// Front dirty buffers: modified since the last CP freeze.
    front: BTreeMap<u64, DirtyBuffer>,
    /// The in-flight CP's buffers, sorted by fbn: the slice its cleaner
    /// jobs index, kept for reads until the CP has applied them.
    frozen: Arc<[DirtyBuffer]>,
    /// Highest fbn ever written + 1 (a simple size proxy).
    size_fbns: u64,
}

impl Inode {
    /// Fresh empty inode.
    pub fn new(id: FileId) -> Self {
        Self {
            id,
            block_map: BlockMap::new(),
            front: BTreeMap::new(),
            frozen: Arc::new([]),
            size_fbns: 0,
        }
    }

    /// File id.
    #[inline]
    pub fn id(&self) -> FileId {
        self.id
    }

    /// Number of dirty buffers in the front map.
    #[inline]
    pub fn dirty_count(&self) -> usize {
        self.front.len()
    }

    /// Is the inode dirty (needs the next CP)?
    #[inline]
    pub fn is_dirty(&self) -> bool {
        !self.front.is_empty()
    }

    /// Size proxy: one past the highest fbn ever written.
    #[inline]
    pub fn size_fbns(&self) -> u64 {
        self.size_fbns
    }

    /// The persistent block map (CP-committed state).
    #[inline]
    pub fn block_map(&self) -> &BlockMap {
        &self.block_map
    }

    /// Recovery: adopt a committed image's block map wholesale (its
    /// leaves stay shared with the image until a CP touches them).
    pub(crate) fn install_block_map(&mut self, map: BlockMap) {
        self.block_map = map;
    }

    /// Record a client write of `stamp` at `fbn`. Captures the block's
    /// previous location for the overwrite-free path. Re-dirtying a block
    /// already dirty in the front map just replaces the payload (the old
    /// location was captured by the first dirtying).
    ///
    /// Returns `true` when this write took the inode from clean to dirty:
    /// only then does it need to join the volume's dirty list.
    pub fn write(&mut self, fbn: u64, stamp: BlockStamp) -> bool {
        let was_clean = self.front.is_empty();
        self.size_fbns = self.size_fbns.max(fbn + 1);
        match self.front.get_mut(&fbn) {
            Some(existing) => existing.stamp = stamp,
            None => {
                let buf = match self.block_map.get(fbn) {
                    Some(ptr) => DirtyBuffer::overwrite(fbn, stamp, ptr.vvbn, ptr.pvbn),
                    None => DirtyBuffer::first_write(fbn, stamp),
                };
                self.front.insert(fbn, buf);
            }
        }
        was_clean
    }

    /// Read the current logical contents of `fbn`: dirty front data wins
    /// over the in-flight CP's buffers, which win over the persistent
    /// map. Returns `None` for holes.
    pub fn read(&self, fbn: u64) -> Option<BlockStamp> {
        if let Some(b) = self.front.get(&fbn) {
            return Some(b.stamp);
        }
        if let Ok(i) = self.frozen.binary_search_by_key(&fbn, |b| b.fbn) {
            return Some(self.frozen[i].stamp);
        }
        self.block_map.get(fbn).map(|p| p.stamp)
    }

    /// The persisted location of `fbn`, if any (ignores dirty data).
    pub fn lookup(&self, fbn: u64) -> Option<BlockPtr> {
        self.block_map.get(fbn).copied()
    }

    /// Truncate the file to `new_size_fbns` blocks. Returns
    /// `(fbn, vvbn, pvbn)` for each committed block beyond the new size;
    /// the caller frees them through the allocator's stage path (unless a
    /// snapshot still references them). Dirty front buffers beyond the
    /// size are simply dropped (they were never allocated), and reads
    /// stop seeing an in-flight CP's buffers beyond it.
    pub fn truncate(&mut self, new_size_fbns: u64) -> Vec<(u64, u64, Vbn)> {
        self.front.retain(|&fbn, _| fbn < new_size_fbns);
        let keep = self.frozen.partition_point(|b| b.fbn < new_size_fbns);
        if keep < self.frozen.len() {
            self.frozen = Arc::from(&self.frozen[..keep]);
        }
        let freed = self
            .block_map
            .split_off(new_size_fbns)
            .iter()
            .map(|(fbn, ptr)| (fbn, ptr.vvbn, ptr.pvbn))
            .collect();
        self.size_fbns = self.size_fbns.min(new_size_fbns);
        freed
    }

    /// CP start: take the front dirty buffers as this CP's workload, as
    /// one fbn-sorted slice shared with the read path. New writes after
    /// this call land in a fresh front map (in-memory COW); reads keep
    /// seeing the taken buffers until [`Inode::end_cp`].
    pub fn freeze_for_cp(&mut self) -> Arc<[DirtyBuffer]> {
        self.freeze_for_cp_with(|_| {})
    }

    /// [`Inode::freeze_for_cp`], running `fix` on each buffer before the
    /// slice is shared (the volume's snapshot fix-up of old locations).
    pub(crate) fn freeze_for_cp_with(
        &mut self,
        mut fix: impl FnMut(&mut DirtyBuffer),
    ) -> Arc<[DirtyBuffer]> {
        // Collected straight into the slice: converting a `Vec` would
        // allocate and fill a second copy while the inode is locked.
        self.frozen = std::mem::take(&mut self.front)
            .into_values()
            .map(|mut b| {
                fix(&mut b);
                b
            })
            .collect();
        Arc::clone(&self.frozen)
    }

    /// CP apply has ended: the persistent map now holds every buffer
    /// [`Inode::freeze_for_cp`] took, so drop the read-side clone.
    pub(crate) fn end_cp(&mut self) {
        self.frozen = Arc::new([]);
    }

    /// CP apply: install cleaned locations into the persistent block map.
    ///
    /// If a block was re-dirtied *during* the CP, its front buffer's
    /// old-location fields are retargeted to the location this CP just
    /// assigned: the pre-CP location has been freed by this CP, and it is
    /// the new location that the *next* CP must free — otherwise the old
    /// block would be double-freed and the new one leaked.
    pub fn apply_cleaned(&mut self, cleaned: &[CleanedBlock]) {
        for c in cleaned {
            self.block_map.insert(
                c.fbn,
                BlockPtr {
                    vvbn: c.vvbn,
                    pvbn: c.pvbn,
                    stamp: c.stamp,
                },
            );
            if let Some(fb) = self.front.get_mut(&c.fbn) {
                fb.old_vvbn = Some(c.vvbn);
                fb.old_pvbn = Some(c.pvbn);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_sees_dirty_data() {
        let mut i = Inode::new(FileId(1));
        i.write(3, 0x33);
        assert_eq!(i.read(3), Some(0x33));
        assert_eq!(i.read(4), None);
        assert!(i.is_dirty());
        assert_eq!(i.size_fbns(), 4);
    }

    #[test]
    fn rewrite_before_cp_keeps_first_old_location() {
        let mut i = Inode::new(FileId(1));
        i.apply_cleaned(&[CleanedBlock {
            fbn: 0,
            vvbn: 5,
            pvbn: Vbn(100),
            stamp: 0xaa,
        }]);
        i.write(0, 0xbb);
        i.write(0, 0xcc); // second write to the same dirty block
        let frozen = i.freeze_for_cp();
        assert_eq!(frozen.len(), 1);
        assert_eq!(frozen[0].stamp, 0xcc);
        assert_eq!(frozen[0].old_pvbn, Some(Vbn(100)), "old loc captured once");
    }

    #[test]
    fn write_reports_each_clean_to_dirty_transition() {
        let mut i = Inode::new(FileId(1));
        assert!(i.write(0, 0x1), "first write dirties a clean inode");
        assert!(!i.write(1, 0x2));
        assert!(!i.write(0, 0x3), "re-dirtying a dirty block");
        let _cp = i.freeze_for_cp();
        assert!(i.write(0, 0x4), "first write after a freeze dirties again");
        assert!(!i.write(2, 0x5));
        let _cp = i.freeze_for_cp();
        assert!(i.write(7, 0x6), "and after every freeze");
        i.truncate(0);
        assert!(
            i.write(0, 0x7),
            "a truncate that drops every dirty block cleans it"
        );
    }

    #[test]
    fn freeze_isolates_cp_from_new_writes() {
        let mut i = Inode::new(FileId(1));
        i.write(0, 0x1);
        i.write(1, 0x2);
        let frozen = i.freeze_for_cp();
        assert_eq!(frozen.len(), 2);
        assert!(!i.is_dirty());
        // A write during the CP dirties the new front map only.
        i.write(0, 0x9);
        assert_eq!(i.dirty_count(), 1);
        assert_eq!(i.read(0), Some(0x9));
    }

    #[test]
    fn write_during_cp_captures_precp_location_not_inflight() {
        let mut i = Inode::new(FileId(1));
        i.apply_cleaned(&[CleanedBlock {
            fbn: 0,
            vvbn: 1,
            pvbn: Vbn(10),
            stamp: 0xaa,
        }]);
        i.write(0, 0xbb);
        let _cp = i.freeze_for_cp();
        // During the CP, a new write sees the *committed* map (the CP's
        // new location is not applied yet) — so the old location it will
        // free is the pre-CP one... but the CP will free Vbn(10) itself.
        // The next CP must free the location the in-flight CP assigns,
        // which becomes visible through apply_cleaned:
        i.apply_cleaned(&[CleanedBlock {
            fbn: 0,
            vvbn: 2,
            pvbn: Vbn(20),
            stamp: 0xbb,
        }]);
        i.write(0, 0xcc);
        let next = i.freeze_for_cp();
        assert_eq!(next[0].old_pvbn, Some(Vbn(20)));
    }

    #[test]
    fn apply_cleaned_updates_map_and_read_path() {
        let mut i = Inode::new(FileId(2));
        i.write(7, 0x77);
        let frozen = i.freeze_for_cp();
        i.apply_cleaned(&[CleanedBlock {
            fbn: 7,
            vvbn: 3,
            pvbn: Vbn(42),
            stamp: frozen[0].stamp,
        }]);
        assert_eq!(i.read(7), Some(0x77));
        assert_eq!(i.lookup(7).unwrap().pvbn, Vbn(42));
    }
}
