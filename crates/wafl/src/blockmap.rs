//! Block maps: a file's fbn → on-disk location index, held as
//! copy-on-write leaves.
//!
//! In WAFL's buffer tree every file block hangs off an indirect block,
//! and a CP writes only the dirty blocks and their ancestors before "the
//! newly written data is atomically persisted by overwriting the
//! superblock in place" (§II-B, §II-C): everything else in the new image
//! is shared with the previous one. [`BlockMap`] is that
//! indirect-block level in memory. Fbns are grouped into fixed leaves of
//! 64 entries, each a presence mask plus the slots' pointers,
//! held as `Arc`s. Cloning a map clones one `Arc` per leaf, so the live
//! inode, the committed image and every snapshot share each leaf that no
//! CP has touched since they diverged. Mutation goes through
//! `Arc::make_mut`: the first write to a leaf another map still shares
//! copies that one leaf, and later writes to it land in place.

use crate::inode::BlockPtr;
use serde::{Deserialize, Error, Serialize, Value};
use std::collections::{btree_map, BTreeMap};
use std::sync::Arc;
use wafl_blockdev::Vbn;

const LEAF_SHIFT: u32 = 6;

/// Block pointers per leaf.
const LEAF_SLOTS: usize = 1 << LEAF_SHIFT;

/// Filler for empty slots; only slots whose presence bit is set are read.
const NO_PTR: BlockPtr = BlockPtr {
    vvbn: 0,
    pvbn: Vbn(0),
    stamp: 0,
};

/// One indirect block: `LEAF_SLOTS` consecutive fbns.
#[derive(Clone)]
struct Leaf {
    /// Bit `s` set ⇔ slot `s` holds a pointer.
    present: u64,
    ptrs: [BlockPtr; LEAF_SLOTS],
}

impl Leaf {
    const EMPTY: Leaf = Leaf {
        present: 0,
        ptrs: [NO_PTR; LEAF_SLOTS],
    };
}

/// Leaf key and slot of `fbn`.
#[inline]
fn split(fbn: u64) -> (u64, usize) {
    (fbn >> LEAF_SHIFT, (fbn & (LEAF_SLOTS as u64 - 1)) as usize)
}

/// A file's committed block map: fbn → [`BlockPtr`], ordered by fbn.
///
/// A sparse fbn costs one leaf, never a dense array up to it. Empty
/// leaves are dropped, so [`BlockMap::leaf_count`] is exactly the number
/// of distinct leaves holding a pointer.
#[derive(Clone, Default)]
pub struct BlockMap {
    leaves: BTreeMap<u64, Arc<Leaf>>,
    len: usize,
}

impl BlockMap {
    /// Empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of mapped fbns.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the map empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of leaves (each holds at least one pointer).
    pub fn leaf_count(&self) -> usize {
        self.leaves.len()
    }

    /// The pointer at `fbn`, if mapped.
    #[inline]
    pub fn get(&self, fbn: u64) -> Option<&BlockPtr> {
        let (key, slot) = split(fbn);
        let leaf = self.leaves.get(&key)?;
        (leaf.present & (1 << slot) != 0).then(|| &leaf.ptrs[slot])
    }

    /// Map `fbn` to `ptr`, returning the previous pointer. Copies the
    /// leaf first if another map shares it.
    pub fn insert(&mut self, fbn: u64, ptr: BlockPtr) -> Option<BlockPtr> {
        let (key, slot) = split(fbn);
        let leaf = Arc::make_mut(
            self.leaves
                .entry(key)
                .or_insert_with(|| Arc::new(Leaf::EMPTY)),
        );
        let bit = 1 << slot;
        let old = (leaf.present & bit != 0).then_some(leaf.ptrs[slot]);
        leaf.present |= bit;
        leaf.ptrs[slot] = ptr;
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Unmap `fbn`, returning its pointer.
    pub fn remove(&mut self, fbn: u64) -> Option<BlockPtr> {
        let (key, slot) = split(fbn);
        let bit = 1 << slot;
        let leaf = self.leaves.get_mut(&key)?;
        if leaf.present & bit == 0 {
            return None;
        }
        let ptr = leaf.ptrs[slot];
        if leaf.present == bit {
            // Last pointer: drop the leaf rather than copy it to clear a bit.
            self.leaves.remove(&key);
        } else {
            Arc::make_mut(leaf).present &= !bit;
        }
        self.len -= 1;
        Some(ptr)
    }

    /// Move every entry at `fbn` and above into a new map, like
    /// `BTreeMap::split_off`. Whole leaves move without a copy; only a
    /// leaf straddling `fbn` is split.
    pub fn split_off(&mut self, fbn: u64) -> BlockMap {
        let (key, slot) = split(fbn);
        let mut tail = BlockMap {
            leaves: self.leaves.split_off(&key),
            len: 0,
        };
        if let Some(leaf) = tail.leaves.get_mut(&key) {
            let low = (1u64 << slot) - 1;
            if leaf.present & low != 0 {
                if leaf.present & !low == 0 {
                    let whole = tail.leaves.remove(&key).expect("leaf just seen");
                    self.leaves.insert(key, whole);
                } else {
                    let head = Leaf {
                        present: leaf.present & low,
                        ptrs: leaf.ptrs,
                    };
                    Arc::make_mut(leaf).present &= !low;
                    self.leaves.insert(key, Arc::new(head));
                }
            }
        }
        tail.len = tail
            .leaves
            .values()
            .map(|l| l.present.count_ones() as usize)
            .sum();
        self.len -= tail.len;
        tail
    }

    /// Ascending `(fbn, ptr)` pairs.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            leaves: self.leaves.iter(),
            base: 0,
            leaf: None,
            bits: 0,
        }
    }

    /// Leaves this map shares (the same allocation) with `other`.
    #[cfg(test)]
    pub(crate) fn shared_leaves(&self, other: &BlockMap) -> usize {
        self.leaves
            .iter()
            .filter(|(k, l)| other.leaves.get(k).is_some_and(|o| Arc::ptr_eq(l, o)))
            .count()
    }
}

/// Iterator over a [`BlockMap`] in fbn order.
pub struct Iter<'a> {
    leaves: btree_map::Iter<'a, u64, Arc<Leaf>>,
    base: u64,
    leaf: Option<&'a Leaf>,
    bits: u64,
}

impl<'a> Iterator for Iter<'a> {
    type Item = (u64, &'a BlockPtr);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(leaf) = self.leaf {
                if self.bits != 0 {
                    let slot = self.bits.trailing_zeros();
                    self.bits &= self.bits - 1;
                    return Some((self.base | slot as u64, &leaf.ptrs[slot as usize]));
                }
            }
            let (key, leaf) = self.leaves.next()?;
            self.base = key << LEAF_SHIFT;
            self.leaf = Some(leaf);
            self.bits = leaf.present;
        }
    }
}

impl<'a> IntoIterator for &'a BlockMap {
    type Item = (u64, &'a BlockPtr);
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl FromIterator<(u64, BlockPtr)> for BlockMap {
    fn from_iter<I: IntoIterator<Item = (u64, BlockPtr)>>(iter: I) -> Self {
        let mut map = BlockMap::new();
        for (fbn, ptr) in iter {
            map.insert(fbn, ptr);
        }
        map
    }
}

impl PartialEq for BlockMap {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl Eq for BlockMap {}

impl std::fmt::Debug for BlockMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Serialized as the ascending `(fbn, ptr)` pair sequence that an
/// ordered map of the same entries produces, so images keep their format.
impl Serialize for BlockMap {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(|(fbn, p)| (fbn, *p).to_value()).collect())
    }
}

impl Deserialize for BlockMap {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(Vec::<(u64, BlockPtr)>::from_value(v)?.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ptr(n: u64) -> BlockPtr {
        BlockPtr {
            vvbn: n,
            pvbn: Vbn(n + 1000),
            stamp: n as u128 * 7,
        }
    }

    #[test]
    fn serializes_like_a_btreemap() {
        let fbns = [0, 5, 63, 64, 1 << 40, u64::MAX >> 1];
        let map: BlockMap = fbns.iter().map(|&f| (f, ptr(f))).collect();
        let model: BTreeMap<u64, _> = fbns.iter().map(|&f| (f, ptr(f))).collect();
        assert_eq!(map.to_value(), model.to_value());
        assert_eq!(BlockMap::from_value(&model.to_value()), Ok(map));
    }

    #[test]
    fn split_off_at_a_leaf_boundary_and_inside_one() {
        let mut m: BlockMap = (0..200).map(|f| (f, ptr(f))).collect();
        let keep = m.clone();
        let tail = m.split_off(128);
        assert_eq!((m.len(), tail.len()), (128, 72));
        assert_eq!(tail.shared_leaves(&keep), 2, "whole leaves move uncopied");
        let mid = m.split_off(100);
        assert_eq!((m.len(), mid.len()), (100, 28));
        assert_eq!(mid.iter().next().map(|(f, _)| f), Some(100));
        assert_eq!(m.iter().last().map(|(f, _)| f), Some(99));
        assert_eq!(keep.len(), 200, "the clone is untouched");
    }
}
