//! The GPU page table: which pages are resident and mapped on the device.
//!
//! Every warp access probes it, so it is a per-VABlock bitmap rather than a
//! hashed set: one [`PageBitmap`] per 2 MiB block, kept in a vector sorted
//! by block id. Managed allocations are contiguous VABlock runs, so a
//! block's offset from the lowest mapped block is almost always its slot
//! and a probe is one compare plus one bit test; any other layout falls
//! back to a binary search. A block keeps its slot once mapped (eviction
//! only clears bits), so memory grows with the number of blocks that ever
//! held a page — never with the largest page number.
//!
//! The serialized form is the ascending array of resident pages, exactly
//! what the hashed set it replaces produced, so snapshots and digests do not
//! move. Decoding sorts the (untrusted) array first, so any order and any
//! duplicates are accepted and cost `O(n log n)`.

use serde::{DeError, Deserialize, Serialize, Value};
use uvm_sim::bitmap::PageBitmap;
use uvm_sim::mem::{PageNum, VaBlockId};

/// The set of pages mapped on the GPU.
#[derive(Debug, Default)]
pub struct GpuPageTable {
    /// Ascending ids of every block that has held a mapped page.
    ids: Vec<VaBlockId>,
    /// Residency bits, parallel to `ids`.
    bits: Vec<PageBitmap>,
}

impl GpuPageTable {
    /// An empty page table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Slot of `block` in `ids`, if it has one.
    #[inline]
    fn slot(&self, block: VaBlockId) -> Option<usize> {
        let first = self.ids.first()?;
        let guess = block.0.wrapping_sub(first.0);
        if guess < self.ids.len() as u64 && self.ids[guess as usize] == block {
            return Some(guess as usize);
        }
        self.ids.binary_search(&block).ok()
    }

    /// Whether `page` is mapped.
    #[inline]
    pub fn contains(&self, page: PageNum) -> bool {
        self.slot(page.va_block())
            .is_some_and(|s| self.bits[s].get(page.index_in_block()))
    }

    /// Map `page`. Returns whether it was newly mapped.
    pub fn insert(&mut self, page: PageNum) -> bool {
        let block = page.va_block();
        let s = match self.slot(block) {
            Some(s) => s,
            None => {
                let s = self.ids.partition_point(|&b| b < block);
                self.ids.insert(s, block);
                self.bits.insert(s, PageBitmap::EMPTY);
                s
            }
        };
        let i = page.index_in_block();
        let fresh = !self.bits[s].get(i);
        self.bits[s].set(i);
        fresh
    }

    /// Unmap `page`. Returns whether it was mapped.
    pub fn remove(&mut self, page: PageNum) -> bool {
        let Some(s) = self.slot(page.va_block()) else {
            return false;
        };
        let i = page.index_in_block();
        let was = self.bits[s].get(i);
        self.bits[s].clear(i);
        was
    }

    /// Number of mapped pages.
    pub fn len(&self) -> usize {
        self.bits.iter().map(|b| b.count() as usize).sum()
    }

    /// Whether no page is mapped.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(PageBitmap::is_empty)
    }

    /// Number of VABlocks holding a bitmap — what the table's memory is
    /// proportional to.
    pub fn num_blocks(&self) -> usize {
        self.ids.len()
    }

    /// Mapped pages in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = PageNum> + '_ {
        self.ids
            .iter()
            .zip(&self.bits)
            .flat_map(|(id, bits)| bits.iter_set().map(move |i| id.page_at(i)))
    }
}

impl Extend<PageNum> for GpuPageTable {
    fn extend<I: IntoIterator<Item = PageNum>>(&mut self, pages: I) {
        for p in pages {
            self.insert(p);
        }
    }
}

impl Serialize for GpuPageTable {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(|p| p.to_value()).collect())
    }
}

impl Deserialize for GpuPageTable {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let mut pages = Vec::<PageNum>::from_value(v)?;
        pages.sort_unstable();
        let mut table = GpuPageTable::new();
        for p in pages {
            let block = p.va_block();
            if table.ids.last() != Some(&block) {
                table.ids.push(block);
                table.bits.push(PageBitmap::EMPTY);
            }
            let last = table.bits.len() - 1;
            table.bits[last].set(p.index_in_block());
        }
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut t = GpuPageTable::new();
        assert!(t.insert(PageNum(513)));
        assert!(!t.insert(PageNum(513)));
        assert!(t.insert(PageNum(7)));
        assert!(t.contains(PageNum(7)) && t.contains(PageNum(513)));
        assert!(!t.contains(PageNum(8)));
        assert_eq!(t.len(), 2);
        assert!(t.remove(PageNum(7)));
        assert!(!t.remove(PageNum(7)));
        assert!(!t.contains(PageNum(7)));
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![PageNum(513)]);
    }

    #[test]
    fn serializes_as_ascending_pages() {
        let mut t = GpuPageTable::new();
        t.extend([PageNum(2000), PageNum(3), PageNum(600), PageNum(4)]);
        let v = t.to_value();
        assert_eq!(v, [3u64, 4, 600, 2000].to_value());
        assert_eq!(GpuPageTable::from_value(&v).unwrap().to_value(), v);
    }

    #[test]
    fn hostile_page_numbers_allocate_one_block_each() {
        let v = [u64::MAX, 0, u64::MAX].to_value();
        let t = GpuPageTable::from_value(&v).unwrap();
        assert_eq!(t.num_blocks(), 2);
        assert!(t.contains(PageNum(u64::MAX)) && t.contains(PageNum(0)));
        assert_eq!(t.len(), 2);
    }
}
