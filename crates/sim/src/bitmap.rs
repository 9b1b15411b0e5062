//! 512-bit page bitmaps.
//!
//! Each VABlock tracks page state (GPU residency, faulted-this-batch, …)
//! with one bit per 4 KiB page — 512 bits, eight `u64` words. The real
//! driver uses the same representation (`uvm_page_mask_t`). The driver's
//! VABlock state and the GPU page table share this one type.

use serde::{Deserialize, Serialize};
use crate::mem::PAGES_PER_VABLOCK;

const WORDS: usize = (PAGES_PER_VABLOCK as usize) / 64;

/// A fixed 512-bit bitmap indexed by page-in-block (0..512).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PageBitmap {
    words: [u64; WORDS],
}

impl PageBitmap {
    /// The empty bitmap.
    pub const EMPTY: PageBitmap = PageBitmap { words: [0; WORDS] };

    /// A bitmap with every page set.
    pub const FULL: PageBitmap = PageBitmap { words: [u64::MAX; WORDS] };

    /// Set bit `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < 512);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Clear bit `i`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        debug_assert!(i < 512);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Test bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < 512);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of set bits.
    #[inline]
    pub fn count(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Whether no bits are set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Whether all 512 bits are set.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.words.iter().all(|&w| w == u64::MAX)
    }

    /// Bitwise OR.
    #[inline]
    pub fn or(&self, other: &PageBitmap) -> PageBitmap {
        let mut out = *self;
        for (w, o) in out.words.iter_mut().zip(other.words.iter()) {
            *w |= o;
        }
        out
    }

    /// Bitwise AND: bits set in both.
    #[inline]
    pub fn and(&self, other: &PageBitmap) -> PageBitmap {
        let mut out = *self;
        for (w, o) in out.words.iter_mut().zip(other.words.iter()) {
            *w &= o;
        }
        out
    }

    /// Bitwise AND-NOT: bits set in `self` but not in `other`.
    #[inline]
    pub fn and_not(&self, other: &PageBitmap) -> PageBitmap {
        let mut out = *self;
        for (w, o) in out.words.iter_mut().zip(other.words.iter()) {
            *w &= !o;
        }
        out
    }

    /// Set bits in `self` from `other` (in-place OR).
    #[inline]
    pub fn merge(&mut self, other: &PageBitmap) {
        for (w, o) in self.words.iter_mut().zip(other.words.iter()) {
            *w |= o;
        }
    }

    /// Clear all bits.
    pub fn reset(&mut self) {
        self.words = [0; WORDS];
    }

    /// Iterate indices of set bits, ascending.
    pub fn iter_set(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }

    /// Count set bits within `[lo, hi)`.
    pub fn count_range(&self, lo: usize, hi: usize) -> u32 {
        debug_assert!(lo <= hi && hi <= 512);
        self.iter_set().filter(|&i| i >= lo && i < hi).count() as u32
    }

    /// Set every bit in `[lo, hi)`.
    pub fn set_range(&mut self, lo: usize, hi: usize) {
        for i in lo..hi {
            self.set(i);
        }
    }
}

impl FromIterator<usize> for PageBitmap {
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        let mut bm = PageBitmap::EMPTY;
        for i in iter {
            bm.set(i);
        }
        bm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear() {
        let mut bm = PageBitmap::EMPTY;
        assert!(bm.is_empty());
        bm.set(0);
        bm.set(63);
        bm.set(64);
        bm.set(511);
        assert_eq!(bm.count(), 4);
        assert!(bm.get(0) && bm.get(63) && bm.get(64) && bm.get(511));
        assert!(!bm.get(1));
        bm.clear(63);
        assert!(!bm.get(63));
        assert_eq!(bm.count(), 3);
    }

    #[test]
    fn full_and_empty() {
        assert!(PageBitmap::FULL.is_full());
        assert_eq!(PageBitmap::FULL.count(), 512);
        assert!(PageBitmap::EMPTY.is_empty());
        let mut bm = PageBitmap::EMPTY;
        bm.set_range(0, 512);
        assert!(bm.is_full());
    }

    #[test]
    fn iter_set_ascending() {
        let bm: PageBitmap = [511usize, 3, 64, 200].into_iter().collect();
        assert_eq!(bm.iter_set().collect::<Vec<_>>(), vec![3, 64, 200, 511]);
    }

    #[test]
    fn boolean_ops() {
        let a: PageBitmap = [1usize, 2, 3].into_iter().collect();
        let b: PageBitmap = [3usize, 4].into_iter().collect();
        assert_eq!(a.or(&b).count(), 4);
        assert_eq!(a.and_not(&b).iter_set().collect::<Vec<_>>(), vec![1, 2]);
        let mut c = a;
        c.merge(&b);
        assert_eq!(c.count(), 4);
        c.reset();
        assert!(c.is_empty());
    }

    #[test]
    fn count_range_bounds() {
        let bm: PageBitmap = [10usize, 20, 30].into_iter().collect();
        assert_eq!(bm.count_range(10, 30), 2);
        assert_eq!(bm.count_range(0, 512), 3);
        assert_eq!(bm.count_range(11, 20), 0);
    }
}
