//! The tree-based density prefetcher.
//!
//! UVM's prefetcher (paper Sec. 5.2; described in detail in Allen & Ge
//! IPDPS'21 and Ganguly et al. ISCA'19) is *reactive* and confined to the
//! VABlock currently being serviced. It views the block as a binary tree:
//! 512 4 KiB pages → 32 leaves of 64 KiB ("big pages") → … → the 2 MiB
//! root. A subtree is flagged when strictly more than a threshold fraction
//! (half, by default) of its pages are already resident or faulting in this
//! batch; every page under a flagged subtree is prefetched. Because 64 KiB
//! leaves are the smallest prefetch unit, this also implements the 4 KiB →
//! 64 KiB page "upgrade" the driver performs on x86.

use uvm_sim::bitmap::PageBitmap;

/// Number of levels in the block tree: 16-page leaves (64 KiB), then 32,
/// 64, 128, 256, 512-page subtrees.
const LEAF_PAGES: usize = 16;
const LEAVES: usize = 32;

/// Compute the pages to prefetch for one VABlock.
///
/// * `resident` — pages already GPU-resident.
/// * `faulted` — pages being migrated by the current batch.
/// * `valid_pages` — number of usable pages in the block (partial final
///   blocks of an allocation prefetch only within their valid range).
/// * `threshold` — density above which a subtree is prefetched (default
///   0.5, strict).
///
/// Returns the bitmap of *additional* pages to migrate (never overlapping
/// `resident` or `faulted`).
pub fn compute_prefetch(
    resident: &PageBitmap,
    faulted: &PageBitmap,
    valid_pages: u32,
    threshold: f64,
) -> PageBitmap {
    let occupied = resident.or(faulted);
    if occupied.is_empty() {
        return PageBitmap::EMPTY;
    }
    let valid = valid_pages as usize;

    // Occupied-page counts per 16-page leaf.
    let mut counts = [0u32; LEAVES];
    for i in occupied.iter_set() {
        counts[i / LEAF_PAGES] += 1;
    }

    let mut prefetch = PageBitmap::EMPTY;
    // Walk levels from leaves (span 16 pages) up to the root (512).
    let mut span = LEAF_PAGES;
    let mut level_counts: Vec<u32> = counts.to_vec();
    while span <= 512 {
        for (node, &cnt) in level_counts.iter().enumerate() {
            let lo = node * span;
            let hi = ((node + 1) * span).min(valid);
            if lo >= valid {
                continue;
            }
            let node_valid = (hi - lo) as f64;
            if f64::from(cnt) > threshold * node_valid {
                prefetch.set_range(lo, hi);
            }
        }
        // Collapse pairs for the next level.
        if span == 512 {
            break;
        }
        level_counts = level_counts.chunks(2).map(|c| c.iter().sum()).collect();
        span *= 2;
    }

    // Only *new* pages: drop already-resident/faulted ones.
    prefetch.and_not(&occupied)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bm(pages: impl IntoIterator<Item = usize>) -> PageBitmap {
        pages.into_iter().collect()
    }

    #[test]
    fn empty_input_prefetches_nothing() {
        let p = compute_prefetch(&PageBitmap::EMPTY, &PageBitmap::EMPTY, 512, 0.5);
        assert!(p.is_empty());
    }

    #[test]
    fn sparse_faults_prefetch_nothing() {
        // One fault per 64 KiB leaf (1/16 density) is below threshold
        // everywhere.
        let faulted = bm((0..32).map(|l| l * 16));
        let p = compute_prefetch(&PageBitmap::EMPTY, &faulted, 512, 0.5);
        assert!(p.is_empty());
    }

    #[test]
    fn dense_leaf_upgrades_to_64k() {
        // 9 of 16 pages of leaf 0 faulted (> 50%): the whole 64 KiB leaf is
        // migrated — the 4 KiB → 64 KiB upgrade.
        let faulted = bm(0..9);
        let p = compute_prefetch(&PageBitmap::EMPTY, &faulted, 512, 0.5);
        assert_eq!(p.iter_set().collect::<Vec<_>>(), (9..16).collect::<Vec<_>>());
    }

    #[test]
    fn majority_of_block_prefetches_whole_block() {
        // 300 of 512 pages resident+faulted: the root is flagged, the rest
        // of the block prefetches (Fig. 14's ~2 MiB-scale batches).
        let resident = bm(0..200);
        let faulted = bm(200..300);
        let p = compute_prefetch(&resident, &faulted, 512, 0.5);
        assert_eq!(p.count(), 212);
        assert_eq!(p.iter_set().next(), Some(300));
    }

    #[test]
    fn prefetch_never_includes_occupied_pages() {
        let resident = bm(0..100);
        let faulted = bm(100..290);
        let p = compute_prefetch(&resident, &faulted, 512, 0.5);
        for i in 0..290 {
            assert!(!p.get(i), "page {i} is already occupied");
        }
    }

    #[test]
    fn partial_block_prefetches_only_valid_range() {
        // Block with 100 valid pages; 60 faulted → root density 60% of the
        // valid range; prefetch covers only valid pages.
        let faulted = bm(0..60);
        let p = compute_prefetch(&PageBitmap::EMPTY, &faulted, 100, 0.5);
        assert!(p.iter_set().all(|i| i < 100), "{:?}", p.iter_set().collect::<Vec<_>>());
        assert_eq!(p.count(), 40);
    }

    #[test]
    fn threshold_is_strict() {
        // Exactly half a leaf (8/16) must NOT trigger.
        let faulted = bm(0..8);
        let p = compute_prefetch(&PageBitmap::EMPTY, &faulted, 512, 0.5);
        assert!(p.is_empty());
        // One more page does.
        let faulted = bm(0..9);
        let p = compute_prefetch(&PageBitmap::EMPTY, &faulted, 512, 0.5);
        assert!(!p.is_empty());
    }

    #[test]
    fn resident_pages_drive_prefetch_of_neighbors() {
        // The prefetcher is reactive: residency from earlier batches plus a
        // few new faults can tip a subtree over threshold.
        let resident = bm(0..15); // leaf 0 nearly full
        let faulted = bm([16usize]); // one fault in leaf 1
        let p = compute_prefetch(&resident, &faulted, 512, 0.5);
        // Leaf 0's remaining page (15) prefetched via the 32-page subtree
        // (16/32 = exactly half — not flagged) or leaf 0 itself (15/16).
        assert!(p.get(15));
    }
}
