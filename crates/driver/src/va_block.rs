//! Per-VABlock driver state.
//!
//! The driver splits every managed allocation into 2 MiB VABlocks and
//! services each batch one VABlock at a time (paper Sec. 2.2). A block's
//! state determines which servicing steps a batch touching it must pay:
//!
//! * no DMA mappings yet → compulsory DMA-map creation for all 512 pages
//!   plus radix-tree inserts (the high-cost "GPU VABlock state
//!   initialization" of Fig. 14);
//! * pages still CPU-mapped → `unmap_mapping_range()` on the fault path;
//! * not GPU-resident and memory full → eviction of an LRU victim;
//! * migrated pages always pay population (zero-fill) + transfer + PTE
//!   updates.

use serde::{Deserialize, Serialize};
use uvm_sim::mem::VaBlockId;

use crate::advise::MemAdvise;
use uvm_sim::bitmap::PageBitmap;

/// Driver-side state of one 2 MiB VABlock.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VaBlockState {
    /// The block's index.
    pub id: VaBlockId,
    /// Pages currently resident on the GPU.
    pub gpu_resident: PageBitmap,
    /// Pages whose data exists in host RAM (written by CPU initialization
    /// or by an eviction writeback). Migrating a page with host data pays
    /// a host→device transfer; migrating a never-touched page is
    /// populate-only (the driver zero-fills it directly on the GPU).
    pub host_data: PageBitmap,
    /// Whether DMA mappings (and reverse radix-tree entries) exist for this
    /// block. Created once, on first GPU touch, for all 512 pages.
    pub dma_mapped: bool,
    /// Whether the block currently holds a GPU physical 2 MiB allocation.
    pub gpu_allocated: bool,
    /// Monotone sequence number of the last batch that migrated pages into
    /// this block — the driver's LRU key ("the UVM driver has no
    /// information about page hits", Sec. 5.4, so recency means *migration*
    /// recency, effectively allocation order for dense access).
    pub last_migrate_seq: u64,
    /// How many times this block has been evicted.
    pub evict_count: u32,
    /// Number of pages of this allocation that are valid (the final block
    /// of an allocation may be partial).
    pub valid_pages: u32,
    /// Usage hint applied via `cudaMemAdvise`, if any.
    pub advise: Option<MemAdvise>,
    /// Pages mapped remotely (GPU accesses host memory over the
    /// interconnect) under `PreferredLocationHost`.
    pub remote_mapped: PageBitmap,
    /// Whether the block currently holds a read-duplicated copy
    /// (`ReadMostly`): the CPU mappings survived migration, and eviction
    /// needs no writeback.
    pub read_duplicated: bool,
    /// Batch sequence of the block's most recent eviction (thrashing
    /// detection input).
    pub last_evict_seq: Option<u64>,
    /// While set, faults map the block remotely instead of migrating —
    /// the thrashing-mitigation pin, expiring at this batch sequence.
    pub pinned_until: Option<u64>,
    /// Recovery state: migration retries were exhausted on this block, so
    /// the driver permanently degraded it to a remote (sysmem-mapped,
    /// non-migrated) block. Faults on a degraded block take the remote
    /// path, like `PreferredLocationHost`, without further copy-engine
    /// attempts.
    pub degraded: bool,
    /// Pages whose current data lives on a peer GPU (multi-GPU peer
    /// backends only; always empty otherwise). The block's view of the
    /// backend's owner directory — the auditor cross-checks the two.
    /// Disjoint from `gpu_resident` and `remote_mapped` by construction:
    /// pages move here on a peer spill and leave on peer→device migration
    /// or peer→host reclaim.
    pub peer_pages: PageBitmap,
}

impl VaBlockState {
    /// Fresh state for a block with `valid_pages` usable pages.
    pub fn new(id: VaBlockId, valid_pages: u32) -> Self {
        assert!((1..=512).contains(&valid_pages));
        VaBlockState {
            id,
            gpu_resident: PageBitmap::EMPTY,
            host_data: PageBitmap::EMPTY,
            dma_mapped: false,
            gpu_allocated: false,
            last_migrate_seq: 0,
            evict_count: 0,
            valid_pages,
            advise: None,
            remote_mapped: PageBitmap::EMPTY,
            read_duplicated: false,
            last_evict_seq: None,
            pinned_until: None,
            degraded: false,
            peer_pages: PageBitmap::EMPTY,
        }
    }

    /// Number of GPU-resident pages.
    pub fn resident_count(&self) -> u32 {
        self.gpu_resident.count()
    }

    /// Number of GPU-accessible pages: migrated (`gpu_resident`) plus
    /// remote-mapped. The quantity the client ledger attributes and the
    /// auditor's global page accounting sums.
    pub fn accessible_pages(&self) -> u32 {
        self.gpu_resident.or(&self.remote_mapped).count()
    }

    /// Apply an eviction: the block loses its GPU allocation and residency.
    /// The evicted pages' data returns to host RAM (recorded in
    /// `host_data`) but is *not* re-mapped into CPU page tables — the
    /// basis of the Fig. 13 cost levels.
    pub fn evict(&mut self) {
        if !self.read_duplicated {
            // Normal blocks write their data back to host RAM; a
            // read-duplicated block already has an intact host copy.
            let evicted = self.gpu_resident;
            self.host_data.merge(&evicted);
        }
        self.gpu_resident.reset();
        self.gpu_allocated = false;
        self.read_duplicated = false;
        self.evict_count += 1;
    }

    /// Apply a peer spill: like [`VaBlockState::evict`], but the evicted
    /// pages' data moves to a peer GPU over the interconnect instead of
    /// back to host RAM — `host_data` is *not* updated, and the pages are
    /// recorded in `peer_pages` (the owner directory tracks which peer).
    pub fn evict_to_peer(&mut self) {
        let evicted = self.gpu_resident;
        self.peer_pages.merge(&evicted);
        self.gpu_resident.reset();
        self.gpu_allocated = false;
        self.read_duplicated = false;
        self.evict_count += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_block_is_cold() {
        let b = VaBlockState::new(VaBlockId(5), 512);
        assert_eq!(b.resident_count(), 0);
        assert!(!b.dma_mapped);
        assert!(!b.gpu_allocated);
        assert_eq!(b.evict_count, 0);
    }

    #[test]
    fn evict_resets_residency_but_keeps_dma() {
        let mut b = VaBlockState::new(VaBlockId(1), 512);
        b.dma_mapped = true;
        b.gpu_allocated = true;
        b.gpu_resident.set_range(0, 100);
        b.evict();
        assert_eq!(b.resident_count(), 0);
        assert!(!b.gpu_allocated);
        assert!(b.dma_mapped, "DMA mappings survive eviction");
        assert_eq!(b.evict_count, 1);
        assert_eq!(b.host_data.count(), 100, "evicted pages now have host data");
    }

    #[test]
    fn evict_to_peer_moves_pages_without_host_writeback() {
        let mut b = VaBlockState::new(VaBlockId(2), 512);
        b.dma_mapped = true;
        b.gpu_allocated = true;
        b.gpu_resident.set_range(0, 64);
        b.evict_to_peer();
        assert_eq!(b.resident_count(), 0);
        assert!(!b.gpu_allocated);
        assert_eq!(b.evict_count, 1);
        assert_eq!(b.host_data.count(), 0, "peer spill writes nothing back to host");
        assert_eq!(b.peer_pages.count(), 64, "spilled pages are peer-held");
    }

    #[test]
    #[should_panic]
    fn zero_valid_pages_rejected() {
        let _ = VaBlockState::new(VaBlockId(0), 0);
    }
}
