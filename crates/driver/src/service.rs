//! The fault-servicing pipeline.
//!
//! [`UvmDriver::service_batch`] is the model of the driver's per-batch work
//! loop (paper Secs. 2.2, 4, 5), run as named phase functions in the order
//! of the paper's batch-cost breakdown: `open_batch` → `attribute_drops`
//! (buffer overflow) → `absorb_reset` / `apply_pressure` (sustained failure
//! domains) → `evaluate_health` → `fetch` (with stall retries) → `admit`
//! (multi-tenant) → `compose` (access mix, SM/μTLB spread, metadata log) →
//! `dedup_and_preprocess` → `group_by_block` → `service_block` per VABlock
//! (lock, thrashing pin, then `map_remote`, or prefetch expansion,
//! `ensure_block_allocated`, DMA setup, CPU unmap, and migration or
//! degradation) → `charge_batch_fixed` (fixed time + jitter) →
//! `close_batch` (writeback, `batch-close`) → audit.
//! [`UvmDriver::prefetch_async`] reuses `open_batch`, `close_batch`, and
//! the per-block phases.
//!
//! Every simulated-time cost goes through one primitive, `charge`: it adds
//! the duration to the record's `t_*` field for its component and emits
//! the matching trace span in the same step, so a batch's breakdown tiles
//! its trace by construction.
//!
//! The pipeline is *fallible*: every stage that can fail in a real driver
//! (DMA-map creation, the copy engine, host page-table operations, the
//! batch fetch itself) returns a typed [`UvmError`], and
//! [`UvmDriver::service_batch`] applies the recovery policy from
//! [`DriverPolicy`] — bounded retry with deterministic exponential backoff
//! for transient failures, and graceful degradation of a block to a remote
//! (sysmem-mapped) state when migration keeps failing. Only unrecoverable
//! failures propagate to the caller.

use std::collections::{BTreeMap, HashSet};

use serde::{Deserialize, Serialize};
use uvm_gpu::device::Gpu;
use uvm_gpu::fault::{AccessKind, FaultRecord};
use uvm_hostos::dma::DmaSpace;
use uvm_hostos::host::HostMemory;
use uvm_sim::cost::CostModel;
use uvm_sim::error::UvmError;
use uvm_sim::inject::{InjectionPoint, Injector, PointInjector};
use uvm_sim::mem::{Allocation, PageNum, VaBlockId, PAGE_SIZE};
use uvm_sim::rng::DetRng;
use uvm_sim::time::{SimDuration, SimTime};

use uvm_trace::TraceEvent;

use crate::advise::MemAdvise;
use crate::backend::{BackendKind, PeerDirectory};
use crate::batch::{BatchRecord, Component, FaultMeta};
use uvm_sim::bitmap::PageBitmap;
use crate::clients::{ClientLedger, TenancyConfig};
use crate::dedup::{classify_duplicates_with, DedupResult, DedupScratch};
use crate::engine::{run_prefetch_policy, PrefetchContext};
use crate::evict::{EvictScratch, GpuMemoryManager, ResidencyOutcome};
use crate::health::{HealthEvidence, HealthMachine};
use crate::policy::DriverPolicy;
use crate::va_block::VaBlockState;
use crate::va_space::VaSpace;

/// Add `dur` to `rec`'s `component` time and emit the matching span.
///
/// The pipeline's only cost primitive. Component times only grow, in
/// program order, so the span placed at `rec.start + component_sum − dur`
/// tiles the batch's service interval contiguously, and the per-component
/// span sums equal the record's final `t_*` fields exactly — the invariant
/// the trace-side breakdown reconciliation relies on. The event is built
/// only when tracing is on, and must account against `component`. No
/// driver state (and no RNG stream) is touched.
#[inline]
fn charge(
    rec: &mut BatchRecord,
    component: Component,
    dur: SimDuration,
    event: impl FnOnce() -> TraceEvent,
) {
    *rec.component_mut(component) += dur;
    if uvm_trace::enabled() {
        let event = event();
        assert_eq!(
            event.component(),
            Some(component as usize),
            "`{}` span charged to the wrong component",
            event.name()
        );
        let end = rec.start.0 + rec.component_sum().as_nanos();
        uvm_trace::emit_span(end - dur.as_nanos(), dur.as_nanos(), || event);
    }
}

/// Emit an instant at the batch's current accumulated position.
#[inline]
fn mark(rec: &BatchRecord, event: impl FnOnce() -> TraceEvent) {
    if uvm_trace::enabled() {
        uvm_trace::emit_instant(rec.start.0 + rec.component_sum().as_nanos(), event);
    }
}

/// Where an evicted block's resident data goes.
#[derive(Debug, Clone, Copy)]
enum EvictTo {
    /// Device → host writeback (counted in `bytes_evicted`).
    Host,
    /// Device → peer spill over the interconnect (multi-GPU peer
    /// backends; *not* host writeback).
    Peer,
}

/// Charge the writeback of `state`'s resident pages to `to`, plus
/// `surcharge`, and unmap them from the GPU. A read-duplicated block keeps
/// an intact host copy, so dropping its GPU copy moves no bytes.
fn write_back(
    cost: &CostModel,
    rec: &mut BatchRecord,
    state: &VaBlockState,
    to: EvictTo,
    surcharge: SimDuration,
    gpu: &mut Gpu,
) {
    let resident = state.gpu_resident;
    let bytes = if state.read_duplicated {
        0
    } else {
        u64::from(resident.count()) * PAGE_SIZE
    };
    let leg = match to {
        EvictTo::Host => {
            rec.bytes_evicted += bytes;
            cost.d2h_time(bytes)
        }
        EvictTo::Peer => {
            rec.pages_spilled_to_peer += u64::from(resident.count());
            rec.bytes_spilled_to_peer += bytes;
            cost.p2p_time(bytes)
        }
    };
    let (seq, block) = (rec.seq, state.id);
    charge(rec, Component::Evict, surcharge + cost.evict_fixed + leg, || {
        TraceEvent::Evict { batch: seq, victim: Some(block.0), bytes }
    });
    gpu.unmap_pages(resident.iter_set().map(|i| block.page_at(i)));
}

/// Sort the unique faults into `(VABlock, unique index)` keys: blocks
/// ascend (the deterministic service order), and within a block the
/// stable index tie-break keeps first-arrival order.
fn group_by_block(unique: &[FaultRecord], groups: &mut Vec<(VaBlockId, u32)>) {
    groups.clear();
    groups.extend(unique.iter().enumerate().map(|(i, f)| (f.page.va_block(), i as u32)));
    groups.sort_unstable();
}

/// Reusable per-batch working memory for [`UvmDriver::service_batch_with`].
///
/// Pure scratch: contents are cleared at each use site and never influence
/// results. Kept outside [`UvmDriver`] so driver snapshots are unaffected;
/// the run loop owns one instance for the lifetime of a simulation.
#[derive(Debug, Default)]
pub struct ServiceScratch {
    /// Sort/dedup working memory for duplicate classification.
    dedup: DedupScratch,
    /// Dedup output (reused `unique` vector).
    dedup_out: DedupResult,
    /// Distinct-SM attribution buffer.
    sms: Vec<u32>,
    /// Distinct-μTLB attribution buffer.
    utlbs: Vec<u32>,
    /// First-occurrence tracking for the per-fault metadata log.
    seen_pages: HashSet<PageNum>,
    /// `(VABlock, unique index)` grouping keys.
    groups: Vec<(VaBlockId, u32)>,
    /// Faults surviving multi-tenant admission (unused when tenancy is
    /// off — the raw batch slice is serviced directly).
    admitted: Vec<FaultRecord>,
    /// Eviction victim-list and policy-candidate buffers.
    evict: EvictScratch,
}

/// The UVM driver: policy, managed-memory registry, GPU memory manager,
/// DMA space, and the batch log.
///
/// The driver is fully serializable: a snapshot captures the VA-space and
/// VABlock trees, the eviction bookkeeping (including the evictor's own
/// RNG stream and LFU counters), the oracle prefetcher's future-access
/// table, the DMA space (including the reverse radix tree), the jitter RNG
/// mid-stream, every driver-owned injector (transient and sustained), the
/// health machine, and the complete batch log, so
/// a restored driver continues bit-identically under any policy stack.
#[derive(Debug, Serialize, Deserialize)]
pub struct UvmDriver {
    policy: DriverPolicy,
    cost: CostModel,
    /// Managed allocations and VABlock states.
    pub va_space: VaSpace,
    pub(crate) mem: GpuMemoryManager,
    pub(crate) dma: DmaSpace,
    rng: DetRng,
    batch_seq: u64,
    /// Batch-level instrumentation (one record per serviced batch).
    pub records: Vec<BatchRecord>,
    /// Per-fault metadata, kept when `policy.log_fault_metadata`.
    pub fault_log: Vec<FaultMeta>,
    /// Copy-engine (migration) failure injection.
    inj_copy: PointInjector,
    /// Batch-fetch stall injection.
    inj_fetch: PointInjector,
    /// Sustained device-memory-pressure injection: consulted once per
    /// batch; while it fires, `pressure_reserve_blocks` are withheld from
    /// the memory manager and residency is emergency-evicted to fit.
    inj_pressure: PointInjector,
    /// Sustained GPU-reset injection: consulted once per batch; a fire
    /// destroys the fault buffer, in-flight GMMU state, and μTLB entries,
    /// and charges the re-attach cost.
    inj_reset: PointInjector,
    /// The graceful-degradation health machine, re-evaluated from evidence
    /// at every batch boundary.
    health: HealthMachine,
    /// Cumulative VABlocks degraded to remote mappings over the run — the
    /// evidence behind the `Degraded` escalation.
    degraded_total: u64,
    /// Fault-buffer overflow drops already attributed to earlier batches.
    overflow_seen: u64,
    /// The oracle prefetcher's future-access table: per VABlock, every
    /// page the workload will touch. Installed by the system layer before
    /// the run starts ([`Self::set_future_accesses`]); empty for every
    /// other prefetch policy. Serialized with the driver so a restored
    /// oracle run keeps its foresight.
    oracle_future: BTreeMap<VaBlockId, PageBitmap>,
    /// Multi-tenant client table and attribution counters. Disabled
    /// (empty) for single-tenant runs; installed by the system layer from
    /// the tenancy configuration ([`Self::install_clients`]).
    clients: ClientLedger,
    /// Which servicing architecture runs the pipeline. Stock is
    /// [`BackendKind::CpuDriver`]; installed by the system layer from the
    /// system configuration ([`Self::install_backend`]).
    backend: BackendKind,
    /// Owner directory for the multi-GPU peer backends: which peer holds
    /// which spilled pages. Disabled (zero peers) for the CPU-driven and
    /// GPU-driven backends.
    peer_dir: PeerDirectory,
}

impl UvmDriver {
    /// A driver managing a GPU with `capacity_blocks` 2 MiB chunks.
    pub fn new(policy: DriverPolicy, cost: CostModel, capacity_blocks: u64, seed: u64) -> Self {
        let mem = GpuMemoryManager::with_policy(capacity_blocks, policy.eviction_policy, seed);
        UvmDriver {
            policy,
            cost,
            va_space: VaSpace::new(),
            mem,
            dma: DmaSpace::new(),
            rng: DetRng::new(seed ^ 0xD21A_55E5),
            batch_seq: 0,
            records: Vec::new(),
            fault_log: Vec::new(),
            inj_copy: PointInjector::disabled(),
            inj_fetch: PointInjector::disabled(),
            inj_pressure: PointInjector::disabled(),
            inj_reset: PointInjector::disabled(),
            health: HealthMachine::new(),
            degraded_total: 0,
            overflow_seen: 0,
            oracle_future: BTreeMap::new(),
            clients: ClientLedger::disabled(),
            backend: BackendKind::CpuDriver,
            peer_dir: PeerDirectory::default(),
        }
    }

    /// Install the multi-tenant client table from a tenancy
    /// configuration. A disabled configuration (no clients) leaves the
    /// driver in stock single-tenant mode.
    pub fn install_clients(&mut self, config: &TenancyConfig) {
        if config.is_enabled() {
            self.clients = ClientLedger::new(config);
        }
    }

    /// The multi-tenant client ledger (read access for the auditor,
    /// experiments, and reports).
    pub fn clients(&self) -> &ClientLedger {
        &self.clients
    }

    /// Install a servicing backend. [`BackendKind::CpuDriver`] leaves the
    /// driver in stock mode; the multi-GPU peer kinds size the owner
    /// directory so each peer mirrors the main GPU's block capacity.
    pub fn install_backend(&mut self, kind: BackendKind) {
        self.backend = kind;
        if kind.peers() > 0 {
            self.peer_dir = PeerDirectory::new(kind.peers(), self.mem.capacity_blocks());
        }
    }

    /// The installed servicing backend kind.
    pub fn backend(&self) -> BackendKind {
        self.backend
    }

    /// The multi-GPU peer owner directory (read access for the auditor,
    /// experiments, and reports). Disabled for non-peer backends.
    pub fn peer_directory(&self) -> &PeerDirectory {
        &self.peer_dir
    }

    /// Install the oracle prefetcher's future-access table: for each
    /// VABlock, the set of pages the workload will ever touch. A no-op
    /// for every other prefetch policy (the table is only consulted by
    /// [`crate::engine::OraclePrefetch`]).
    pub fn set_future_accesses(&mut self, future: BTreeMap<VaBlockId, PageBitmap>) {
        self.oracle_future = future;
    }

    /// Install the driver-owned fault injectors — the transient points
    /// (DMA map, copy engine, batch fetch) and the sustained failure
    /// domains (device memory pressure, GPU reset) — from a wired
    /// [`Injector`]. Points not taken here belong to other subsystems (the
    /// GPU fault buffer, the host OS).
    pub fn set_injectors(&mut self, inj: &mut Injector) {
        self.dma.set_injector(inj.take(InjectionPoint::DmaMapFailure));
        self.inj_copy = inj.take(InjectionPoint::CopyEngineFault);
        self.inj_fetch = inj.take(InjectionPoint::BatchFetchStall);
        self.inj_pressure = inj.take(InjectionPoint::DeviceMemoryPressure);
        self.inj_reset = inj.take(InjectionPoint::GpuReset);
    }

    /// The health machine (read access for experiments and the harness).
    pub fn health(&self) -> &HealthMachine {
        &self.health
    }

    /// Driver policy.
    pub fn policy(&self) -> &DriverPolicy {
        &self.policy
    }

    /// Cumulative VABlocks degraded to remote mappings over the run.
    pub fn degraded_total(&self) -> u64 {
        self.degraded_total
    }

    /// The GPU memory manager (read access for experiments).
    pub fn memory(&self) -> &GpuMemoryManager {
        &self.mem
    }

    /// The DMA space (read access for experiments and the auditor).
    pub fn dma_space(&self) -> &DmaSpace {
        &self.dma
    }

    /// Burn one draw from the driver's jitter RNG, silently knocking the
    /// stream out of phase with an identically-seeded driver. This is a
    /// divergence-demo hook: it models the class of bug the lockstep
    /// detector exists to catch (a code path consuming randomness it
    /// shouldn't), and has no other effect on driver state.
    pub fn perturb_rng(&mut self) {
        let _ = self.rng.unit();
    }

    /// Register a managed allocation (the `cudaMallocManaged` entry point).
    pub fn managed_alloc(&mut self, alloc: Allocation) {
        self.va_space.register(alloc);
    }

    /// A CPU thread on `core` touches `page` of managed memory: the host OS
    /// maps it, and the driver records that host data now exists for the
    /// page (so a later migration pays a real transfer, not just
    /// population).
    ///
    /// # Panics
    ///
    /// Panics if `page` lies outside every registered managed allocation.
    pub fn cpu_touch(
        &mut self,
        host: &mut HostMemory,
        page: uvm_sim::mem::PageNum,
        core: u32,
        write: bool,
    ) {
        host.cpu_touch(page, core, write);
        let state = self.va_space.block_mut(page.va_block());
        state.host_data.set(page.index_in_block());
    }

    /// Apply a `cudaMemAdvise` hint to every VABlock of `alloc`.
    ///
    /// # Panics
    ///
    /// Panics if `alloc` was not registered via [`Self::managed_alloc`].
    pub fn set_advise(&mut self, alloc: &Allocation, advise: MemAdvise) {
        for block in alloc.va_blocks() {
            self.va_space.block_mut(block).advise = Some(advise);
        }
    }

    /// `cudaMemPrefetchAsync(alloc, device)`: driver-initiated bulk
    /// migration of the whole allocation, block by block, before any GPU
    /// fault. Pays the same compulsory costs a fault-driven first touch
    /// would (DMA setup, CPU unmap, population, transfer, PTE updates) but
    /// amortized into one operation per VABlock. Appends one record
    /// (flagged `driver_prefetch_op`) and returns its end time.
    ///
    /// Blocks already degraded to a remote mapping are skipped (they are
    /// permanently non-migratable). Unrecoverable failures propagate as
    /// [`UvmError`]; transient injected failures are retried under the
    /// same policy as fault-driven servicing.
    ///
    /// # Panics
    ///
    /// Panics if `alloc` was not registered via [`Self::managed_alloc`].
    pub fn prefetch_async(
        &mut self,
        alloc: &Allocation,
        gpu: &mut Gpu,
        host: &mut HostMemory,
        start: SimTime,
    ) -> Result<SimTime, UvmError> {
        let mut rec = self.open_batch(start, 0, true);
        // Explicit prefetch is a cold path (one call per `cudaMemPrefetchAsync`,
        // not per batch): a local scratch is fine.
        let mut evict_scratch = EvictScratch::default();
        for block_id in alloc.va_blocks() {
            let state = self.va_space.try_block(block_id)?;
            if state.degraded {
                continue;
            }
            let migrate = Self::range_bitmap_of(state.valid_pages).and_not(&state.gpu_resident);
            if migrate.is_empty() {
                continue;
            }
            self.lock_block(&mut rec, block_id, 0);
            self.ensure_block_allocated(block_id, gpu, &mut rec, &mut evict_scratch)?;
            self.setup_block_dma(block_id, &mut rec)?;
            self.unmap_block_if_needed(block_id, host, &mut rec)?;
            self.try_migrate_with_recovery(block_id, &migrate, gpu, &mut rec)?;
        }
        let seq = rec.seq;
        charge(&mut rec, Component::Fixed, self.cost.per_batch_fixed, || TraceEvent::Fixed {
            batch: seq,
        });
        Ok(self.close_batch(rec, host))
    }

    /// Sum of all batch service times (the paper's "Batch" column in
    /// Table 4).
    pub fn total_batch_time(&self) -> SimDuration {
        self.records.iter().map(BatchRecord::service_time).sum()
    }

    /// Number of batches serviced.
    pub fn num_batches(&self) -> u64 {
        self.batch_seq
    }

    /// Service one fetched batch starting at `start`. Applies all state
    /// changes to `gpu` and `host`, appends and returns the batch record.
    /// The caller (engine) is responsible for the subsequent buffer flush
    /// and replay.
    ///
    /// Transient injected failures (batch-fetch stalls, DMA-map failures,
    /// host page-table failures, copy-engine faults) are retried up to
    /// [`DriverPolicy::max_retries`] times with deterministic exponential
    /// backoff; a block whose migration keeps failing is degraded to a
    /// remote mapping. `Err` means the recovery policy was exhausted on a
    /// non-degradable stage, or an internal invariant broke.
    pub fn service_batch(
        &mut self,
        faults: &[FaultRecord],
        gpu: &mut Gpu,
        host: &mut HostMemory,
        start: SimTime,
    ) -> Result<&BatchRecord, UvmError> {
        let mut scratch = ServiceScratch::default();
        self.service_batch_with(faults, gpu, host, start, &mut scratch)
    }

    /// [`UvmDriver::service_batch`] with caller-owned working memory.
    ///
    /// The run loop holds one [`ServiceScratch`] for the whole simulation,
    /// so the per-batch pipeline performs no steady-state allocations for
    /// dedup keys, μTLB/SM attribution, or VABlock grouping. Scratch
    /// contents never outlive the call and have no effect on the result —
    /// the output is bit-identical to a fresh-scratch call.
    pub fn service_batch_with(
        &mut self,
        faults: &[FaultRecord],
        gpu: &mut Gpu,
        host: &mut HostMemory,
        start: SimTime,
        scratch: &mut ServiceScratch,
    ) -> Result<&BatchRecord, UvmError> {
        let mut rec = self.open_batch(start, faults.len() as u64, false);
        self.attribute_drops(gpu, &mut rec);
        let reset_absorbed = self.absorb_reset(gpu, &mut rec);
        self.apply_pressure(gpu, &mut rec, &mut scratch.evict)?;
        self.evaluate_health(reset_absorbed, &mut rec);
        self.fetch(&mut rec)?;
        let faults = self.admit(faults, &mut rec, &mut scratch.admitted);
        self.compose(faults, &mut rec, &mut scratch.sms, &mut scratch.utlbs, &mut scratch.seen_pages);
        self.dedup_and_preprocess(faults, &mut rec, &mut scratch.dedup, &mut scratch.dedup_out);
        let unique = &scratch.dedup_out.unique;
        group_by_block(unique, &mut scratch.groups);
        for group in scratch.groups.chunk_by(|a, b| a.0 == b.0) {
            self.service_block(group, unique, gpu, host, &mut rec, &mut scratch.evict)?;
        }
        self.charge_batch_fixed(&mut rec);
        self.close_batch(rec, host);
        if self.policy.audit_enabled {
            crate::audit::audit(self, gpu, host)?;
        }
        // Infallible: `close_batch` just pushed the record and the auditor
        // does not mutate `records`.
        Ok(self.records.last().expect("just pushed"))
    }

    /// Open a batch: assign its sequence number and emit `batch-open`.
    fn open_batch(&mut self, start: SimTime, raw_faults: u64, prefetch_op: bool) -> BatchRecord {
        let seq = self.batch_seq;
        self.batch_seq += 1;
        uvm_trace::emit_instant(start.0, || TraceEvent::BatchOpen {
            batch: seq,
            raw_faults,
            prefetch_op,
        });
        BatchRecord {
            seq,
            start,
            raw_faults,
            driver_prefetch_op: prefetch_op,
            ..Default::default()
        }
    }

    /// Close a batch: account its eviction writebacks host-side (the
    /// capacity, emergency, and degradation paths all accumulate
    /// `bytes_evicted`), stamp its end, emit `batch-close`, and append it
    /// to the log. Returns the end time.
    fn close_batch(&mut self, mut rec: BatchRecord, host: &mut HostMemory) -> SimTime {
        host.note_writeback(rec.bytes_evicted / PAGE_SIZE);
        rec.end = rec.start + rec.component_sum();
        uvm_trace::emit_instant(rec.end.0, || TraceEvent::BatchClose {
            batch: rec.seq,
            raw_faults: rec.raw_faults,
            unique_pages: rec.unique_pages,
            pages_migrated: rec.pages_migrated,
            bytes_migrated: rec.bytes_migrated,
            components: rec.component_ns().to_vec(),
        });
        let end = rec.end;
        self.records.push(rec);
        end
    }

    /// Attribute the hardware-buffer drops since the last batch.
    fn attribute_drops(&mut self, gpu: &Gpu, rec: &mut BatchRecord) {
        let total_drops = gpu.fault_buffer.overflow_drops();
        rec.dropped_faults = total_drops.saturating_sub(self.overflow_seen);
        self.overflow_seen = total_drops;
    }

    /// Sustained GPU-reset domain, consulted once per batch. A fire means
    /// the GPU lost its fault buffer, in-flight GMMU state, and μTLB
    /// entries: the driver pays the re-attach cost and relies on the
    /// end-of-batch replay to wake the blocked warps; the destroyed faults
    /// then regenerate from the last consistent point, exactly like
    /// overflow-dropped entries. Returns whether a reset was absorbed.
    ///
    /// Every failure domain owns an independent forked RNG stream and
    /// disabled points draw nothing, so stock runs are bit-identical to
    /// the pre-chaos pipeline.
    fn absorb_reset(&mut self, gpu: &mut Gpu, rec: &mut BatchRecord) -> bool {
        let fired = self.inj_reset.is_enabled() && self.inj_reset.should_fail(rec.start);
        if !fired {
            return false;
        }
        let lost = gpu.reset(rec.start);
        rec.gpu_resets += 1;
        rec.reset_lost_faults += lost;
        let seq = rec.seq;
        charge(rec, Component::Fixed, self.policy.reset_reattach_cost, || TraceEvent::Fixed {
            batch: seq,
        });
        true
    }

    /// Sustained device-memory-pressure domain, consulted once per batch:
    /// while the point fires, `pressure_reserve_blocks` are withheld and
    /// residency is emergency-evicted to fit. Each victim takes the full
    /// writeback path, the same as a capacity eviction minus the
    /// allocation-failure surcharge — nothing asked for memory; the memory
    /// shrank.
    fn apply_pressure(
        &mut self,
        gpu: &mut Gpu,
        rec: &mut BatchRecord,
        evict_scratch: &mut EvictScratch,
    ) -> Result<(), UvmError> {
        // Consult while the point can still fire OR a reservation is
        // active: an exhausted schedule must still close its window (an
        // exhausted injector draws nothing, so the guard stays zero-draw).
        if !self.inj_pressure.is_enabled() && self.mem.pressure_reserved() == 0 {
            return Ok(());
        }
        if self.inj_pressure.is_enabled() && self.inj_pressure.should_fail(rec.start) {
            self.mem.set_pressure(self.policy.pressure_reserve_blocks);
        } else {
            self.mem.set_pressure(0);
        }
        self.mem.shed_over_capacity_with(evict_scratch);
        let victims = &evict_scratch.victims;
        if self.mem.pressure_reserved() > 0 || !victims.is_empty() {
            let (reserved, evicted) = (self.mem.pressure_reserved(), victims.len() as u64);
            mark(rec, || TraceEvent::MemoryPressure { batch: rec.seq, reserved, evicted });
        }
        for &victim in victims {
            rec.emergency_evictions += 1;
            self.evict_block(victim, EvictTo::Host, SimDuration::ZERO, gpu, rec)?;
        }
        Ok(())
    }

    /// Re-evaluate the health machine at the batch boundary, before
    /// servicing, so the state gates this batch's speculation.
    fn evaluate_health(&mut self, reset_absorbed: bool, rec: &mut BatchRecord) {
        let evidence = HealthEvidence {
            reset_absorbed,
            pressure_reserved: self.mem.pressure_reserved(),
            total_degraded: self.degraded_total,
            degraded_threshold: self.policy.degraded_threshold,
        };
        if let Some((from, to)) = self.health.observe(&evidence) {
            mark(rec, || TraceEvent::HealthTransition {
                batch: rec.seq,
                from: from.name().into(),
                to: to.name().into(),
            });
        }
        rec.health = self.health.state();
        rec.pressure_reserved = self.mem.pressure_reserved();
    }

    /// Account one injected failure at `stage` and, while the retry budget
    /// lasts, charge the deterministic exponential backoff (pure policy —
    /// no RNG) before the next attempt. Returns `false` once the budget is
    /// exhausted and the caller must give up.
    fn retry_after_failure(&self, rec: &mut BatchRecord, attempt: &mut u32, stage: &str) -> bool {
        rec.injected_faults += 1;
        if *attempt >= self.policy.max_retries {
            return false;
        }
        rec.retries += 1;
        let backoff = self.policy.retry_backoff * (1u64 << (*attempt).min(20));
        let seq = rec.seq;
        charge(rec, Component::Backoff, backoff, || TraceEvent::Backoff {
            batch: seq,
            stage: stage.into(),
        });
        *attempt += 1;
        true
    }

    /// Fetch the batch's raw faults from the buffer, first retrying
    /// injected fetch stalls within the retry budget.
    fn fetch(&mut self, rec: &mut BatchRecord) -> Result<(), UvmError> {
        let mut attempt = 0u32;
        while self.inj_fetch.is_enabled() && self.inj_fetch.should_fail(rec.start) {
            if !self.retry_after_failure(rec, &mut attempt, "fetch") {
                return Err(UvmError::BatchFetchStall { batch: rec.seq });
            }
        }
        let (seq, faults) = (rec.seq, rec.raw_faults);
        charge(rec, Component::Fetch, self.cost.fetch_per_fault * faults, || TraceEvent::Fetch {
            batch: seq,
            faults,
        });
        Ok(())
    }

    /// Multi-tenant admission (per-client fairness). Every fetched fault
    /// is attributed to its client; the fairness policy may then reorder
    /// the batch (round-robin) or drop faults over a client's quota —
    /// dropped faults regenerate after the end-of-batch replay, exactly
    /// like buffer-flush drops. With no clients configured this is a
    /// pass-through of the raw slice.
    fn admit<'a>(
        &mut self,
        faults: &'a [FaultRecord],
        rec: &mut BatchRecord,
        admitted: &'a mut Vec<FaultRecord>,
    ) -> &'a [FaultRecord] {
        if !self.clients.is_enabled() {
            return faults;
        }
        let outcome = self.clients.admit(faults, self.policy.batch_limit as u64, admitted);
        rec.client_faults = outcome.per_client;
        rec.throttled_faults = outcome.throttled;
        for (client, &dropped) in outcome.throttled_per_client.iter().enumerate() {
            if dropped > 0 {
                mark(rec, || TraceEvent::FaultThrottled {
                    batch: rec.seq,
                    client: client as u32,
                    dropped,
                });
            }
        }
        admitted
    }

    /// Composition accounting of the admitted faults: the access-kind mix,
    /// the distinct SMs and μTLBs contributing, and — when logging — the
    /// per-fault metadata of the paper's first driver variant.
    fn compose(
        &mut self,
        faults: &[FaultRecord],
        rec: &mut BatchRecord,
        sms: &mut Vec<u32>,
        utlbs: &mut Vec<u32>,
        seen: &mut HashSet<PageNum>,
    ) {
        sms.clear();
        utlbs.clear();
        for f in faults {
            sms.push(f.sm);
            utlbs.push(f.utlb);
            match f.kind {
                AccessKind::Read => rec.read_faults += 1,
                AccessKind::Write => rec.write_faults += 1,
                AccessKind::Prefetch => rec.prefetch_faults += 1,
            }
        }
        sms.sort_unstable();
        sms.dedup();
        utlbs.sort_unstable();
        utlbs.dedup();
        rec.distinct_sms = sms.len() as u32;
        rec.distinct_utlbs = utlbs.len() as u32;

        if self.policy.log_fault_metadata {
            seen.clear();
            for f in faults {
                let was_duplicate = !seen.insert(f.page);
                self.fault_log.push(FaultMeta {
                    batch_seq: rec.seq,
                    page: f.page.0,
                    kind: f.kind.into(),
                    sm: f.sm,
                    utlb: f.utlb,
                    arrival: f.arrival,
                    was_duplicate,
                });
            }
        }
    }

    /// Deduplicate the admitted faults into `out` and charge the
    /// preprocess time.
    fn dedup_and_preprocess(
        &self,
        faults: &[FaultRecord],
        rec: &mut BatchRecord,
        dedup: &mut DedupScratch,
        out: &mut DedupResult,
    ) {
        classify_duplicates_with(faults, dedup, out);
        rec.dup_same_utlb = out.dup_same_utlb;
        rec.dup_cross_utlb = out.dup_cross_utlb;
        rec.unique_pages = out.unique.len() as u64;
        let mut preprocess = self.cost.preprocess_per_fault * faults.len() as u64;
        if !self.policy.dedup_enabled {
            // Ablation: without dedup, every duplicate walks the servicing
            // path redundantly — block lookup, residency check, page-table
            // no-op — before being discovered already-handled.
            preprocess +=
                (self.cost.preprocess_per_fault + self.cost.pte_update_per_page) * out.total_dups();
        }
        let seq = rec.seq;
        charge(rec, Component::Preprocess, preprocess, || TraceEvent::Preprocess {
            batch: seq,
            faults: faults.len() as u64,
        });
        mark(rec, || TraceEvent::DedupHit {
            batch: seq,
            same_utlb: out.dup_same_utlb,
            cross_utlb: out.dup_cross_utlb,
            unique: out.unique.len() as u64,
        });
        if uvm_trace::enabled() {
            // Lifetime anchors: one per unique fault entering service, with
            // its buffer-arrival time (joined to this batch's close by the
            // fault-lifetime exporter).
            for f in &out.unique {
                uvm_trace::emit_instant(rec.start.0, || TraceEvent::FaultServiced {
                    batch: seq,
                    page: f.page.0,
                    sm: f.sm,
                    utlb: f.utlb,
                    arrival_ns: f.arrival.0,
                });
            }
        }
    }

    /// Host-side scheduling noise on the management portion (everything
    /// but the DMA transfers, which are hardware-paced, and the retry
    /// backoff, which is deterministic policy), charged with the per-batch
    /// fixed overhead as one span.
    fn charge_batch_fixed(&mut self, rec: &mut BatchRecord) {
        let fixed = self.cost.per_batch_fixed;
        let mgmt = rec.component_sum() + fixed - rec.t_transfer - rec.t_evict - rec.t_backoff;
        let jitter = self.rng.jitter_factor(self.cost.service_jitter);
        let jittered_extra = mgmt.mul_f64(jitter).saturating_sub(mgmt);
        let seq = rec.seq;
        charge(rec, Component::Fixed, fixed + jittered_extra, || TraceEvent::Fixed {
            batch: seq,
        });
    }

    /// A bitmap covering pages `0..valid`.
    fn range_bitmap_of(valid: u32) -> PageBitmap {
        let mut bm = PageBitmap::EMPTY;
        bm.set_range(0, valid as usize);
        bm
    }

    /// Take the per-VABlock lock: count the block as serviced with
    /// `faults` unique faults and charge the per-VABlock management cost.
    fn lock_block(&self, rec: &mut BatchRecord, block_id: VaBlockId, faults: u32) {
        rec.num_va_blocks += 1;
        rec.served_blocks.push(block_id.0);
        rec.per_block_faults.push(faults);
        let seq = rec.seq;
        charge(rec, Component::Fixed, self.cost.per_vablock_fixed, || TraceEvent::VaBlockLock {
            batch: seq,
            block: block_id.0,
            faults: u64::from(faults),
        });
    }

    /// Service one VABlock's share of the batch: `group` holds its
    /// `(block, index)` keys into the batch's `unique` faults.
    fn service_block(
        &mut self,
        group: &[(VaBlockId, u32)],
        unique: &[FaultRecord],
        gpu: &mut Gpu,
        host: &mut HostMemory,
        rec: &mut BatchRecord,
        evict_scratch: &mut EvictScratch,
    ) -> Result<(), UvmError> {
        let block_id = group[0].0;
        self.lock_block(rec, block_id, group.len() as u32);

        // Faulted pages not already resident (or remote-mapped) on the
        // GPU.
        let state = self.va_space.try_block(block_id)?;
        let (valid, advise, degraded) = (state.valid_pages, state.advise, state.degraded);
        let resident_now = state.gpu_resident.or(&state.remote_mapped);
        let any_write = group.iter().any(|&(_, i)| unique[i as usize].kind == AccessKind::Write);
        let mut faulted = PageBitmap::EMPTY;
        for &(_, i) in group {
            let idx = unique[i as usize].page.index_in_block();
            debug_assert!((idx as u32) < valid, "fault beyond allocation end in block {block_id:?}");
            faulted.set(idx);
        }
        let faulted = faulted.and_not(&resident_now);

        if self.policy.thrashing_mitigation {
            self.update_thrashing_pin(block_id, gpu, rec);
        }
        let pinned = self.va_space.try_block(block_id)?.pinned_until.is_some();

        // PreferredLocationHost — and blocks degraded by exhausted
        // migration retries — establish remote mappings over the
        // interconnect instead of migrating: no device memory, no
        // eviction pressure, but every access crosses PCIe.
        if pinned || degraded || advise == Some(MemAdvise::PreferredLocationHost) {
            if !faulted.is_empty() {
                self.setup_block_dma(block_id, rec)?;
                self.map_remote(block_id, &faulted, gpu, rec)?;
            }
            return Ok(());
        }

        let prefetched = self.prefetch_expansion(block_id, &faulted, valid, rec);
        let migrate = faulted.or(&prefetched);
        if migrate.is_empty() {
            // Stale faults for already-resident pages: management cost
            // only.
            return Ok(());
        }

        self.ensure_block_allocated(block_id, gpu, rec, evict_scratch)?;
        self.setup_block_dma(block_id, rec)?;

        // Fault-path CPU unmap — skipped under ReadMostly duplication
        // unless a write collapses it. (Simplification: the GPU page
        // table carries no write permissions, so a write to an
        // already-duplicated *resident* page does not re-fault; the
        // collapse happens only when the write itself faults. Data
        // values are not modelled, so the stale CPU copy is cost-
        // neutral.)
        let read_mostly = advise == Some(MemAdvise::ReadMostly) && !any_write;
        if !read_mostly {
            self.unmap_block_if_needed(block_id, host, rec)?;
        }
        // A block degraded to a remote mapping instead of migrated keeps
        // no read duplication.
        if self.try_migrate_with_recovery(block_id, &migrate, gpu, rec)? {
            self.va_space.try_block_mut(block_id)?.read_duplicated = read_mostly;
        }
        Ok(())
    }

    /// Thrashing mitigation (extension, off by default): a block refaulted
    /// shortly after its eviction ping-pongs; pin it host-side for a while
    /// instead of re-migrating. An expired pin unmaps the block's remote
    /// mappings so the next faults migrate normally.
    fn update_thrashing_pin(&mut self, block_id: VaBlockId, gpu: &mut Gpu, rec: &mut BatchRecord) {
        let seq = rec.seq;
        let state = self.va_space.block_mut(block_id);
        if let Some(evicted_at) = state.last_evict_seq {
            if state.pinned_until.is_none()
                && seq.saturating_sub(evicted_at) <= self.policy.thrashing_window
            {
                state.pinned_until = Some(seq + self.policy.thrashing_pin);
                rec.thrashing_pins += 1;
            }
        }
        if state.pinned_until.is_some_and(|until| seq >= until) {
            state.pinned_until = None;
            let remote = state.remote_mapped;
            let before = state.accessible_pages();
            state.remote_mapped.reset();
            let after = state.accessible_pages();
            gpu.unmap_pages(remote.iter_set().map(|i| block_id.page_at(i)));
            self.clients.residency_changed(block_id, before, after);
        }
    }

    /// Prefetch expansion, confined to this block, dispatched through the
    /// policy engine. The engine's invariant mask is an identity for the
    /// stock tree policy, so TreeDensity output is bit-identical to a
    /// direct `compute_prefetch` call. Any non-Healthy regime suspends
    /// speculation: migrating pages nobody asked for into a pressured or
    /// resetting device is how real drivers thrash.
    fn prefetch_expansion(
        &self,
        block_id: VaBlockId,
        faulted: &PageBitmap,
        valid: u32,
        rec: &mut BatchRecord,
    ) -> PageBitmap {
        let prefetched = if self.policy.prefetch_enabled && self.health.state().prefetch_allowed() {
            run_prefetch_policy(
                self.policy.prefetch_policy,
                &PrefetchContext {
                    resident: &self.va_space.block(block_id).gpu_resident,
                    faulted,
                    valid_pages: valid,
                    threshold: self.policy.prefetch_threshold,
                    stride_pages: self.policy.stride_pages,
                    future: self.oracle_future.get(&block_id),
                },
            )
        } else {
            PageBitmap::EMPTY
        };
        rec.prefetched_pages += u64::from(prefetched.count());
        mark(rec, || TraceEvent::PrefetchDecision {
            batch: rec.seq,
            block: block_id.0,
            faulted: u64::from(faulted.count()),
            prefetched: u64::from(prefetched.count()),
        });
        prefetched
    }

    /// Ensure `block_id` holds a GPU physical allocation, performing
    /// policy-selected evictions (each paying the allocation-failure
    /// surcharge, plus one service restart) if the device is full.
    fn ensure_block_allocated(
        &mut self,
        block_id: VaBlockId,
        gpu: &mut Gpu,
        rec: &mut BatchRecord,
        evict_scratch: &mut EvictScratch,
    ) -> Result<(), UvmError> {
        match self.mem.ensure_resident_with(block_id, rec.seq, evict_scratch)? {
            ResidencyOutcome::AlreadyResident => return Ok(()),
            ResidencyOutcome::Allocated => {}
            ResidencyOutcome::Evicted => {
                let victims = &evict_scratch.victims;
                let policy_name = self.mem.policy().name();
                mark(rec, || TraceEvent::EvictDecision {
                    batch: rec.seq,
                    policy: policy_name.into(),
                    victims: victims.len() as u64,
                });
                for &victim in victims {
                    // Multi-GPU peer backends spill capacity victims to a
                    // peer GPU over the interconnect instead of writing
                    // them back to host RAM: cheaper per byte, and a later
                    // re-fault fetches them back at P2P cost. Read-
                    // duplicated victims keep the stock path (dropping the
                    // GPU copy is free — no transfer to save), and a full
                    // directory falls back to the host writeback.
                    let vstate = self.va_space.try_block(victim)?;
                    let spilled = self.peer_dir.is_enabled()
                        && !vstate.read_duplicated
                        && !vstate.gpu_resident.is_empty()
                        && self.peer_dir.try_spill(victim, &vstate.gpu_resident).is_some();
                    let to = if spilled { EvictTo::Peer } else { EvictTo::Host };
                    rec.evictions += 1;
                    // Fail the allocation, move the victim out, and restart
                    // the migration step (Sec. 5.1). Host-written-back data
                    // is NOT re-mapped into CPU page tables — so a
                    // re-migration later skips the unmap cost (the Fig. 13
                    // levels).
                    self.evict_block(victim, to, self.cost.alloc_fail, gpu, rec)?;
                }
                let seq = rec.seq;
                // Victimless span: the service-restart surcharge.
                charge(rec, Component::Evict, self.cost.service_restart, || TraceEvent::Evict {
                    batch: seq,
                    victim: None,
                    bytes: 0,
                });
            }
        }
        self.va_space.try_block_mut(block_id)?.gpu_allocated = true;
        Ok(())
    }

    /// Evict `victim`'s resident pages to `to`, charging `surcharge` on top
    /// of the writeback, and apply the block's eviction state transition.
    /// Shared by the capacity (host writeback or peer spill) and emergency
    /// eviction paths.
    fn evict_block(
        &mut self,
        victim: VaBlockId,
        to: EvictTo,
        surcharge: SimDuration,
        gpu: &mut Gpu,
        rec: &mut BatchRecord,
    ) -> Result<(), UvmError> {
        rec.evicted_blocks.push(victim.0);
        let vstate = self.va_space.try_block_mut(victim)?;
        write_back(&self.cost, rec, vstate, to, surcharge, gpu);
        let before = vstate.accessible_pages();
        match to {
            EvictTo::Host => vstate.evict(),
            EvictTo::Peer => vstate.evict_to_peer(),
        }
        vstate.last_evict_seq = Some(rec.seq);
        let after = vstate.accessible_pages();
        self.clients.residency_changed(victim, before, after);
        self.clients.note_eviction(victim);
        Ok(())
    }

    /// First GPU touch of a block: create DMA mappings for every valid
    /// page and store reverse mappings in the kernel radix tree.
    /// Compulsory; prefetching cannot eliminate it (Sec. 5.2). An injected
    /// DMA-map failure is retried with backoff; exhaustion is fatal for
    /// the batch (the block cannot be serviced at all without mappings).
    fn setup_block_dma(&mut self, block_id: VaBlockId, rec: &mut BatchRecord) -> Result<(), UvmError> {
        let state = self.va_space.try_block(block_id)?;
        if state.dma_mapped {
            return Ok(());
        }
        let valid = state.valid_pages;
        let mut attempt = 0u32;
        let report = loop {
            let pages = (0..valid as usize).map(|i| block_id.page_at(i));
            match self.dma.try_map_pages(block_id, pages, rec.start) {
                Ok(report) => break report,
                Err(e) => {
                    if !self.retry_after_failure(rec, &mut attempt, "dma") {
                        return Err(e);
                    }
                }
            }
        };
        let base = self
            .cost
            .dma_setup_time(report.pages_mapped, report.radix_nodes_allocated);
        // Drawn only after a successful mapping, so the injection-off RNG
        // stream is identical to the pre-injection pipeline.
        let tail = self
            .rng
            .heavy_tail(self.cost.dma_tail_prob, self.cost.dma_tail_max_factor);
        let seq = rec.seq;
        charge(rec, Component::DmaSetup, base.mul_f64(tail), || TraceEvent::DmaSetup {
            batch: seq,
            block: block_id.0,
        });
        self.va_space.try_block_mut(block_id)?.dma_mapped = true;
        rec.new_va_blocks += 1;
        Ok(())
    }

    /// Fault-path CPU unmap: tear down every CPU mapping in the block
    /// before migrating. An injected host page-table failure is retried
    /// with backoff; exhaustion is fatal (migrating while CPU mappings
    /// persist would alias the page).
    fn unmap_block_if_needed(
        &mut self,
        block_id: VaBlockId,
        host: &mut HostMemory,
        rec: &mut BatchRecord,
    ) -> Result<(), UvmError> {
        if host.mapped_pages_in_block(block_id) == 0 {
            return Ok(());
        }
        let mut attempt = 0u32;
        let report = loop {
            match host.try_unmap_mapping_range(block_id, rec.start) {
                Ok(report) => break report,
                Err(e) => {
                    if !self.retry_after_failure(rec, &mut attempt, "unmap") {
                        return Err(e);
                    }
                }
            }
        };
        rec.cpu_pages_unmapped += report.pages_unmapped;
        // A GPU-driven backend still tears the CPU mappings down (the
        // host page-table state transition is a correctness requirement —
        // audit invariant 5 — and the unmapped-page count stays
        // comparable), but the work happens off the fault critical path:
        // no time is charged and no `CpuUnmap` span is emitted, so the
        // unmap component vanishes from the batch breakdown entirely.
        if self.backend.charges_host_unmap() {
            let d = self
                .cost
                .unmap_time(report.pages_unmapped, report.mapper_cores)
                .mul_f64(report.numa_factor);
            let seq = rec.seq;
            charge(rec, Component::Unmap, d, || TraceEvent::CpuUnmap {
                batch: seq,
                block: block_id.0,
                pages: report.pages_unmapped,
            });
        }
        Ok(())
    }

    /// Run the copy engine for `migrate` pages of `block_id`, retrying
    /// injected copy-engine faults with backoff. Returns `Ok(true)` when
    /// the migration happened, `Ok(false)` when retries were exhausted and
    /// the block was degraded to a remote mapping instead.
    fn try_migrate_with_recovery(
        &mut self,
        block_id: VaBlockId,
        migrate: &PageBitmap,
        gpu: &mut Gpu,
        rec: &mut BatchRecord,
    ) -> Result<bool, UvmError> {
        let mut attempt = 0u32;
        while self.inj_copy.is_enabled() && self.inj_copy.should_fail(rec.start) {
            if !self.retry_after_failure(rec, &mut attempt, "copy") {
                self.degrade_to_remote(block_id, migrate, gpu, rec)?;
                return Ok(false);
            }
        }
        self.migrate_pages(block_id, migrate, gpu, rec)?;
        Ok(true)
    }

    /// Last-resort recovery when migration keeps failing: give up the
    /// block's device allocation (writing any resident data back) and map
    /// the pages remotely from sysmem, permanently. Mirrors the real
    /// driver's fallback of leaving pages at their current location when
    /// the copy engine is unusable.
    fn degrade_to_remote(
        &mut self,
        block_id: VaBlockId,
        pages: &PageBitmap,
        gpu: &mut Gpu,
        rec: &mut BatchRecord,
    ) -> Result<(), UvmError> {
        let state = self.va_space.try_block(block_id)?;
        let had_alloc = state.gpu_allocated;
        let remote = pages.or(&state.gpu_resident);
        if had_alloc {
            // Release the device allocation: resident data writes back to
            // host RAM (free under read duplication), and the chunk frees
            // without counting as an LRU eviction.
            write_back(&self.cost, rec, state, EvictTo::Host, SimDuration::ZERO, gpu);
            self.mem.release(block_id);
        }
        let state = self.va_space.try_block_mut(block_id)?;
        let before = state.accessible_pages();
        if !state.read_duplicated {
            let evicted = state.gpu_resident;
            state.host_data.merge(&evicted);
        }
        state.gpu_resident.reset();
        state.gpu_allocated = false;
        state.read_duplicated = false;
        state.degraded = true;
        let after = state.accessible_pages();
        self.clients.residency_changed(block_id, before, after);
        rec.degraded_blocks += 1;
        self.degraded_total += 1;
        // The block now serves permanently from sysmem.
        self.map_remote(block_id, &remote, gpu, rec)?;
        if had_alloc {
            self.clients.note_eviction(block_id);
        }
        self.clients.note_degraded(block_id);
        Ok(())
    }

    /// Map `pages` of `block_id` remotely from sysmem: peer-held pages
    /// come home first (sysmem must hold current data), then the GPU page
    /// table is written. Shared by the remote-mapping and degradation
    /// paths.
    fn map_remote(
        &mut self,
        block_id: VaBlockId,
        pages: &PageBitmap,
        gpu: &mut Gpu,
        rec: &mut BatchRecord,
    ) -> Result<(), UvmError> {
        self.reclaim_peer_overlap(block_id, pages, rec)?;
        let (seq, n) = (rec.seq, u64::from(pages.count()));
        charge(rec, Component::Pte, self.cost.pte_time(n), || TraceEvent::PteUpdate {
            batch: seq,
            block: block_id.0,
            pages: n,
        });
        rec.remote_mapped_pages += n;
        let state = self.va_space.try_block_mut(block_id)?;
        let before = state.accessible_pages();
        state.remote_mapped.merge(pages);
        let after = state.accessible_pages();
        gpu.map_pages(pages.iter_set().map(|i| block_id.page_at(i)));
        self.clients.residency_changed(block_id, before, after);
        Ok(())
    }

    /// Population (zero-fill of fresh GPU pages), migration, and
    /// page-table updates for `migrate` pages of `block_id`. Only pages
    /// with host data pay a transfer; never-touched pages are populated
    /// directly on the GPU.
    fn migrate_pages(
        &mut self,
        block_id: VaBlockId,
        migrate: &PageBitmap,
        gpu: &mut Gpu,
        rec: &mut BatchRecord,
    ) -> Result<(), UvmError> {
        let state = self.va_space.try_block_mut(block_id)?;
        let seq = rec.seq;
        let n_pages = u64::from(migrate.count());
        // Pages whose current copy sits on a peer GPU come back over the
        // interconnect (move semantics: the peer copy is released); the
        // rest pay a host→device transfer if they have host data, or are
        // populated only. A page with both a peer copy and stale host data
        // fetches from the peer — that copy is current.
        let from_peer = migrate.and(&state.peer_pages);
        let data_pages = u64::from(migrate.and(&state.host_data).and_not(&from_peer).count());
        let bytes = data_pages * PAGE_SIZE;
        charge(rec, Component::Populate, self.cost.populate_time(n_pages), || {
            TraceEvent::Populate { batch: seq, block: block_id.0, pages: n_pages }
        });
        if !from_peer.is_empty() {
            let peer_pages = u64::from(from_peer.count());
            let peer_bytes = peer_pages * PAGE_SIZE;
            rec.pages_from_peer += peer_pages;
            rec.bytes_from_peer += peer_bytes;
            charge(rec, Component::Transfer, self.cost.p2p_time(peer_bytes), || {
                TraceEvent::Transfer { batch: seq, block: block_id.0, bytes: peer_bytes }
            });
            state.peer_pages = state.peer_pages.and_not(&from_peer);
            let _ = self.peer_dir.take_overlap(block_id, &from_peer);
        }
        charge(rec, Component::Transfer, self.cost.h2d_time(bytes), || TraceEvent::Transfer {
            batch: seq,
            block: block_id.0,
            bytes,
        });
        charge(rec, Component::Pte, self.cost.pte_time(n_pages), || TraceEvent::PteUpdate {
            batch: seq,
            block: block_id.0,
            pages: n_pages,
        });
        rec.pages_migrated += n_pages;
        rec.bytes_migrated += bytes;

        let before = state.accessible_pages();
        state.gpu_resident.merge(migrate);
        let after = state.accessible_pages();
        state.last_migrate_seq = seq;
        gpu.map_pages(migrate.iter_set().map(|i| block_id.page_at(i)));
        self.clients.residency_changed(block_id, before, after);
        Ok(())
    }

    /// Reclaim any peer-held pages of `block_id` overlapping `wanted` back
    /// into host RAM before they are remote-mapped from sysmem: a remote
    /// mapping serves host data, so the authoritative peer copy must come
    /// home first. Pays the peer→host interconnect transfer into
    /// `t_evict`. A no-op for non-peer backends and peer-clean overlaps.
    fn reclaim_peer_overlap(
        &mut self,
        block_id: VaBlockId,
        wanted: &PageBitmap,
        rec: &mut BatchRecord,
    ) -> Result<(), UvmError> {
        if !self.peer_dir.is_enabled() {
            return Ok(());
        }
        let state = self.va_space.try_block_mut(block_id)?;
        let overlap = wanted.and(&state.peer_pages);
        if overlap.is_empty() {
            return Ok(());
        }
        let (seq, bytes) = (rec.seq, u64::from(overlap.count()) * PAGE_SIZE);
        charge(rec, Component::Evict, self.cost.p2p_time(bytes), || TraceEvent::Evict {
            batch: seq,
            victim: Some(block_id.0),
            bytes,
        });
        state.peer_pages = state.peer_pages.and_not(&overlap);
        state.host_data.merge(&overlap);
        let _ = self.peer_dir.reclaim_overlap(block_id, &overlap);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvm_gpu::spec::GpuSpec;
    use uvm_sim::mem::{AddressSpaceAllocator, VABLOCK_SIZE};

    fn setup(capacity_blocks: u64, policy: DriverPolicy) -> (UvmDriver, Gpu, HostMemory) {
        let cost = CostModel::titan_v();
        let driver = UvmDriver::new(policy, cost.clone(), capacity_blocks, 42);
        let gpu = Gpu::new(GpuSpec::small(capacity_blocks * VABLOCK_SIZE), cost);
        (driver, gpu, HostMemory::new())
    }

    fn fault(page: uvm_sim::mem::PageNum, utlb: u32, kind: AccessKind) -> FaultRecord {
        FaultRecord {
            page,
            kind,
            sm: utlb * 2,
            utlb,
            warp: 0,
            arrival: SimTime(0),
            dup_of_outstanding: false,
        }
    }

    #[test]
    fn simple_batch_migrates_faulted_pages() -> Result<(), UvmError> {
        let (mut driver, mut gpu, mut host) = setup(16, DriverPolicy::default());
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(VABLOCK_SIZE);
        driver.managed_alloc(alloc);
        for i in 0..alloc.num_pages() {
            driver.cpu_touch(&mut host, alloc.page(i), 0, true);
        }

        let faults: Vec<_> = (0..10).map(|i| fault(alloc.page(i), 0, AccessKind::Read)).collect();
        let rec = driver.service_batch(&faults, &mut gpu, &mut host, SimTime(1000))?;
        assert_eq!(rec.raw_faults, 10);
        assert_eq!(rec.unique_pages, 10);
        assert_eq!(rec.pages_migrated, 10);
        assert_eq!(rec.bytes_migrated, 10 * PAGE_SIZE);
        assert_eq!(rec.num_va_blocks, 1);
        assert_eq!(rec.new_va_blocks, 1);
        assert!(rec.t_dma_setup > SimDuration::ZERO, "first touch pays DMA setup");
        assert!(gpu.is_resident(alloc.page(0)));
        assert!(gpu.is_resident(alloc.page(9)));
        assert!(!gpu.is_resident(alloc.page(10)));
        assert!(rec.end > rec.start);
        Ok(())
    }

    #[test]
    fn untouched_pages_migrate_without_transfer() -> Result<(), UvmError> {
        // Pages never written by the CPU have no host data: the driver
        // populates them directly on the GPU, moving zero bytes.
        let (mut driver, mut gpu, mut host) = setup(16, DriverPolicy::default());
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(VABLOCK_SIZE);
        driver.managed_alloc(alloc);
        let faults: Vec<_> = (0..10).map(|i| fault(alloc.page(i), 0, AccessKind::Write)).collect();
        let rec = driver.service_batch(&faults, &mut gpu, &mut host, SimTime(0))?;
        assert_eq!(rec.pages_migrated, 10);
        assert_eq!(rec.bytes_migrated, 0, "no host data, nothing to transfer");
        assert_eq!(rec.t_transfer, SimDuration::ZERO);
        assert!(rec.t_populate > SimDuration::ZERO);
        assert!(gpu.is_resident(alloc.page(0)));
        Ok(())
    }

    #[test]
    fn second_batch_same_block_skips_dma_setup() -> Result<(), UvmError> {
        let (mut driver, mut gpu, mut host) = setup(16, DriverPolicy::default());
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(VABLOCK_SIZE);
        driver.managed_alloc(alloc);

        let f1: Vec<_> = (0..4).map(|i| fault(alloc.page(i), 0, AccessKind::Read)).collect();
        driver.service_batch(&f1, &mut gpu, &mut host, SimTime(0))?;
        let f2: Vec<_> = (4..8).map(|i| fault(alloc.page(i), 0, AccessKind::Read)).collect();
        let rec = driver.service_batch(&f2, &mut gpu, &mut host, SimTime(1_000_000))?;
        assert_eq!(rec.new_va_blocks, 0);
        assert_eq!(rec.t_dma_setup, SimDuration::ZERO);
        Ok(())
    }

    #[test]
    fn duplicates_counted_but_not_migrated() -> Result<(), UvmError> {
        let (mut driver, mut gpu, mut host) = setup(16, DriverPolicy::default());
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(VABLOCK_SIZE);
        driver.managed_alloc(alloc);

        let p = alloc.page(0);
        let faults = vec![
            fault(p, 0, AccessKind::Read),
            fault(p, 0, AccessKind::Read), // type 1
            fault(p, 2, AccessKind::Read), // type 2
        ];
        let rec = driver.service_batch(&faults, &mut gpu, &mut host, SimTime(0))?;
        assert_eq!(rec.raw_faults, 3);
        assert_eq!(rec.unique_pages, 1);
        assert_eq!(rec.dup_same_utlb, 1);
        assert_eq!(rec.dup_cross_utlb, 1);
        assert_eq!(rec.pages_migrated, 1);
        Ok(())
    }

    #[test]
    fn cpu_resident_block_pays_unmap_once() -> Result<(), UvmError> {
        let (mut driver, mut gpu, mut host) = setup(16, DriverPolicy::default());
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(VABLOCK_SIZE);
        driver.managed_alloc(alloc);
        // CPU initializes the first 100 pages from core 0.
        for i in 0..100 {
            driver.cpu_touch(&mut host, alloc.page(i), 0, true);
        }

        let f1 = vec![fault(alloc.page(0), 0, AccessKind::Read)];
        let r1 = driver.service_batch(&f1, &mut gpu, &mut host, SimTime(0))?.clone();
        assert_eq!(r1.cpu_pages_unmapped, 100, "whole block range unmapped");
        assert!(r1.t_unmap > SimDuration::ZERO);

        let f2 = vec![fault(alloc.page(1), 0, AccessKind::Read)];
        let r2 = driver.service_batch(&f2, &mut gpu, &mut host, SimTime(1_000_000))?.clone();
        assert_eq!(r2.cpu_pages_unmapped, 0, "second touch pays no unmap");
        assert_eq!(r2.t_unmap, SimDuration::ZERO);
        Ok(())
    }

    #[test]
    fn multithreaded_init_inflates_unmap_cost() -> Result<(), UvmError> {
        // Fig. 11: same pages, same faults — more mapper cores, higher cost.
        let run = |threads: u32| {
            let (mut driver, mut gpu, mut host) = setup(16, DriverPolicy::default());
            let mut asa = AddressSpaceAllocator::new();
            let alloc = asa.alloc(VABLOCK_SIZE);
            driver.managed_alloc(alloc);
            for i in 0..512 {
                driver.cpu_touch(&mut host, alloc.page(i), (i as u32) % threads, true);
            }
            let f = vec![fault(alloc.page(0), 0, AccessKind::Read)];
            Ok::<_, UvmError>(driver.service_batch(&f, &mut gpu, &mut host, SimTime(0))?.t_unmap)
        };
        let single = run(1)?;
        let multi = run(32)?;
        assert!(multi > single * 2, "single {single}, multi {multi}");
        Ok(())
    }

    #[test]
    fn oversubscription_evicts_lru_block() -> Result<(), UvmError> {
        let (mut driver, mut gpu, mut host) = setup(2, DriverPolicy::default());
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(3 * VABLOCK_SIZE);
        driver.managed_alloc(alloc);
        let blocks: Vec<VaBlockId> = alloc.va_blocks().collect();

        // Touch blocks 0, 1, then 2: block 0 must be evicted.
        for (i, &b) in blocks.iter().enumerate() {
            let f = vec![fault(b.first_page(), 0, AccessKind::Read)];
            let rec = driver.service_batch(&f, &mut gpu, &mut host, SimTime(i as u64 * 1_000_000))?;
            if i < 2 {
                assert_eq!(rec.evictions, 0);
            } else {
                assert_eq!(rec.evictions, 1);
                assert!(rec.t_evict > SimDuration::ZERO);
                assert!(rec.bytes_evicted > 0);
            }
        }
        assert!(!gpu.is_resident(blocks[0].first_page()));
        assert!(gpu.is_resident(blocks[2].first_page()));
        assert_eq!(driver.va_space.block(blocks[0]).evict_count, 1);
        Ok(())
    }

    #[test]
    fn re_migration_after_eviction_skips_unmap() -> Result<(), UvmError> {
        // Fig. 13's cost levels: the first migration pays unmap; after an
        // eviction, re-migration does not (data is in host RAM, unmapped).
        let (mut driver, mut gpu, mut host) = setup(1, DriverPolicy::default());
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(2 * VABLOCK_SIZE);
        driver.managed_alloc(alloc);
        let blocks: Vec<VaBlockId> = alloc.va_blocks().collect();
        for i in 0..1024 {
            driver.cpu_touch(&mut host, alloc.page(i), 0, true);
        }

        // Migrate block 0 (pays unmap), then block 1 (evicts 0, pays its
        // own unmap), then block 0 again (evicts 1, NO unmap).
        let r0 = driver
            .service_batch(&[fault(blocks[0].first_page(), 0, AccessKind::Read)], &mut gpu, &mut host, SimTime(0))?
            .clone();
        let r1 = driver
            .service_batch(&[fault(blocks[1].first_page(), 0, AccessKind::Read)], &mut gpu, &mut host, SimTime(1_000_000))?
            .clone();
        let r2 = driver
            .service_batch(&[fault(blocks[0].first_page(), 0, AccessKind::Read)], &mut gpu, &mut host, SimTime(2_000_000))?
            .clone();
        assert!(r0.t_unmap > SimDuration::ZERO);
        assert!(r1.t_unmap > SimDuration::ZERO);
        assert_eq!(r1.evictions, 1);
        assert_eq!(r2.evictions, 1);
        assert_eq!(r2.t_unmap, SimDuration::ZERO, "re-migration skips unmap");
        Ok(())
    }

    #[test]
    fn prefetch_expands_dense_faults() -> Result<(), UvmError> {
        let (mut driver, mut gpu, mut host) = setup(16, DriverPolicy::with_prefetch());
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(VABLOCK_SIZE);
        driver.managed_alloc(alloc);

        // 12 of the first 16 pages fault: the 64 KiB leaf upgrades.
        let faults: Vec<_> = (0..12).map(|i| fault(alloc.page(i), 0, AccessKind::Read)).collect();
        let rec = driver.service_batch(&faults, &mut gpu, &mut host, SimTime(0))?;
        assert_eq!(rec.prefetched_pages, 4);
        assert_eq!(rec.pages_migrated, 16);
        assert!(gpu.is_resident(alloc.page(15)));
        Ok(())
    }

    #[test]
    fn prefetch_disabled_migrates_only_faulted() -> Result<(), UvmError> {
        let (mut driver, mut gpu, mut host) = setup(16, DriverPolicy::default());
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(VABLOCK_SIZE);
        driver.managed_alloc(alloc);
        let faults: Vec<_> = (0..12).map(|i| fault(alloc.page(i), 0, AccessKind::Read)).collect();
        let rec = driver.service_batch(&faults, &mut gpu, &mut host, SimTime(0))?;
        assert_eq!(rec.prefetched_pages, 0);
        assert_eq!(rec.pages_migrated, 12);
        assert!(!gpu.is_resident(alloc.page(15)));
        Ok(())
    }

    #[test]
    fn transfer_is_minority_of_batch_time() -> Result<(), UvmError> {
        // Fig. 7: transfer at most ~25% of batch time.
        let (mut driver, mut gpu, mut host) = setup(16, DriverPolicy::default());
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(4 * VABLOCK_SIZE);
        driver.managed_alloc(alloc);
        for i in 0..alloc.num_pages() {
            driver.cpu_touch(&mut host, alloc.page(i), 0, true);
        }
        // A realistic batch: 200 faults spread over 4 blocks.
        let faults: Vec<_> = (0..200)
            .map(|i| fault(alloc.page(i * 10), (i % 4) as u32, AccessKind::Read))
            .collect();
        let rec = driver.service_batch(&faults, &mut gpu, &mut host, SimTime(0))?;
        assert!(
            rec.transfer_fraction() < 0.30,
            "transfer fraction {}",
            rec.transfer_fraction()
        );
        Ok(())
    }

    #[test]
    fn fault_metadata_logged_when_enabled() -> Result<(), UvmError> {
        let policy = DriverPolicy::default().log_faults(true);
        let (mut driver, mut gpu, mut host) = setup(16, policy);
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(VABLOCK_SIZE);
        driver.managed_alloc(alloc);
        let p = alloc.page(0);
        let faults = vec![fault(p, 0, AccessKind::Read), fault(p, 0, AccessKind::Read)];
        driver.service_batch(&faults, &mut gpu, &mut host, SimTime(0))?;
        assert_eq!(driver.fault_log.len(), 2);
        assert!(!driver.fault_log[0].was_duplicate);
        assert!(driver.fault_log[1].was_duplicate);
        Ok(())
    }

    #[test]
    fn read_mostly_skips_unmap_and_writeback() -> Result<(), UvmError> {
        let (mut driver, mut gpu, mut host) = setup(1, DriverPolicy::default());
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(2 * VABLOCK_SIZE);
        driver.managed_alloc(alloc);
        driver.set_advise(&alloc, crate::advise::MemAdvise::ReadMostly);
        for i in 0..1024 {
            driver.cpu_touch(&mut host, alloc.page(i), 0, true);
        }
        let blocks: Vec<VaBlockId> = alloc.va_blocks().collect();

        // Read fault: migrates WITHOUT unmapping the CPU copy.
        let r0 = driver
            .service_batch(&[fault(blocks[0].first_page(), 0, AccessKind::Read)], &mut gpu, &mut host, SimTime(0))?
            .clone();
        assert_eq!(r0.t_unmap, SimDuration::ZERO, "read duplication keeps CPU mapping");
        assert_eq!(r0.cpu_pages_unmapped, 0);
        assert!(r0.bytes_migrated > 0, "data still transfers");
        assert!(host.is_cpu_mapped(blocks[0].first_page()), "CPU copy intact");

        // Evicting the duplicated block (capacity 1) writes nothing back.
        let r1 = driver
            .service_batch(&[fault(blocks[1].first_page(), 0, AccessKind::Read)], &mut gpu, &mut host, SimTime(1_000_000))?
            .clone();
        assert_eq!(r1.evictions, 1);
        assert_eq!(r1.bytes_evicted, 0, "dropping a duplicate needs no writeback");
        Ok(())
    }

    #[test]
    fn read_mostly_write_collapses_duplication() -> Result<(), UvmError> {
        let (mut driver, mut gpu, mut host) = setup(4, DriverPolicy::default());
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(VABLOCK_SIZE);
        driver.managed_alloc(alloc);
        driver.set_advise(&alloc, crate::advise::MemAdvise::ReadMostly);
        for i in 0..512 {
            driver.cpu_touch(&mut host, alloc.page(i), 0, true);
        }
        let rec = driver
            .service_batch(&[fault(alloc.page(0), 0, AccessKind::Write)], &mut gpu, &mut host, SimTime(0))?
            .clone();
        assert!(rec.t_unmap > SimDuration::ZERO, "a write collapses the duplication");
        assert!(rec.cpu_pages_unmapped > 0);
        Ok(())
    }

    #[test]
    fn preferred_location_host_maps_remotely() -> Result<(), UvmError> {
        // Capacity 1 block, but the advised allocation never consumes it.
        let (mut driver, mut gpu, mut host) = setup(1, DriverPolicy::default());
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(2 * VABLOCK_SIZE);
        driver.managed_alloc(alloc);
        driver.set_advise(&alloc, crate::advise::MemAdvise::PreferredLocationHost);
        for i in 0..1024 {
            driver.cpu_touch(&mut host, alloc.page(i), 0, true);
        }
        let faults: Vec<_> = (0..1024)
            .step_by(64)
            .map(|i| fault(alloc.page(i as u64), 0, AccessKind::Read))
            .collect();
        let rec = driver.service_batch(&faults, &mut gpu, &mut host, SimTime(0))?.clone();
        assert_eq!(rec.pages_migrated, 0, "no migration under host preference");
        assert_eq!(rec.bytes_migrated, 0);
        assert_eq!(rec.remote_mapped_pages, 16);
        assert_eq!(rec.evictions, 0, "no device memory consumed");
        assert_eq!(rec.t_unmap, SimDuration::ZERO, "CPU mappings survive");
        assert!(rec.t_dma_setup > SimDuration::ZERO, "remote access needs DMA maps");
        assert!(gpu.is_resident(alloc.page(0)), "remote mapping satisfies accesses");
        assert_eq!(driver.memory().resident_blocks(), 0);
        Ok(())
    }

    #[test]
    fn prefetch_async_migrates_everything_upfront() -> Result<(), UvmError> {
        let (mut driver, mut gpu, mut host) = setup(16, DriverPolicy::default());
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(2 * VABLOCK_SIZE);
        driver.managed_alloc(alloc);
        for i in 0..1024 {
            driver.cpu_touch(&mut host, alloc.page(i), 0, true);
        }
        let end = driver.prefetch_async(&alloc, &mut gpu, &mut host, SimTime(0))?;
        assert!(end > SimTime(0));
        let rec = driver.records.last().expect("operation logged a record").clone();
        assert!(rec.driver_prefetch_op);
        assert_eq!(rec.pages_migrated, 1024);
        assert_eq!(rec.num_va_blocks, 2);
        assert!(rec.cpu_pages_unmapped == 1024, "prefetch pays the unmap too");
        assert!(rec.t_dma_setup > SimDuration::ZERO);
        // Subsequent faults are all hits: a batch of stale faults migrates
        // nothing.
        let rec2 = driver
            .service_batch(&[fault(alloc.page(5), 0, AccessKind::Read)], &mut gpu, &mut host, end)
            ?
            .clone();
        assert_eq!(rec2.pages_migrated, 0);
        Ok(())
    }

    #[test]
    fn prefetch_async_is_idempotent() -> Result<(), UvmError> {
        let (mut driver, mut gpu, mut host) = setup(16, DriverPolicy::default());
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(VABLOCK_SIZE);
        driver.managed_alloc(alloc);
        driver.prefetch_async(&alloc, &mut gpu, &mut host, SimTime(0))?;
        let first = driver.records.last().expect("operation logged a record").pages_migrated;
        driver.prefetch_async(&alloc, &mut gpu, &mut host, SimTime(10_000_000))?;
        let second = driver.records.last().expect("operation logged a record");
        assert_eq!(first, 512);
        assert_eq!(second.pages_migrated, 0, "already resident");
        assert_eq!(second.num_va_blocks, 0);
        Ok(())
    }

    #[test]
    fn thrashing_pin_breaks_eviction_ping_pong() -> Result<(), UvmError> {
        // Capacity 1, two blocks faulted alternately: without mitigation
        // every access cycle evicts; with it, the re-faulted block pins
        // host-side and evictions stop.
        let run = |mitigate: bool| {
            let policy = DriverPolicy::default().thrashing(mitigate);
            let (mut driver, mut gpu, mut host) = setup(1, policy);
            let mut asa = AddressSpaceAllocator::new();
            let alloc = asa.alloc(2 * VABLOCK_SIZE);
            driver.managed_alloc(alloc);
            let blocks: Vec<VaBlockId> = alloc.va_blocks().collect();
            for round in 0..12u64 {
                let block = blocks[(round % 2) as usize];
                let page = block.page_at((round % 512) as usize);
                driver.service_batch(
                    &[fault(page, 0, AccessKind::Read)],
                    &mut gpu,
                    &mut host,
                    SimTime(round * 1_000_000),
                )?;
            }
            Ok::<_, UvmError>((
                driver.memory().evictions(),
                driver.records.iter().map(|r| r.thrashing_pins).sum::<u64>(),
            ))
        };
        let (evictions_off, pins_off) = run(false)?;
        let (evictions_on, pins_on) = run(true)?;
        assert_eq!(pins_off, 0);
        assert!(pins_on > 0, "thrashing detected and pinned");
        assert!(
            evictions_on < evictions_off,
            "pinning reduces evictions: {evictions_on} vs {evictions_off}"
        );
        Ok(())
    }

    // ---- fault-injection recovery ----

    use uvm_sim::inject::{FaultPlan, InjectionPoint, Injector, PointPlan};

    fn inject_setup(
        capacity_blocks: u64,
        policy: DriverPolicy,
        plan: &FaultPlan,
    ) -> (UvmDriver, Gpu, HostMemory) {
        let (mut driver, mut gpu, mut host) = setup(capacity_blocks, policy);
        let mut inj = Injector::new(plan, 7);
        gpu.fault_buffer.set_injector(inj.take(InjectionPoint::FaultBufferOverflow));
        host.set_injector(inj.take(InjectionPoint::HostPopulateFailure));
        driver.set_injectors(&mut inj);
        (driver, gpu, host)
    }

    #[test]
    fn transient_copy_fault_retries_then_succeeds() -> Result<(), UvmError> {
        let plan = FaultPlan::none()
            .with(InjectionPoint::CopyEngineFault, PointPlan::scheduled(SimTime(0), 1));
        let (mut driver, mut gpu, mut host) = inject_setup(16, DriverPolicy::default(), &plan);
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(VABLOCK_SIZE);
        driver.managed_alloc(alloc);
        let rec = driver
            .service_batch(&[fault(alloc.page(0), 0, AccessKind::Read)], &mut gpu, &mut host, SimTime(0))?;
        assert_eq!(rec.injected_faults, 1);
        assert_eq!(rec.retries, 1);
        assert!(rec.t_backoff > SimDuration::ZERO, "retry charged backoff");
        assert_eq!(rec.degraded_blocks, 0);
        assert_eq!(rec.pages_migrated, 1, "migration succeeded on retry");
        assert!(gpu.is_resident(alloc.page(0)));
        Ok(())
    }

    #[test]
    fn exhausted_copy_retries_degrade_block_to_remote() -> Result<(), UvmError> {
        let plan = FaultPlan::none()
            .with(InjectionPoint::CopyEngineFault, PointPlan::with_probability(1.0));
        let (mut driver, mut gpu, mut host) =
            inject_setup(16, DriverPolicy::default().retries(2), &plan);
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(VABLOCK_SIZE);
        driver.managed_alloc(alloc);
        let id = alloc.va_blocks().next().expect("allocation spans a block");

        let rec = driver
            .service_batch(&[fault(alloc.page(0), 0, AccessKind::Read)], &mut gpu, &mut host, SimTime(0))
            ?
            .clone();
        assert_eq!(rec.injected_faults, 3, "initial attempt + 2 retries all failed");
        assert_eq!(rec.retries, 2);
        assert_eq!(rec.degraded_blocks, 1);
        assert_eq!(rec.pages_migrated, 0);
        assert_eq!(rec.remote_mapped_pages, 1, "faulted page served from sysmem");
        assert_eq!(rec.t_pte, CostModel::titan_v().pte_time(1), "remote PTE write charged");
        let state = driver.va_space.block(id);
        assert!(state.degraded, "degradation is sticky");
        assert!(!state.gpu_allocated);
        assert!(gpu.is_resident(alloc.page(0)), "remote mapping satisfies the access");

        // A later fault on the degraded block takes the remote path
        // directly: the (still always-failing) copy engine is never asked.
        let rec2 = driver
            .service_batch(&[fault(alloc.page(1), 0, AccessKind::Read)], &mut gpu, &mut host, SimTime(1_000_000))
            ?
            .clone();
        assert_eq!(rec2.injected_faults, 0, "degraded block bypasses the copy engine");
        assert_eq!(rec2.degraded_blocks, 0);
        assert_eq!(rec2.remote_mapped_pages, 1);
        assert_eq!(rec2.pages_migrated, 0);
        Ok(())
    }

    #[test]
    fn degraded_block_releases_its_device_memory() -> Result<(), UvmError> {
        // Migrate successfully first, then degrade on a later batch: the
        // resident pages must write back and the device chunk must free.
        let plan = FaultPlan::none()
            .with(InjectionPoint::CopyEngineFault, PointPlan::scheduled(SimTime(1_000_000), 100));
        let (mut driver, mut gpu, mut host) =
            inject_setup(16, DriverPolicy::default().retries(1), &plan);
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(VABLOCK_SIZE);
        driver.managed_alloc(alloc);
        for i in 0..8 {
            driver.cpu_touch(&mut host, alloc.page(i), 0, true);
        }
        driver
            .service_batch(&[fault(alloc.page(0), 0, AccessKind::Read)], &mut gpu, &mut host, SimTime(0))
            ?;
        assert_eq!(driver.memory().resident_blocks(), 1);

        let rec = driver
            .service_batch(&[fault(alloc.page(1), 0, AccessKind::Read)], &mut gpu, &mut host, SimTime(1_000_000))
            ?
            .clone();
        assert_eq!(rec.degraded_blocks, 1);
        assert!(rec.bytes_evicted > 0, "resident data written back");
        assert_eq!(driver.memory().resident_blocks(), 0, "device chunk freed");
        assert_eq!(driver.memory().evictions(), 0, "degradation is not an LRU eviction");
        // Both the previously-resident page and the new fault are remote.
        assert!(gpu.is_resident(alloc.page(0)));
        assert!(gpu.is_resident(alloc.page(1)));
        Ok(())
    }

    #[test]
    fn dma_map_failure_retries_then_succeeds() -> Result<(), UvmError> {
        let plan = FaultPlan::none()
            .with(InjectionPoint::DmaMapFailure, PointPlan::scheduled(SimTime(0), 2));
        let (mut driver, mut gpu, mut host) = inject_setup(16, DriverPolicy::default(), &plan);
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(VABLOCK_SIZE);
        driver.managed_alloc(alloc);
        let rec = driver
            .service_batch(&[fault(alloc.page(0), 0, AccessKind::Read)], &mut gpu, &mut host, SimTime(0))?;
        assert_eq!(rec.injected_faults, 2);
        assert_eq!(rec.retries, 2);
        assert_eq!(rec.new_va_blocks, 1, "mapping eventually succeeded");
        assert_eq!(rec.pages_migrated, 1);
        Ok(())
    }

    #[test]
    fn exhausted_dma_retries_fail_the_batch() {
        let plan = FaultPlan::none()
            .with(InjectionPoint::DmaMapFailure, PointPlan::with_probability(1.0));
        let (mut driver, mut gpu, mut host) =
            inject_setup(16, DriverPolicy::default().retries(1), &plan);
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(VABLOCK_SIZE);
        driver.managed_alloc(alloc);
        let id = alloc.va_blocks().next().expect("allocation spans a block");
        let err = driver
            .service_batch(&[fault(alloc.page(0), 0, AccessKind::Read)], &mut gpu, &mut host, SimTime(0))
            .expect_err("retries must exhaust");
        assert_eq!(err, UvmError::DmaMapFailed { block: id.0 });
    }

    #[test]
    fn host_unmap_failure_retries_then_succeeds() -> Result<(), UvmError> {
        let plan = FaultPlan::none()
            .with(InjectionPoint::HostPopulateFailure, PointPlan::scheduled(SimTime(0), 1));
        let (mut driver, mut gpu, mut host) = inject_setup(16, DriverPolicy::default(), &plan);
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(VABLOCK_SIZE);
        driver.managed_alloc(alloc);
        driver.cpu_touch(&mut host, alloc.page(0), 0, true);
        let rec = driver
            .service_batch(&[fault(alloc.page(0), 0, AccessKind::Read)], &mut gpu, &mut host, SimTime(0))?;
        assert_eq!(rec.injected_faults, 1);
        assert_eq!(rec.retries, 1);
        assert_eq!(rec.cpu_pages_unmapped, 1, "unmap succeeded on retry");
        Ok(())
    }

    #[test]
    fn exhausted_host_unmap_retries_fail_the_batch() {
        let plan = FaultPlan::none()
            .with(InjectionPoint::HostPopulateFailure, PointPlan::with_probability(1.0));
        let (mut driver, mut gpu, mut host) =
            inject_setup(16, DriverPolicy::default().retries(0), &plan);
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(VABLOCK_SIZE);
        driver.managed_alloc(alloc);
        driver.cpu_touch(&mut host, alloc.page(0), 0, true);
        let id = alloc.va_blocks().next().expect("allocation spans a block");
        let err = driver
            .service_batch(&[fault(alloc.page(0), 0, AccessKind::Read)], &mut gpu, &mut host, SimTime(0))
            .expect_err("retries must exhaust");
        assert_eq!(err, UvmError::HostPopulateFailed { block: id.0 });
    }

    #[test]
    fn fetch_stall_retries_within_budget_and_fails_beyond_it() -> Result<(), UvmError> {
        // Burst of 2 stalls with 3 retries allowed: recovers.
        let plan = FaultPlan::none()
            .with(InjectionPoint::BatchFetchStall, PointPlan::scheduled(SimTime(0), 2));
        let (mut driver, mut gpu, mut host) = inject_setup(16, DriverPolicy::default(), &plan);
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(VABLOCK_SIZE);
        driver.managed_alloc(alloc);
        let rec = driver
            .service_batch(&[fault(alloc.page(0), 0, AccessKind::Read)], &mut gpu, &mut host, SimTime(0))?;
        assert_eq!(rec.injected_faults, 2);
        assert_eq!(rec.retries, 2);
        assert_eq!(rec.pages_migrated, 1);

        // Burst larger than the retry budget: the batch is lost.
        let plan = FaultPlan::none()
            .with(InjectionPoint::BatchFetchStall, PointPlan::scheduled(SimTime(0), 10));
        let (mut driver, mut gpu, mut host) =
            inject_setup(16, DriverPolicy::default().retries(2), &plan);
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(VABLOCK_SIZE);
        driver.managed_alloc(alloc);
        let err = driver
            .service_batch(&[fault(alloc.page(0), 0, AccessKind::Read)], &mut gpu, &mut host, SimTime(0))
            .expect_err("retries must exhaust");
        assert_eq!(err, UvmError::BatchFetchStall { batch: 0 });
        Ok(())
    }

    // ---- sustained failure domains & health ----

    use crate::health::HealthState;

    #[test]
    fn sustained_pressure_forces_emergency_eviction_and_recovers() -> Result<(), UvmError> {
        // Pressure window spanning batches 1–2: capacity 16 shrinks by 12,
        // residency sheds to 4, and the window closing restores everything.
        let plan = FaultPlan::none().with(
            InjectionPoint::DeviceMemoryPressure,
            PointPlan::scheduled(SimTime(1_000_000), 2),
        );
        let policy = DriverPolicy::default().pressure_reserve(12);
        let (mut driver, mut gpu, mut host) = inject_setup(16, policy, &plan);
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(16 * VABLOCK_SIZE);
        driver.managed_alloc(alloc);
        let blocks: Vec<VaBlockId> = alloc.va_blocks().collect();

        // Batch 0 (pre-window): fill all 16 blocks.
        let fill: Vec<_> =
            blocks.iter().map(|b| fault(b.first_page(), 0, AccessKind::Read)).collect();
        let r0 = driver.service_batch(&fill, &mut gpu, &mut host, SimTime(0))?.clone();
        assert_eq!(r0.health, HealthState::Healthy);
        assert_eq!(r0.emergency_evictions, 0);
        assert_eq!(driver.memory().resident_blocks(), 16);

        // Batch 1: the window opens. 12 blocks shed via full writeback.
        let r1 = driver
            .service_batch(
                &[fault(blocks[15].page_at(1), 0, AccessKind::Read)],
                &mut gpu,
                &mut host,
                SimTime(1_000_000),
            )?
            .clone();
        assert_eq!(r1.health, HealthState::Pressured);
        assert_eq!(r1.pressure_reserved, 12);
        assert_eq!(r1.emergency_evictions, 12);
        assert!(r1.bytes_evicted > 0, "shed blocks write their data back");
        assert!(r1.t_evict > SimDuration::ZERO);
        assert_eq!(driver.memory().resident_blocks(), 4);
        assert_eq!(driver.memory().effective_capacity(), 4);
        // LRU sheds the earliest blocks; the latest survive.
        assert!(!gpu.is_resident(blocks[0].first_page()));
        assert!(gpu.is_resident(blocks[15].first_page()));

        // Batch 2: window persists (burst 2); nothing more to shed.
        let r2 = driver
            .service_batch(
                &[fault(blocks[15].page_at(2), 0, AccessKind::Read)],
                &mut gpu,
                &mut host,
                SimTime(2_000_000),
            )?
            .clone();
        assert_eq!(r2.health, HealthState::Pressured);
        assert_eq!(r2.emergency_evictions, 0);

        // Batch 3: window closed. Capacity restores, health recovers.
        let r3 = driver
            .service_batch(
                &[fault(blocks[0].first_page(), 0, AccessKind::Read)],
                &mut gpu,
                &mut host,
                SimTime(3_000_000),
            )?
            .clone();
        assert_eq!(r3.health, HealthState::Healthy);
        assert_eq!(r3.pressure_reserved, 0);
        assert_eq!(driver.memory().effective_capacity(), 16);
        assert_eq!(r3.evictions, 0, "restored capacity allocates freely");
        assert_eq!(driver.health().transitions(), 2, "Healthy→Pressured→Healthy");
        assert_eq!(driver.health().batches_in(HealthState::Pressured), 2);
        Ok(())
    }

    #[test]
    fn gpu_reset_loses_buffer_state_and_health_recovers() -> Result<(), UvmError> {
        let plan = FaultPlan::none()
            .with(InjectionPoint::GpuReset, PointPlan::scheduled(SimTime(1_000_000), 1));
        let (mut driver, mut gpu, mut host) = inject_setup(16, DriverPolicy::default(), &plan);
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(VABLOCK_SIZE);
        driver.managed_alloc(alloc);

        let r0 = driver
            .service_batch(&[fault(alloc.page(0), 0, AccessKind::Read)], &mut gpu, &mut host, SimTime(0))?
            .clone();
        assert_eq!(r0.gpu_resets, 0);
        assert_eq!(r0.health, HealthState::Healthy);

        // Entries sitting in the hardware buffer when the reset hits are
        // destroyed and accounted to the absorbing batch.
        for i in 8..11u64 {
            gpu.fault_buffer.push(fault(alloc.page(i), 0, AccessKind::Read));
        }
        let r1 = driver
            .service_batch(
                &[fault(alloc.page(1), 0, AccessKind::Read)],
                &mut gpu,
                &mut host,
                SimTime(1_000_000),
            )?
            .clone();
        assert_eq!(r1.gpu_resets, 1);
        assert_eq!(r1.reset_lost_faults, 3, "buffered entries destroyed by the reset");
        assert_eq!(r1.health, HealthState::Resetting);
        assert_eq!(gpu.resets, 1);
        assert_eq!(gpu.fault_buffer.reset_losses(), 3);
        assert!(
            r1.t_fixed >= DriverPolicy::default().reset_reattach_cost,
            "re-attach cost charged"
        );
        // Driver-side state survived: the already-migrated page stays
        // resident and serviceable.
        assert!(gpu.is_resident(alloc.page(0)));

        let r2 = driver
            .service_batch(
                &[fault(alloc.page(2), 0, AccessKind::Read)],
                &mut gpu,
                &mut host,
                SimTime(2_000_000),
            )?
            .clone();
        assert_eq!(r2.health, HealthState::Healthy, "one-batch regime, then recovery");
        assert_eq!(r2.gpu_resets, 0);
        Ok(())
    }

    #[test]
    fn accumulated_degradations_escalate_health_and_gate_prefetch() -> Result<(), UvmError> {
        // One copy-engine failure with a zero retry budget degrades block
        // 0; threshold 1 escalates the driver to Degraded, which must
        // suppress speculative prefetch on later (healthy-path) batches.
        let plan = FaultPlan::none()
            .with(InjectionPoint::CopyEngineFault, PointPlan::scheduled(SimTime(0), 1));
        let policy = DriverPolicy::with_prefetch().retries(0).degraded_escalation(1);
        let (mut driver, mut gpu, mut host) = inject_setup(16, policy, &plan);
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(2 * VABLOCK_SIZE);
        driver.managed_alloc(alloc);

        let r0 = driver
            .service_batch(&[fault(alloc.page(0), 0, AccessKind::Read)], &mut gpu, &mut host, SimTime(0))?
            .clone();
        assert_eq!(r0.degraded_blocks, 1);
        assert_eq!(r0.health, HealthState::Healthy, "evidence is a batch-boundary view");

        // Dense faults on the healthy second block: 12 of the first 16
        // pages would prefetch the remaining 4 under TreeDensity — but the
        // driver is Degraded now.
        let faults: Vec<_> =
            (512..524).map(|i| fault(alloc.page(i), 0, AccessKind::Read)).collect();
        let r1 = driver
            .service_batch(&faults, &mut gpu, &mut host, SimTime(1_000_000))?
            .clone();
        assert_eq!(r1.health, HealthState::Degraded);
        assert_eq!(r1.prefetched_pages, 0, "degraded driver does not speculate");
        assert_eq!(r1.pages_migrated, 12, "demand servicing continues");

        // Degradation is sticky: with the threshold still crossed, the
        // state persists.
        let r2 = driver
            .service_batch(
                &[fault(alloc.page(524), 0, AccessKind::Read)],
                &mut gpu,
                &mut host,
                SimTime(2_000_000),
            )?
            .clone();
        assert_eq!(r2.health, HealthState::Degraded);
        Ok(())
    }

    #[test]
    fn sustained_injection_is_seed_deterministic() {
        // Stochastic pressure and reset points composed over a transient
        // plan: identical seeds must produce byte-identical record streams
        // (including health states and emergency-eviction accounting).
        let run = |seed: u64| {
            let plan = FaultPlan::uniform(0.1)
                .with(InjectionPoint::DeviceMemoryPressure, PointPlan::with_probability(0.3))
                .with(InjectionPoint::GpuReset, PointPlan::with_probability(0.15));
            let policy = DriverPolicy::default().pressure_reserve(2);
            let cost = CostModel::titan_v();
            let mut driver = UvmDriver::new(policy, cost.clone(), 4, seed);
            let mut gpu = Gpu::new(GpuSpec::small(4 * VABLOCK_SIZE), cost);
            let mut host = HostMemory::new();
            let mut inj = Injector::new(&plan, seed);
            gpu.fault_buffer.set_injector(inj.take(InjectionPoint::FaultBufferOverflow));
            host.set_injector(inj.take(InjectionPoint::HostPopulateFailure));
            driver.set_injectors(&mut inj);
            let mut asa = AddressSpaceAllocator::new();
            let alloc = asa.alloc(8 * VABLOCK_SIZE);
            driver.managed_alloc(alloc);
            for round in 0..20u64 {
                let faults: Vec<_> = (0..16)
                    .map(|i| fault(alloc.page((round * 97 + i * 31) % 4096), (i % 4) as u32, AccessKind::Read))
                    .collect();
                let _ = driver.service_batch(&faults, &mut gpu, &mut host, SimTime(round * 1_000_000));
            }
            serde_json::to_string(&driver.records).expect("records serialize")
        };
        assert_eq!(run(0x5C21), run(0x5C21), "same seed, byte-identical records");
        assert_ne!(run(0x5C21), run(0x1234), "different seed diverges");
    }

    #[test]
    fn buffer_overflow_drops_are_attributed_to_the_next_batch() -> Result<(), UvmError> {
        let (mut driver, mut gpu, mut host) = setup(16, DriverPolicy::default());
        let mut inj = Injector::new(
            &FaultPlan::none()
                .with(InjectionPoint::FaultBufferOverflow, PointPlan::scheduled(SimTime(5), 3)),
            7,
        );
        gpu.fault_buffer.set_injector(inj.take(InjectionPoint::FaultBufferOverflow));
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(VABLOCK_SIZE);
        driver.managed_alloc(alloc);

        // Push 6 faults; the injected storm at t=5 swallows 3 of them.
        for i in 0..6u64 {
            let mut f = fault(alloc.page(i), 0, AccessKind::Read);
            f.arrival = SimTime(5 + i);
            gpu.fault_buffer.push(f);
        }
        assert_eq!(gpu.fault_buffer.overflow_drops(), 3);
        let batch = gpu.fault_buffer.fetch(256, SimTime(100));
        let rec = driver.service_batch(&batch, &mut gpu, &mut host, SimTime(100))?.clone();
        assert_eq!(rec.raw_faults, 3, "survivors serviced");
        assert_eq!(rec.dropped_faults, 3, "storm drops attributed here");
        // The attribution is once-only.
        let rec2 = driver
            .service_batch(&[fault(alloc.page(10), 0, AccessKind::Read)], &mut gpu, &mut host, SimTime(200))
            ?;
        assert_eq!(rec2.dropped_faults, 0);
        Ok(())
    }

    #[test]
    fn identical_seeds_give_identical_record_streams_under_injection() {
        let run = |seed: u64| {
            let policy = DriverPolicy::default();
            let cost = CostModel::titan_v();
            let mut driver = UvmDriver::new(policy, cost.clone(), 4, seed);
            let mut gpu = Gpu::new(GpuSpec::small(4 * VABLOCK_SIZE), cost);
            let mut host = HostMemory::new();
            let mut inj = Injector::new(&FaultPlan::uniform(0.2), seed);
            gpu.fault_buffer.set_injector(inj.take(InjectionPoint::FaultBufferOverflow));
            host.set_injector(inj.take(InjectionPoint::HostPopulateFailure));
            driver.set_injectors(&mut inj);
            let mut asa = AddressSpaceAllocator::new();
            let alloc = asa.alloc(8 * VABLOCK_SIZE);
            driver.managed_alloc(alloc);
            for round in 0..20u64 {
                let faults: Vec<_> = (0..16)
                    .map(|i| fault(alloc.page((round * 97 + i * 31) % 4096), (i % 4) as u32, AccessKind::Read))
                    .collect();
                // Exhaustion under p=0.2 is possible in principle; ignore
                // failed batches — both runs must fail identically too.
                let _ = driver.service_batch(&faults, &mut gpu, &mut host, SimTime(round * 1_000_000));
            }
            serde_json::to_string(&driver.records).expect("records serialize")
        };
        assert_eq!(run(0x5C21), run(0x5C21), "same seed, byte-identical records");
        assert_ne!(run(0x5C21), run(0x1234), "different seed diverges");
    }

    #[test]
    fn disabled_injection_leaves_baseline_records_unchanged() -> Result<(), UvmError> {
        // Wiring a FaultPlan::none() injector must not perturb the RNG
        // stream or any recorded time.
        let run = |wire: bool| {
            let (mut driver, mut gpu, mut host) = setup(16, DriverPolicy::default());
            if wire {
                let mut inj = Injector::new(&FaultPlan::none(), 99);
                driver.set_injectors(&mut inj);
            }
            let mut asa = AddressSpaceAllocator::new();
            let alloc = asa.alloc(2 * VABLOCK_SIZE);
            driver.managed_alloc(alloc);
            for i in 0..100 {
                driver.cpu_touch(&mut host, alloc.page(i), 0, true);
            }
            for round in 0..5u64 {
                let faults: Vec<_> = (0..32)
                    .map(|i| fault(alloc.page(round * 100 + i), 0, AccessKind::Read))
                    .collect();
                driver.service_batch(&faults, &mut gpu, &mut host, SimTime(round * 1_000_000))?;
            }
            Ok::<_, UvmError>(serde_json::to_string(&driver.records).expect("records serialize"))
        };
        assert_eq!(run(false)?, run(true)?);
        Ok(())
    }

    #[test]
    fn batch_time_grows_with_data_moved() -> Result<(), UvmError> {
        // Fig. 6: average batch cost rises with migration size.
        let (mut driver, mut gpu, mut host) = setup(64, DriverPolicy::default());
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(8 * VABLOCK_SIZE);
        driver.managed_alloc(alloc);
        for i in 0..alloc.num_pages() {
            driver.cpu_touch(&mut host, alloc.page(i), 0, true);
        }

        let small: Vec<_> = (0..8).map(|i| fault(alloc.page(i), 0, AccessKind::Read)).collect();
        let r_small = driver.service_batch(&small, &mut gpu, &mut host, SimTime(0))?.clone();
        let big: Vec<_> = (0..256)
            .map(|i| fault(alloc.page(512 + i), 0, AccessKind::Read))
            .collect();
        let r_big = driver.service_batch(&big, &mut gpu, &mut host, SimTime(10_000_000))?.clone();
        assert!(r_big.service_time() > r_small.service_time());
        assert!(r_big.bytes_migrated > r_small.bytes_migrated);
        Ok(())
    }

    #[test]
    fn more_vablocks_cost_more_at_same_size() -> Result<(), UvmError> {
        // Fig. 10: for equal migration size, more VABlocks → higher cost.
        let (mut driver, mut gpu, mut host) = setup(64, DriverPolicy::default());
        let mut asa = AddressSpaceAllocator::new();
        let alloc = asa.alloc(32 * VABLOCK_SIZE);
        driver.managed_alloc(alloc);
        // Pre-touch all blocks so neither batch pays first-touch DMA setup.
        let warmup: Vec<_> = (0..32)
            .map(|b| fault(alloc.page(b * 512 + 511), 0, AccessKind::Read))
            .collect();
        driver.service_batch(&warmup, &mut gpu, &mut host, SimTime(0))?;

        // 64 pages in 1 block vs 64 pages across 16 blocks.
        let concentrated: Vec<_> =
            (0..64).map(|i| fault(alloc.page(i), 0, AccessKind::Read)).collect();
        let rc = driver
            .service_batch(&concentrated, &mut gpu, &mut host, SimTime(100_000_000))?
            .clone();
        let spread: Vec<_> = (0..64)
            .map(|i| fault(alloc.page(512 + (i % 16) * 512 + 32 + i / 16), 0, AccessKind::Read))
            .collect();
        let rs = driver
            .service_batch(&spread, &mut gpu, &mut host, SimTime(200_000_000))?
            .clone();
        assert_eq!(rc.pages_migrated, rs.pages_migrated);
        assert!(rs.num_va_blocks > rc.num_va_blocks);
        assert!(
            rs.service_time() > rc.service_time(),
            "spread {} <= concentrated {}",
            rs.service_time(),
            rc.service_time()
        );
        Ok(())
    }
}
