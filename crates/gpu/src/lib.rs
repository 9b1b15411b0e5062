#![warn(missing_docs)]

//! # uvm-gpu — GPU device model: fault generation hardware
//!
//! Section 3 of Allen & Ge (SC '21) characterizes *how* GPU page faults are
//! generated: per-μTLB outstanding-fault limits, per-SM rate behaviour,
//! scoreboard-induced serialization between dependent accesses, and the
//! replay mechanism. This crate models the device side of the UVM
//! architecture at exactly that level of detail:
//!
//! * [`spec`] — the hardware configuration ([`GpuSpec::titan_v`] matches the
//!   paper's testbed: 80 SMs, 2 SMs per μTLB, 56 outstanding faults per
//!   μTLB, 12 GiB of device memory).
//! * [`isa`] — warp-level micro-instruction streams ([`Instr`]): loads,
//!   stores (scoreboard-gated, reproducing the Listing 2 behaviour where
//!   writes cannot fault until their input reads are fulfilled), software
//!   prefetches (which bypass the scoreboard and the μTLB fault slots,
//!   reproducing Fig. 5), and compute delays.
//! * [`utlb`] — per-μTLB outstanding-fault tracking with the 56-entry limit,
//!   held in a linear-probed [`SlotSet`].
//! * [`gmmu`] — the GPU memory-management unit: per-μTLB fault queues
//!   drained **round-robin** into the fault buffer. Round-robin arbitration
//!   is this model's concrete interpretation of the paper's observed per-SM
//!   "rate throttling": with 40 μTLBs × 2 SMs and a 256-fault batch limit,
//!   fair draining yields at most 256/80 = **3.2 faults per SM per batch**
//!   — precisely the maximum reported in Table 2.
//! * [`fault_buffer`] — the circular GPU fault buffer the driver fetches
//!   from and flushes before each replay.
//! * [`warp`] — warp execution state machines issuing accesses against the
//!   GPU page table, each with a sorted-vector [`Scoreboard`].
//! * [`page_table`] — [`GpuPageTable`], the device's resident-page set as
//!   per-VABlock bitmaps.
//! * [`device`] — [`Gpu`], the device façade: launch kernels, step warps,
//!   accept replays, and expose the fault buffer to the driver.
//!
//! Warp stepping and replay run once per simulated access and per batch, so
//! none of these containers hashes or allocates on those paths. Each one
//! serializes to exactly the value the hashed or ordered standard
//! collection it replaced produced (ascending page arrays, `[page, kind]`
//! pairs), and each decodes untrusted input in memory proportional to the
//! input, never to the page numbers it names.

pub mod device;
pub mod fault;
pub mod fault_buffer;
pub mod gmmu;
pub mod isa;
pub mod page_table;
pub mod spec;
pub mod utlb;
pub mod warp;

pub use device::{Gpu, StepOutcome};
pub use fault::{AccessKind, FaultRecord};
pub use fault_buffer::FaultBuffer;
pub use gmmu::Gmmu;
pub use isa::{Instr, WarpProgram};
pub use page_table::GpuPageTable;
pub use spec::GpuSpec;
pub use utlb::{SlotSet, Utlb, UtlbInsert};
pub use warp::{Scoreboard, Warp, WarpStatus};
