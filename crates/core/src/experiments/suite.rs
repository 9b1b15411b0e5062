//! The shared benchmark suite and experiment configurations.
//!
//! The paper's runs use gigabyte-scale problems on a 12 GiB Titan V; the
//! simulator reproduces the same *driver-visible structure* at tens of
//! megabytes so that a full experiment sweep completes in seconds. Every
//! multi-benchmark experiment (Tables 2 and 3, Figs. 6 and 10) draws its
//! workloads from here, so cross-experiment numbers are comparable.

use uvm_gpu::spec::GpuSpec;
use uvm_sim::time::SimDuration;
use uvm_workloads::cpu_init::CpuInitPolicy;
use uvm_workloads::workload::Workload;
use uvm_workloads::{fft, gauss_seidel, hpgmg, random, regular, sgemm, stream};

use crate::config::SystemConfig;

/// Experiment system config: the full Titan V fault-generation hardware
/// (80 SMs, 40 μTLBs — required for the Table 2 per-SM statistics) with a
/// reduced device-memory capacity matching the scaled workloads.
pub fn experiment_config(memory_mb: u64) -> SystemConfig {
    let mut config = SystemConfig::titan_v();
    config.gpu = GpuSpec {
        memory_bytes: memory_mb * 1024 * 1024,
        ..GpuSpec::titan_v()
    };
    config
}

/// The benchmarks of the paper's Tables 2 and 3 (plus dgemm for Fig. 15).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bench {
    /// Contiguous streaming synthetic.
    Regular,
    /// Uniform-random synthetic.
    Random,
    /// cuBLAS sgemm.
    Sgemm,
    /// cuBLAS dgemm (Fig. 15).
    Dgemm,
    /// BabelStream triad.
    Stream,
    /// cuFFT.
    Cufft,
    /// Gauss-Seidel stencil.
    GaussSeidel,
    /// HPGMG-FV proxy app.
    Hpgmg,
}

impl Bench {
    /// The benchmark's display name (matches the paper's tables).
    pub fn name(self) -> &'static str {
        match self {
            Bench::Regular => "Regular",
            Bench::Random => "Random",
            Bench::Sgemm => "sgemm",
            Bench::Dgemm => "dgemm",
            Bench::Stream => "stream",
            Bench::Cufft => "cufft",
            Bench::GaussSeidel => "gauss-seidel",
            Bench::Hpgmg => "hpgmg",
        }
    }

    /// The seven benchmarks of Tables 2 and 3, in paper order.
    pub fn table_suite() -> [Bench; 7] {
        [
            Bench::Regular,
            Bench::Random,
            Bench::Sgemm,
            Bench::Stream,
            Bench::Cufft,
            Bench::GaussSeidel,
            Bench::Hpgmg,
        ]
    }

    /// Build the benchmark at standard experiment scale (single-threaded
    /// CPU initialization, in-core footprints of 16–80 MiB).
    pub fn build(self) -> Workload {
        self.build_with_init(Some(CpuInitPolicy::SingleThread))
    }

    /// Build with an explicit CPU-initialization policy.
    pub fn build_with_init(self, cpu_init: Option<CpuInitPolicy>) -> Workload {
        match self {
            Bench::Regular => regular::build(regular::RegularParams {
                warps: 320,
                pages_per_warp: 48,
                pages_per_instr: 4,
                cpu_init,
            }),
            Bench::Random => random::build(random::RandomParams {
                warps: 320,
                accesses_per_warp: 48,
                // Sparse accesses over a wide footprint: the paper's Random
                // touches hundreds of VABlocks per batch at ~1 fault each.
                footprint_pages: 110 * 1024,
                seed: 0xBAD5EED,
                cpu_init,
            }),
            Bench::Sgemm => sgemm::build(sgemm::GemmParams {
                n: 2048,
                tile: 128,
                elem_size: 4,
                pages_per_instr: 32,
                compute_per_ktile: SimDuration::from_micros(40),
                cpu_init,
            }),
            Bench::Dgemm => sgemm::build(
                sgemm::GemmParams {
                    n: 1280,
                    tile: 128,
                    elem_size: 4,
                    pages_per_instr: 32,
                    compute_per_ktile: SimDuration::from_micros(40),
                    cpu_init,
                }
                .dgemm(),
            ),
            Bench::Stream => stream::build(stream::StreamParams {
                warps: 320,
                pages_per_warp: 16,
                iters: 1,
                warps_per_page: 4,
                cpu_init,
            }),
            Bench::Cufft => fft::build(fft::FftParams {
                chunks: 256,
                pages_per_chunk: 16,
                pages_per_instr: 8,
                compute_per_pass: SimDuration::from_micros(20),
                cpu_init,
            }),
            Bench::GaussSeidel => gauss_seidel::build(gauss_seidel::GaussSeidelParams {
                rows: 4096,
                pages_per_row: 4,
                warps: 128,
                iters: 2,
                compute_per_row: SimDuration::from_micros(2),
                cpu_init,
            }),
            Bench::Hpgmg => hpgmg::build(hpgmg::HpgmgParams {
                level0_pages: 16384,
                levels: 4,
                vcycles: 2,
                warps: 128,
                pages_per_instr: 8,
                compute_per_phase: SimDuration::from_micros(10),
                cpu_init,
            }),
        }
    }

    /// Device memory (in MiB) that gives this benchmark roughly the
    /// paper-style oversubscription ratio (footprint ≈ 110–130 % of GPU
    /// memory).
    pub fn oversub_memory_mb(self) -> u64 {
        oversub_memory_mb(&self.build())
    }
}

/// Device memory (in MiB) that oversubscribes `workload` by ~125 %:
/// memory = footprint / 1.25, with a 4 MiB floor.
pub fn oversub_memory_mb(workload: &Workload) -> u64 {
    (workload.footprint_bytes() / (1024 * 1024) * 4 / 5).max(4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_suite_benches_build() {
        for b in Bench::table_suite() {
            let w = b.build();
            assert!(w.num_warps() > 0, "{}", b.name());
            assert!(w.footprint_bytes() > 0, "{}", b.name());
            assert!(w.total_accesses() > 0, "{}", b.name());
        }
    }

    #[test]
    fn footprints_are_experiment_scale() {
        for b in Bench::table_suite() {
            let mb = b.build().footprint_bytes() / (1024 * 1024);
            assert!((8..=512).contains(&mb), "{} is {} MiB", b.name(), mb);
        }
    }

    #[test]
    fn oversub_memory_is_smaller_than_footprint() {
        for b in [Bench::Sgemm, Bench::Stream, Bench::GaussSeidel, Bench::Hpgmg] {
            let w = b.build();
            let mem = b.oversub_memory_mb() * 1024 * 1024;
            assert!(mem < w.footprint_bytes(), "{}", b.name());
        }
    }

    #[test]
    fn experiment_config_keeps_titan_sms() {
        let c = experiment_config(64);
        assert_eq!(c.gpu.num_sms, 80);
        assert_eq!(c.capacity_blocks(), 32);
    }
}
