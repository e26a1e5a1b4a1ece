//! Device properties and presets.
//!
//! Encodes the hardware rows of the paper's Table 1 (architecture features)
//! and Table 3 (the three evaluation machines). Numbers not printed in the
//! paper (register file size, max threads per SM, launch overhead) use the
//! published CUDA specifications for the corresponding compute capability.

/// GPU microarchitecture generation (Table 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arch {
    /// Tesla (pre-Fermi): no streams, single kernel at a time.
    Tesla,
    /// Fermi: CUDA streams, up to 16 concurrent kernels.
    Fermi,
    /// Kepler: Hyper-Q, 32 concurrent kernels, dynamic parallelism.
    Kepler,
    /// Maxwell: 16 concurrent kernels (paper's Table 1), dynamic parallelism.
    Maxwell,
    /// Pascal: 128 concurrent kernels, unified memory.
    Pascal,
    /// Volta: 128 concurrent kernels, unified memory, tensor cores.
    Volta,
}

impl Arch {
    /// All architectures in Table 1 order.
    pub const ALL: [Arch; 6] = [
        Arch::Tesla,
        Arch::Fermi,
        Arch::Kepler,
        Arch::Maxwell,
        Arch::Pascal,
        Arch::Volta,
    ];

    /// Human-readable architecture name.
    pub fn name(self) -> &'static str {
        match self {
            Arch::Tesla => "Tesla",
            Arch::Fermi => "Fermi",
            Arch::Kepler => "Kepler",
            Arch::Maxwell => "Maxwell",
            Arch::Pascal => "Pascal",
            Arch::Volta => "Volta",
        }
    }

    /// Feature row of the paper's Table 1 for this architecture.
    pub fn features(self) -> ArchFeatures {
        match self {
            Arch::Tesla => ArchFeatures {
                cuda_streams: false,
                dynamic_parallelism: false,
                max_concurrent_kernels: 1,
                unified_memory: false,
                tensor_cores: false,
            },
            Arch::Fermi => ArchFeatures {
                cuda_streams: true,
                dynamic_parallelism: false,
                max_concurrent_kernels: 16,
                unified_memory: false,
                tensor_cores: false,
            },
            Arch::Kepler => ArchFeatures {
                cuda_streams: true,
                dynamic_parallelism: true,
                max_concurrent_kernels: 32,
                unified_memory: false,
                tensor_cores: false,
            },
            Arch::Maxwell => ArchFeatures {
                cuda_streams: true,
                dynamic_parallelism: true,
                max_concurrent_kernels: 16,
                unified_memory: false,
                tensor_cores: false,
            },
            Arch::Pascal => ArchFeatures {
                cuda_streams: true,
                dynamic_parallelism: true,
                max_concurrent_kernels: 128,
                unified_memory: true,
                tensor_cores: false,
            },
            Arch::Volta => ArchFeatures {
                cuda_streams: true,
                dynamic_parallelism: true,
                max_concurrent_kernels: 128,
                unified_memory: true,
                tensor_cores: true,
            },
        }
    }
}

/// Architecture feature flags (columns of Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArchFeatures {
    /// Multiple CUDA streams supported.
    pub cuda_streams: bool,
    /// Device-side kernel launches supported.
    pub dynamic_parallelism: bool,
    /// Hardware concurrency degree `C` (Eq. 6 of the paper).
    pub max_concurrent_kernels: u32,
    /// Unified virtual memory supported.
    pub unified_memory: bool,
    /// Tensor cores present.
    pub tensor_cores: bool,
}

/// Full device description used by the simulator, the occupancy calculator
/// and GLP4NN's analytical model ("platform property" notations, Table 2).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProps {
    /// Marketing name, e.g. "Tesla P100".
    pub name: String,
    /// Microarchitecture generation.
    pub arch: Arch,
    /// Number of streaming multiprocessors (`#SM`).
    pub num_sms: u32,
    /// CUDA cores per SM.
    pub cores_per_sm: u32,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Device memory size in GiB.
    pub mem_size_gb: f64,
    /// Peak DRAM bandwidth in GB/s.
    pub mem_bw_gbps: f64,
    /// Shared memory per SM in bytes (`sm_max`).
    pub smem_per_sm: u32,
    /// 32-bit registers per SM.
    pub regs_per_sm: u32,
    /// Maximum resident threads per SM (`τ_max`).
    pub max_threads_per_sm: u32,
    /// Maximum resident blocks per SM (`β_max`).
    pub max_blocks_per_sm: u32,
    /// Maximum threads per block.
    pub max_threads_per_block: u32,
    /// Warp size (`θ`, 32 on all current GPUs).
    pub warp_size: u32,
    /// Host-side kernel launch overhead (`T_launch`) in nanoseconds.
    pub launch_overhead_ns: u64,
    /// FLOPs per cycle per CUDA core (2 for FMA).
    pub flops_per_cycle_per_core: f64,
    /// Resident warps an SM needs to hide pipeline/memory latency and
    /// reach peak issue rate. Below this, SM throughput scales linearly
    /// with occupancy — the physical reason the paper maximizes `OR_SM`
    /// (Eq. 1): more co-resident blocks ⇒ more active warps ⇒ more of the
    /// SM's peak actually delivered.
    pub warps_for_peak: u32,
}

impl DeviceProps {
    /// Hardware concurrency degree `C` (from the architecture).
    pub fn concurrency_degree(&self) -> u32 {
        self.arch.features().max_concurrent_kernels
    }

    /// Peak single-precision throughput of one SM in FLOP/s.
    pub fn sm_peak_flops(&self) -> f64 {
        self.cores_per_sm as f64 * self.flops_per_cycle_per_core * self.clock_ghz * 1e9
    }

    /// Peak single-precision throughput of the whole device in FLOP/s.
    pub fn device_peak_flops(&self) -> f64 {
        self.sm_peak_flops() * self.num_sms as f64
    }

    /// Maximum active warps per SM (`ω_SM` in Eq. 1).
    pub fn max_warps_per_sm(&self) -> u32 {
        self.max_threads_per_sm / self.warp_size
    }

    /// Tesla K40C — Kepler GK110B, the paper's Table 3 column 1.
    pub fn k40c() -> Self {
        DeviceProps {
            name: "Tesla K40C".to_string(),
            arch: Arch::Kepler,
            num_sms: 15,
            cores_per_sm: 192,
            clock_ghz: 0.745,
            mem_size_gb: 12.0,
            mem_bw_gbps: 288.0,
            smem_per_sm: 48 * 1024,
            regs_per_sm: 65536,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 16,
            max_threads_per_block: 1024,
            warp_size: 32,
            launch_overhead_ns: 4_000,
            flops_per_cycle_per_core: 2.0,
            warps_for_peak: 30,
        }
    }

    /// Tesla P100 — Pascal GP100, the paper's Table 3 column 2.
    pub fn p100() -> Self {
        DeviceProps {
            name: "Tesla P100".to_string(),
            arch: Arch::Pascal,
            num_sms: 56,
            cores_per_sm: 64,
            clock_ghz: 1.189,
            mem_size_gb: 12.0,
            mem_bw_gbps: 549.0,
            smem_per_sm: 64 * 1024,
            regs_per_sm: 65536,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            max_threads_per_block: 1024,
            warp_size: 32,
            launch_overhead_ns: 3_500,
            flops_per_cycle_per_core: 2.0,
            warps_for_peak: 12,
        }
    }

    /// Titan XP — Pascal GP102, the paper's Table 3 column 3.
    pub fn titan_xp() -> Self {
        DeviceProps {
            name: "Titan XP".to_string(),
            arch: Arch::Pascal,
            num_sms: 30,
            cores_per_sm: 128,
            clock_ghz: 1.455,
            mem_size_gb: 12.0,
            mem_bw_gbps: 547.7,
            smem_per_sm: 48 * 1024,
            regs_per_sm: 65536,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            max_threads_per_block: 1024,
            warp_size: 32,
            launch_overhead_ns: 3_500,
            flops_per_cycle_per_core: 2.0,
            warps_for_peak: 24,
        }
    }

    /// The three evaluation devices of the paper, in Table 3 order.
    pub fn evaluation_set() -> Vec<DeviceProps> {
        vec![Self::k40c(), Self::p100(), Self::titan_xp()]
    }

    /// Tesla M2090 — Fermi GF110 (Table 1 generation study; not part of
    /// the paper's Table 3 testbed).
    fn m2090() -> Self {
        DeviceProps {
            name: "Tesla M2090".to_string(),
            arch: Arch::Fermi,
            num_sms: 16,
            cores_per_sm: 32,
            clock_ghz: 1.3,
            mem_size_gb: 6.0,
            mem_bw_gbps: 177.0,
            smem_per_sm: 48 * 1024,
            regs_per_sm: 32768,
            max_threads_per_sm: 1536,
            max_blocks_per_sm: 8,
            max_threads_per_block: 1024,
            warp_size: 32,
            launch_overhead_ns: 5_000,
            flops_per_cycle_per_core: 2.0,
            warps_for_peak: 12,
        }
    }

    /// GeForce GTX Titan X — Maxwell GM200 (Table 1 generation study).
    fn titan_x_maxwell() -> Self {
        DeviceProps {
            name: "Titan X (Maxwell)".to_string(),
            arch: Arch::Maxwell,
            num_sms: 24,
            cores_per_sm: 128,
            clock_ghz: 1.0,
            mem_size_gb: 12.0,
            mem_bw_gbps: 336.5,
            smem_per_sm: 96 * 1024,
            regs_per_sm: 65536,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            max_threads_per_block: 1024,
            warp_size: 32,
            launch_overhead_ns: 4_000,
            flops_per_cycle_per_core: 2.0,
            warps_for_peak: 24,
        }
    }

    /// Tesla V100 — Volta GV100 (Table 1 generation study).
    fn v100() -> Self {
        DeviceProps {
            name: "Tesla V100".to_string(),
            arch: Arch::Volta,
            num_sms: 80,
            cores_per_sm: 64,
            clock_ghz: 1.38,
            mem_size_gb: 16.0,
            mem_bw_gbps: 900.0,
            smem_per_sm: 96 * 1024,
            regs_per_sm: 65536,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            max_threads_per_block: 1024,
            warp_size: 32,
            launch_overhead_ns: 3_000,
            flops_per_cycle_per_core: 2.0,
            warps_for_peak: 12,
        }
    }

    /// One representative device per architecture generation that supports
    /// CUDA streams (Fermi → Volta), for generation-sweep experiments.
    pub fn generation_set() -> Vec<DeviceProps> {
        vec![
            Self::m2090(),
            Self::k40c(),
            Self::titan_x_maxwell(),
            Self::p100(),
            Self::titan_xp(),
            Self::v100(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_feature_rows() {
        assert!(!Arch::Tesla.features().cuda_streams);
        assert_eq!(Arch::Tesla.features().max_concurrent_kernels, 1);
        assert_eq!(Arch::Fermi.features().max_concurrent_kernels, 16);
        assert_eq!(Arch::Kepler.features().max_concurrent_kernels, 32);
        assert_eq!(Arch::Maxwell.features().max_concurrent_kernels, 16);
        assert_eq!(Arch::Pascal.features().max_concurrent_kernels, 128);
        assert_eq!(Arch::Volta.features().max_concurrent_kernels, 128);
        assert!(Arch::Volta.features().tensor_cores);
        assert!(!Arch::Pascal.features().tensor_cores);
        assert!(Arch::Pascal.features().unified_memory);
        assert!(!Arch::Kepler.features().unified_memory);
        assert!(Arch::Kepler.features().dynamic_parallelism);
        assert!(!Arch::Fermi.features().dynamic_parallelism);
    }

    #[test]
    fn table3_hardware_profile() {
        let k40 = DeviceProps::k40c();
        assert_eq!(k40.num_sms, 15);
        assert_eq!(k40.cores_per_sm, 192);
        assert_eq!(k40.smem_per_sm, 48 * 1024);
        assert_eq!(k40.concurrency_degree(), 32);

        let p100 = DeviceProps::p100();
        assert_eq!(p100.num_sms, 56);
        assert_eq!(p100.cores_per_sm, 64);
        assert_eq!(p100.smem_per_sm, 64 * 1024);
        assert_eq!(p100.concurrency_degree(), 128);

        let xp = DeviceProps::titan_xp();
        assert_eq!(xp.num_sms, 30);
        assert_eq!(xp.cores_per_sm, 128);
        assert_eq!(xp.concurrency_degree(), 128);
    }

    #[test]
    fn derived_quantities() {
        let p100 = DeviceProps::p100();
        // 64 cores * 2 flops * 1.189 GHz.
        let per_sm = p100.sm_peak_flops();
        assert!((per_sm - 64.0 * 2.0 * 1.189e9).abs() < 1.0);
        assert!((p100.device_peak_flops() - per_sm * 56.0).abs() < 1.0);
        assert_eq!(p100.max_warps_per_sm(), 64);
    }

    #[test]
    fn evaluation_set_matches_paper_order() {
        let devs = DeviceProps::evaluation_set();
        assert_eq!(devs.len(), 3);
        assert_eq!(devs[0].name, "Tesla K40C");
        assert_eq!(devs[1].name, "Tesla P100");
        assert_eq!(devs[2].name, "Titan XP");
    }

    #[test]
    fn generation_set_spans_fermi_to_volta() {
        let devs = DeviceProps::generation_set();
        assert_eq!(devs.len(), 6);
        let archs: Vec<Arch> = devs.iter().map(|d| d.arch).collect();
        assert_eq!(
            archs,
            vec![
                Arch::Fermi,
                Arch::Kepler,
                Arch::Maxwell,
                Arch::Pascal,
                Arch::Pascal,
                Arch::Volta
            ]
        );
        // Concurrency degrees follow Table 1.
        assert_eq!(devs[0].concurrency_degree(), 16);
        assert_eq!(devs[2].concurrency_degree(), 16);
        assert_eq!(devs[5].concurrency_degree(), 128);
        // All stream-capable.
        assert!(devs.iter().all(|d| d.arch.features().cuda_streams));
    }
}
