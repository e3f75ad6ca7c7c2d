//! Hardware platform specifications — Table III of the paper.

use serde::{Deserialize, Serialize};

/// An FPGA device (per-die resources and external-memory bandwidth).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FpgaDevice {
    /// Marketing name.
    pub name: String,
    /// Number of dies (Super Logic Regions).
    pub num_dies: usize,
    /// Look-up tables per die.
    pub luts_per_die: u64,
    /// DSP slices per die.
    pub dsps_per_die: u64,
    /// 36 Kb block RAMs per die.
    pub brams_per_die: u64,
    /// 288 Kb ultra RAMs per die.
    pub urams_per_die: u64,
    /// Peak external-memory bandwidth in GB/s.
    pub ddr_bandwidth_gbps: f64,
    /// Maximum achievable clock frequency for this design family, MHz.
    pub max_frequency_mhz: f64,
}

impl FpgaDevice {
    /// Xilinx Alveo U200 (cloud card): 3 SLRs, 77 GB/s DDR4.
    pub fn alveo_u200() -> Self {
        Self {
            name: "Xilinx Alveo U200".into(),
            num_dies: 3,
            luts_per_die: 394_000,
            dsps_per_die: 2_280,
            brams_per_die: 720,
            urams_per_die: 320,
            ddr_bandwidth_gbps: 77.0,
            max_frequency_mhz: 250.0,
        }
    }

    /// Xilinx ZCU104 (embedded board): 1 die, 19.2 GB/s DDR4.
    pub fn zcu104() -> Self {
        Self {
            name: "Xilinx ZCU104".into(),
            num_dies: 1,
            luts_per_die: 230_000,
            dsps_per_die: 1_728,
            brams_per_die: 312,
            urams_per_die: 96,
            ddr_bandwidth_gbps: 19.2,
            max_frequency_mhz: 125.0,
        }
    }

    /// Total LUTs across dies.
    pub fn total_luts(&self) -> u64 {
        self.luts_per_die * self.num_dies as u64
    }

    /// Total DSPs across dies.
    pub fn total_dsps(&self) -> u64 {
        self.dsps_per_die * self.num_dies as u64
    }

    /// Total BRAMs across dies.
    pub fn total_brams(&self) -> u64 {
        self.brams_per_die * self.num_dies as u64
    }

    /// Total URAMs across dies.
    pub fn total_urams(&self) -> u64 {
        self.urams_per_die * self.num_dies as u64
    }

    /// Total on-chip memory capacity in bytes (BRAM 36 Kb + URAM 288 Kb).
    pub fn on_chip_bytes(&self) -> u64 {
        (self.total_brams() * 36 * 1024 + self.total_urams() * 288 * 1024) / 8
    }
}

/// Non-FPGA baseline platforms (Table III).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PlatformSpec {
    pub name: String,
    /// Number of hardware threads / CUDA cores available.
    pub parallel_lanes: usize,
    /// Clock frequency, MHz.
    pub frequency_mhz: f64,
    /// Peak memory bandwidth, GB/s.
    pub memory_bandwidth_gbps: f64,
}

impl PlatformSpec {
    /// Dual Intel Xeon Gold 5120 (the paper's CPU baseline).
    pub fn xeon_gold_5120_dual() -> Self {
        Self {
            name: "2x Intel Xeon Gold 5120".into(),
            parallel_lanes: 56,
            frequency_mhz: 2_200.0,
            memory_bandwidth_gbps: 89.0,
        }
    }

    /// Nvidia Titan X (the paper's GPU baseline).
    pub fn titan_x() -> Self {
        Self {
            name: "Nvidia Titan X".into(),
            parallel_lanes: 3_840,
            frequency_mhz: 1_532.0,
            memory_bandwidth_gbps: 547.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iii_specs() {
        let u200 = FpgaDevice::alveo_u200();
        assert_eq!(u200.num_dies, 3);
        assert_eq!(u200.total_dsps(), 3 * 2_280);
        assert_eq!(u200.total_luts(), 3 * 394_000);
        assert!((u200.ddr_bandwidth_gbps - 77.0).abs() < 1e-9);

        let zcu = FpgaDevice::zcu104();
        assert_eq!(zcu.num_dies, 1);
        assert_eq!(zcu.total_dsps(), 1_728);
        assert!((zcu.ddr_bandwidth_gbps - 19.2).abs() < 1e-9);
        assert!(zcu.max_frequency_mhz < u200.max_frequency_mhz);
    }

    #[test]
    fn on_chip_capacity_positive_and_ordered() {
        let u200 = FpgaDevice::alveo_u200();
        let zcu = FpgaDevice::zcu104();
        assert!(u200.on_chip_bytes() > zcu.on_chip_bytes());
        // Sanity: U200 has tens of MB of on-chip memory.
        assert!(u200.on_chip_bytes() > 30 * 1024 * 1024);
    }

    #[test]
    fn baseline_platforms() {
        let cpu = PlatformSpec::xeon_gold_5120_dual();
        let gpu = PlatformSpec::titan_x();
        assert_eq!(cpu.parallel_lanes, 56);
        assert!(gpu.memory_bandwidth_gbps > cpu.memory_bandwidth_gbps);
    }
}
