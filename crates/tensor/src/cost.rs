//! Calibrated execution-time model for the tensor kernels.
//!
//! The original study timed NWChem kernels on PNNL's Cascade machine (Intel
//! Xeon E5-2670 nodes); we do not have that machine, so the trace generators
//! convert flop and byte counts into times with a simple roofline-style
//! model. The default constants approximate one Cascade core; the absolute
//! values do not matter for the experiments (every plot of the paper is a
//! ratio to the OMIM lower bound), only the relative magnitude of
//! communication and computation does, and that is preserved by construction
//! because both come from the same tile sizes.

use crate::contraction::ContractionSpec;
use crate::tile::TileShape;
use serde::Serialize;

/// Cost of executing a kernel: flops performed and bytes touched in local
/// memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct KernelCost {
    /// Floating-point operations.
    pub flops: u64,
    /// Bytes read and written in local memory.
    pub bytes: u64,
}

impl KernelCost {
    /// Cost of a tensor transpose of the given shape.
    pub fn transpose(shape: TileShape) -> Self {
        KernelCost {
            flops: 0,
            bytes: 2 * shape.bytes(),
        }
    }

    /// Cost of a contraction.
    pub fn contraction(spec: ContractionSpec) -> Self {
        KernelCost {
            flops: spec.flops(),
            bytes: spec.input_bytes() + spec.output_bytes(),
        }
    }

    /// Sum of two costs (a task usually performs a few transposes plus one
    /// contraction).
    pub fn plus(self, other: KernelCost) -> KernelCost {
        KernelCost {
            flops: self.flops + other.flops,
            bytes: self.bytes + other.bytes,
        }
    }
}

/// Roofline-style execution-time model for one core.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CostModel {
    /// Sustained floating-point rate in flop/s.
    pub flops_per_second: f64,
    /// Sustained local-memory bandwidth in bytes/s.
    pub memory_bandwidth: f64,
    /// Fixed per-kernel overhead in seconds (task launch, integral screening,
    /// bookkeeping).
    pub kernel_overhead: f64,
}

impl Default for CostModel {
    /// Approximation of one Intel Xeon E5-2670 (Sandy Bridge) core as found
    /// in the Cascade nodes: ~8 Gflop/s sustained on the TCE kernels,
    /// ~4 GB/s per-core memory bandwidth, 10 µs of per-task overhead.
    fn default() -> Self {
        CostModel {
            flops_per_second: 8.0e9,
            memory_bandwidth: 4.0e9,
            kernel_overhead: 10.0e-6,
        }
    }
}

impl CostModel {
    /// Execution time in seconds of a kernel with the given cost: the
    /// roofline maximum of compute time and memory time, plus the overhead.
    pub fn seconds(&self, cost: KernelCost) -> f64 {
        let compute = cost.flops as f64 / self.flops_per_second;
        let memory = cost.bytes as f64 / self.memory_bandwidth;
        compute.max(memory) + self.kernel_overhead
    }

    /// Execution time in integer microseconds (the resolution of the traces).
    pub fn micros(&self, cost: KernelCost) -> u64 {
        (self.seconds(cost) * 1e6).round().max(1.0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose_is_memory_bound() {
        let model = CostModel::default();
        let cost = KernelCost::transpose(TileShape::matrix(100, 100));
        assert_eq!(cost.flops, 0);
        assert_eq!(cost.bytes, 160_000);
        let t = model.seconds(cost);
        // 160 kB at 4 GB/s = 40 µs, plus 10 µs overhead.
        assert!((t - 50e-6).abs() < 1e-9);
    }

    #[test]
    fn contraction_is_compute_bound_for_square_tiles() {
        let model = CostModel::default();
        let cost = KernelCost::contraction(ContractionSpec::new(100, 100, 100));
        // 2 Mflop at 8 Gflop/s = 250 µs, memory 240 kB at 4 GB/s = 60 µs.
        let t = model.seconds(cost);
        assert!((t - 260e-6).abs() < 1e-9);
        assert_eq!(model.micros(cost), 260);
    }

    #[test]
    fn costs_compose() {
        let a = KernelCost::transpose(TileShape::matrix(10, 10));
        let b = KernelCost::contraction(ContractionSpec::new(10, 10, 10));
        let total = a.plus(b);
        assert_eq!(total.flops, b.flops);
        assert_eq!(total.bytes, a.bytes + b.bytes);
    }

    #[test]
    fn micros_never_rounds_to_zero() {
        let model = CostModel {
            flops_per_second: 1e15,
            memory_bandwidth: 1e15,
            kernel_overhead: 0.0,
        };
        assert_eq!(model.micros(KernelCost { flops: 1, bytes: 1 }), 1);
    }
}
