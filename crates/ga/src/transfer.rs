//! Transfer-cost model.
//!
//! The paper uses a deliberately simple model: every transfer between a
//! process's local memory and the Global-Arrays memory takes the same route,
//! so its duration only depends on the message size. The model is
//! `latency + bytes / bandwidth`, with an optional cheaper intra-node path
//! (disabled by default to match the paper exactly) and a preset for the
//! CPU↔GPU copy-engine scenario the paper mentions as future work.

use serde::Serialize;

/// Linear (latency + bandwidth) transfer-cost model with a single route per
/// source–destination pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TransferModel {
    /// Per-message latency in seconds.
    pub latency: f64,
    /// Link bandwidth in bytes/s for inter-node transfers.
    pub bandwidth: f64,
    /// Bandwidth for transfers whose endpoints are on the same node. Equal
    /// to `bandwidth` by default (single-route model of the paper).
    pub intra_node_bandwidth: f64,
}

impl Default for TransferModel {
    /// Approximation of the Cascade FDR InfiniBand fabric as seen by one
    /// process: 2 µs latency, 1.5 GB/s effective per-process bandwidth.
    fn default() -> Self {
        TransferModel {
            latency: 2.0e-6,
            bandwidth: 1.5e9,
            intra_node_bandwidth: 1.5e9,
        }
    }
}

impl TransferModel {
    /// Preset for the CPU↔GPU offload scenario (one PCIe 3.0 x16 copy
    /// engine): 10 µs launch latency, 12 GB/s.
    pub fn pcie_gen3() -> Self {
        TransferModel {
            latency: 10.0e-6,
            bandwidth: 12.0e9,
            intra_node_bandwidth: 12.0e9,
        }
    }

    /// Transfer time in seconds for a message of `bytes` bytes between two
    /// endpoints. `same_node` selects the intra-node bandwidth.
    pub fn seconds(&self, bytes: u64, same_node: bool) -> f64 {
        let bw = if same_node {
            self.intra_node_bandwidth
        } else {
            self.bandwidth
        };
        self.latency + bytes as f64 / bw
    }

    /// Transfer time in integer microseconds (trace resolution), at least 1.
    pub fn micros(&self, bytes: u64, same_node: bool) -> u64 {
        (self.seconds(bytes, same_node) * 1e6).round().max(1.0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_model_is_single_route() {
        let m = TransferModel::default();
        assert_eq!(m.seconds(1 << 20, true), m.seconds(1 << 20, false));
    }

    #[test]
    fn cost_is_affine_in_message_size() {
        let m = TransferModel::default();
        let t1 = m.seconds(1_500_000, false);
        let t2 = m.seconds(3_000_000, false);
        // Doubling the payload roughly doubles the bandwidth term.
        assert!((t2 - t1 - 1e-3).abs() < 1e-9);
        // 176 KiB (the largest HF task of the paper) ≈ 122 µs.
        let hf = m.micros(176 * 1024, false);
        assert!((100..150).contains(&hf), "{hf}");
    }

    #[test]
    fn micros_is_at_least_one() {
        let m = TransferModel::default();
        assert!(m.micros(0, false) >= 1);
    }

    #[test]
    fn pcie_preset_is_faster_per_byte_but_higher_latency() {
        let ib = TransferModel::default();
        let pcie = TransferModel::pcie_gen3();
        assert!(pcie.latency > ib.latency);
        assert!(pcie.seconds(100 << 20, false) < ib.seconds(100 << 20, false));
    }
}
