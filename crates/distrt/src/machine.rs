//! Machine parameter sets for the cluster-scale simulations.

/// Parameters of the simulated distributed machine. The communication
/// model is the standard α–β (latency–bandwidth) model the paper uses in
/// Section III-G: transferring `b` bytes costs `latency + b / bandwidth`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineParams {
    /// Cores per node (GTFock runs one multithreaded process per node;
    /// the NWChem baseline runs one process per core).
    pub cores_per_node: usize,
    /// Interconnect bandwidth in bytes/second.
    pub bandwidth: f64,
    /// Per-message latency in seconds (includes one-sided op overhead).
    pub latency: f64,
    /// Serialization cost of one atomic access to a shared task counter
    /// (the centralized scheduler's bottleneck resource), seconds.
    pub atomic_op: f64,
    /// Time a caller waits before declaring a one-sided op lost and
    /// retrying, seconds. Only exercised under fault injection: each
    /// dropped op charges one timeout on top of the eventual transfer.
    pub op_timeout: f64,
}

impl MachineParams {
    /// TACC Lonestar, as reported in the paper's Table I: 2-socket
    /// Intel X5680 nodes, 12 cores at 3.33 GHz, 24 GB, InfiniBand Mellanox
    /// switch with 5 GB/s bandwidth. Latency and atomic-op costs are not
    /// given in the paper; we use typical QDR InfiniBand figures.
    pub fn lonestar() -> Self {
        MachineParams {
            cores_per_node: 12,
            bandwidth: 5.0e9,
            latency: 2.0e-6,
            atomic_op: 3.0e-6,
            op_timeout: 1.0e-4,
        }
    }

    /// Time for `calls` messages moving `bytes` total.
    #[inline]
    pub fn comm_time(&self, calls: u64, bytes: u64) -> f64 {
        calls as f64 * self.latency + bytes as f64 / self.bandwidth
    }
}

impl Default for MachineParams {
    fn default() -> Self {
        MachineParams::lonestar()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lonestar_matches_table1() {
        let m = MachineParams::lonestar();
        assert_eq!(m.cores_per_node, 12);
        assert_eq!(m.bandwidth, 5.0e9);
    }

    #[test]
    fn transfer_model_is_affine() {
        let m = MachineParams::lonestar();
        let t0 = m.comm_time(1, 0);
        let t1 = m.comm_time(1, 5_000_000_000);
        assert!((t0 - m.latency).abs() < 1e-18);
        assert!((t1 - (m.latency + 1.0)).abs() < 1e-12);
        assert!((m.comm_time(10, 100) - (10.0 * m.latency + 100.0 / m.bandwidth)).abs() < 1e-18);
    }
}
