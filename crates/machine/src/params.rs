//! Machine-wide configuration.

use flash_coherence::MemLayout;
use flash_magic::MagicParams;
use flash_net::NetParams;

// The processor's cost constants and the memory reserved for MAGIC.

/// L2 hit service time, ns.
pub(crate) const L2_HIT_NS: u64 = 10;
/// Interval between consecutive processor operations (issue overhead), ns.
pub(crate) const PROC_ISSUE_NS: u64 = 5;
/// Lines at the top of each node's memory reserved for MAGIC code and
/// protocol state, protected by the range check.
pub const PROTECTED_LINES: u64 = 64;

/// Which interconnect topology to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopologyKind {
    /// A roughly square 2D mesh (the paper's simulated configuration).
    Mesh2D,
    /// A binary hypercube (standing in for FLASH's fat hypercube).
    Hypercube,
}

/// Full configuration of a simulated machine, mirroring Table 5.1 of the
/// paper (8 × R4000 @ 200 MHz, 8 × MAGIC @ 100 MHz, 1–16 MB memory per node,
/// 1 MB L2). The fixed costs are constants: this module's processor costs,
/// [`flash_magic::costs`] and `flash-core`'s recovery costs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MachineParams {
    /// Number of nodes (one processor + one MAGIC + one router each).
    pub n_nodes: usize,
    /// Interconnect topology.
    pub topology: TopologyKind,
    /// Main memory per node, in megabytes.
    pub mem_mb_per_node: u64,
    /// Second-level cache size, in megabytes.
    pub l2_mb: f64,
    /// Interconnect parameters.
    pub net: NetParams,
    /// Node-controller parameters.
    pub magic: MagicParams,
    /// Whether stores to held shared copies use the 1-flit ownership
    /// upgrade instead of a full data refetch (ablation switch).
    pub upgrades_enabled: bool,
}

impl Default for MachineParams {
    fn default() -> Self {
        MachineParams {
            n_nodes: 8,
            topology: TopologyKind::Mesh2D,
            mem_mb_per_node: 1,
            l2_mb: 1.0,
            net: NetParams::default(),
            magic: MagicParams::default(),
            upgrades_enabled: true,
        }
    }
}

impl MachineParams {
    /// A small configuration for fast unit/integration tests: 4 nodes, tiny
    /// memory and cache, short timeouts.
    pub fn tiny() -> Self {
        let mut p = MachineParams {
            n_nodes: 4,
            mem_mb_per_node: 1,
            ..MachineParams::default()
        };
        p.l2_mb = 1.0 / 128.0; // 64 lines
        p.magic.mem_op_timeout_ns = 50_000;
        p.magic.nak_threshold = 64;
        p
    }

    /// The paper's validation/end-to-end configuration (Table 5.1): 8 nodes.
    pub fn table_5_1() -> Self {
        MachineParams::default()
    }

    /// The memory layout implied by this configuration.
    pub fn layout(&self) -> MemLayout {
        MemLayout::with_node_mb(self.n_nodes, self.mem_mb_per_node)
    }

    /// L2 capacity in lines.
    pub fn l2_lines(&self) -> usize {
        (self.l2_mb * 1024.0 * 1024.0 / 128.0) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_5_1() {
        let p = MachineParams::table_5_1();
        assert_eq!(p.n_nodes, 8);
        assert_eq!(p.l2_mb, 1.0);
        assert!(p.mem_mb_per_node >= 1 && p.mem_mb_per_node <= 16);
    }

    #[test]
    fn layout_and_cache_sizes() {
        let p = MachineParams::default();
        assert_eq!(p.layout().num_nodes(), 8);
        assert_eq!(p.layout().lines_per_node(), 8192);
        assert_eq!(p.l2_lines(), 8192);
        assert_eq!(MachineParams::tiny().l2_lines(), 64);
    }
}
