//! The controller's cost constants.
//!
//! Handler occupancies in nanoseconds: MAGIC runs at 100 MHz, and the
//! remote-read handler is 24 dual-issue instructions, < 120 ns (paper,
//! Section 3.1).

/// Home handler for a read request.
pub const GET_NS: u64 = 120;
/// Home handler for an exclusive request.
pub const GETX_NS: u64 = 120;
/// Extra cost of the firewall ACL check in write handlers, when enabled.
pub const FIREWALL_CHECK_NS: u64 = 8;
/// Home handler for a writeback.
pub const PUT_NS: u64 = 100;
/// Cache-side handler for an invalidation or recall.
pub const INVAL_NS: u64 = 60;
/// Home handler for an invalidation acknowledgment.
pub const INVAL_ACK_NS: u64 = 40;
/// Cache-side handler for a data reply (fills the processor's cache).
pub const DATA_NS: u64 = 60;
/// NAK / terminal-error handlers.
pub const NAK_NS: u64 = 40;
/// Uncached read/write service (I/O device access).
pub const UNCACHED_NS: u64 = 100;
/// Error handler dispatched on a truncated packet or node-map miss.
pub const ERROR_NS: u64 = 100;
/// Handler servicing a recovery-lane message (ping, state exchange...).
pub const RECOVERY_MSG_NS: u64 = 100;
/// Per-line cost of the MAGIC directory-scan service used in recovery
/// phase 4 (calibrated to Figure 5.6's memory-size scaling).
pub const DIR_SCAN_PER_LINE_NS: u64 = 75;
/// DRAM access folded into data-carrying handlers.
pub const MEM_ACCESS_NS: u64 = 140;
/// Delay before a NAK'd request is retried.
pub const NAK_RETRY_NS: u64 = 200;

// The remote read handler stays under 120 ns (Section 3.1), and the
// firewall adds less than 7% of an inter-node write miss (~1 us).
const _: () = assert!(GET_NS <= 120 && FIREWALL_CHECK_NS * 100 < 7 * 1_000);
