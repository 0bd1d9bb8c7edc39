//! The event taxonomy: one structured variant per instrumentation point in
//! the stack, each carrying only primitive identifiers (`u16` node ids,
//! `u8` lanes/phases, `&'static str` labels) so recording never allocates.

use std::fmt;

/// The subsystem an event was recorded from.
///
/// Each domain owns one ring-buffer shard in the
/// [`Recorder`](crate::Recorder) and can be enabled independently, so the
/// hot interconnect/controller domains stay zero-cost while the sparse
/// fault/recovery domains trace by default.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Domain {
    /// Interconnect fabric (packet lifecycle, drops, coalescing).
    Net = 0,
    /// Cache-coherence protocol (incoherence markings, denials).
    Coherence = 1,
    /// MAGIC node controller (handler dispatch and occupancy).
    Magic = 2,
    /// Machine assembly (fault injection, triggers, bus errors).
    Machine = 3,
    /// Four-phase recovery algorithm (phase transitions, barriers).
    Recovery = 4,
    /// Hive cell OS and the KV serving layer on it (cell state, OS
    /// recovery passes, requests, chunk placement).
    Hive = 5,
}

impl Domain {
    /// Number of domains (shard count).
    pub const COUNT: usize = 6;

    /// All domains, in shard order.
    pub const ALL: [Domain; Domain::COUNT] = [
        Domain::Net,
        Domain::Coherence,
        Domain::Magic,
        Domain::Machine,
        Domain::Recovery,
        Domain::Hive,
    ];

    /// Stable lower-case label, used in rendered traces and exports.
    pub fn label(self) -> &'static str {
        match self {
            Domain::Net => "net",
            Domain::Coherence => "coh",
            Domain::Magic => "magic",
            Domain::Machine => "machine",
            Domain::Recovery => "recovery",
            Domain::Hive => "hive",
        }
    }

    /// The shard index backing this domain.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The bit this domain occupies in the recorder's enable mask.
    #[inline]
    pub(crate) fn bit(self) -> u8 {
        1 << (self as u8)
    }
}

/// A structured trace event.
///
/// Variants mirror the instrumentation points of the stack, bottom-up:
/// packet lifecycle in the fabric, handler dispatch on the node
/// controllers, coherence-state markings, fault injection and triggers,
/// per-node recovery-phase transitions and barrier rounds, and Hive
/// cell/OS events. Every variant is `Copy` and carries only primitive ids,
/// so the recording hot path is a mask test plus a ring-buffer push.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TraceEvent {
    /// A packet was accepted into the fabric's injection queue.
    PacketSent {
        /// Source node.
        src: u16,
        /// Destination node.
        dst: u16,
        /// Virtual lane index.
        lane: u8,
        /// Packet size in flits.
        flits: u32,
    },
    /// A packet reached its destination node controller.
    PacketDelivered {
        /// Destination node.
        node: u16,
        /// Virtual lane index.
        lane: u8,
        /// Links crossed en route.
        hops: u8,
        /// Whether the packet lost its data flits to a mid-link failure.
        truncated: bool,
    },
    /// The fabric discarded a packet.
    PacketDropped {
        /// Drop reason (same names as the fabric's counters).
        reason: &'static str,
    },
    /// A node controller dispatched a handler for one input packet.
    HandlerDispatch {
        /// Servicing node.
        node: u16,
        /// Handler (payload kind) label.
        handler: &'static str,
        /// Occupancy charged, in nanoseconds.
        cost_ns: u64,
    },
    /// A coherence-significant state change (incoherence marking, firewall
    /// denial, drained request, ...).
    CohTransition {
        /// Node observing the transition.
        node: u16,
        /// The cache line concerned.
        line: u64,
        /// Transition label.
        what: &'static str,
    },
    /// The injector applied a fault's physical effect.
    FaultInjected {
        /// Fault kind label (`node`, `router`, `link`, ...).
        kind: &'static str,
        /// Primary victim (first doomed node; a link fault names one
        /// endpoint router's node).
        node: u16,
    },
    /// A hardware recovery trigger fired at a node controller.
    TriggerFired {
        /// Triggering node.
        node: u16,
        /// Trigger kind label.
        trigger: &'static str,
    },
    /// A node controller raised a bus error to its processor.
    BusErrorRaised {
        /// Raising node.
        node: u16,
        /// Bus-error kind label.
        err: &'static str,
    },
    /// A node entered a recovery phase (P1–P4).
    PhaseEnter {
        /// The node.
        node: u16,
        /// Phase number, 1–4.
        phase: u8,
        /// Recovery incarnation at this node.
        incarnation: u32,
    },
    /// A node left a recovery phase (P1–P4).
    PhaseExit {
        /// The node.
        node: u16,
        /// Phase number, 1–4.
        phase: u8,
        /// Recovery incarnation at this node.
        incarnation: u32,
    },
    /// A barrier the node participates in completed a round.
    BarrierRound {
        /// The node observing completion.
        node: u16,
        /// Barrier label (`drain1`, `routes`, `flush`, ...).
        barrier: &'static str,
        /// The round's aggregated boolean result.
        ok: bool,
    },
    /// The recovery algorithm restarted with a higher incarnation.
    RecoveryRestart {
        /// The restarting node.
        node: u16,
        /// The new incarnation.
        incarnation: u32,
    },
    /// A Hive cell event (cell failure, RPC accounting, ...).
    HiveCell {
        /// The cell id.
        cell: u16,
        /// Event label.
        what: &'static str,
        /// Event-specific value.
        value: u64,
    },
    /// A Hive OS-level event (recovery pass, task reschedule, ...).
    OsEvent {
        /// Event label.
        what: &'static str,
        /// Event-specific value.
        value: u64,
    },
    /// A KV request lifecycle event at a serving shard (recorded under
    /// [`Domain::Hive`]: the KV store is a Hive service).
    KvRequest {
        /// The shard's serving node.
        node: u16,
        /// Lifecycle label (`arrivals_resolved`, `errors`, ...).
        what: &'static str,
        /// Event-specific value.
        value: u64,
    },
    /// A KV chunk placement event (failover, re-replication, loss).
    KvChunk {
        /// The chunk id.
        chunk: u16,
        /// Placement label (`failover`, `rereplicate`, `lost`, ...).
        what: &'static str,
        /// Event-specific value (usually the cell concerned).
        value: u64,
    },
}

impl TraceEvent {
    /// Stable snake-case kind label (the Chrome-trace event name for
    /// instant events).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::PacketSent { .. } => "packet_sent",
            TraceEvent::PacketDelivered { .. } => "packet_delivered",
            TraceEvent::PacketDropped { .. } => "packet_dropped",
            TraceEvent::HandlerDispatch { .. } => "handler_dispatch",
            TraceEvent::CohTransition { .. } => "coh_transition",
            TraceEvent::FaultInjected { .. } => "fault_injected",
            TraceEvent::TriggerFired { .. } => "trigger_fired",
            TraceEvent::BusErrorRaised { .. } => "bus_error",
            TraceEvent::PhaseEnter { .. } => "phase_enter",
            TraceEvent::PhaseExit { .. } => "phase_exit",
            TraceEvent::BarrierRound { .. } => "barrier_round",
            TraceEvent::RecoveryRestart { .. } => "recovery_restart",
            TraceEvent::HiveCell { .. } => "hive_cell",
            TraceEvent::OsEvent { .. } => "os_event",
            TraceEvent::KvRequest { .. } => "kv_request",
            TraceEvent::KvChunk { .. } => "kv_chunk",
        }
    }

    /// The node this event is attributed to, if any (the Chrome-trace
    /// thread id).
    pub fn node(&self) -> Option<u16> {
        match *self {
            TraceEvent::PacketSent { src, .. } => Some(src),
            TraceEvent::PacketDelivered { node, .. }
            | TraceEvent::HandlerDispatch { node, .. }
            | TraceEvent::CohTransition { node, .. }
            | TraceEvent::FaultInjected { node, .. }
            | TraceEvent::TriggerFired { node, .. }
            | TraceEvent::BusErrorRaised { node, .. }
            | TraceEvent::PhaseEnter { node, .. }
            | TraceEvent::PhaseExit { node, .. }
            | TraceEvent::BarrierRound { node, .. }
            | TraceEvent::RecoveryRestart { node, .. }
            | TraceEvent::KvRequest { node, .. } => Some(node),
            TraceEvent::HiveCell { cell, .. } => Some(cell),
            TraceEvent::PacketDropped { .. }
            | TraceEvent::OsEvent { .. }
            | TraceEvent::KvChunk { .. } => None,
        }
    }
}

impl fmt::Display for TraceEvent {
    /// Compact single-line rendering, stable across platforms (used by
    /// [`Recorder::render`](crate::Recorder::render) and therefore by the
    /// merged-trace hash).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TraceEvent::PacketSent {
                src,
                dst,
                lane,
                flits,
            } => write!(
                f,
                "packet_sent src={src} dst={dst} lane={lane} flits={flits}"
            ),
            TraceEvent::PacketDelivered {
                node,
                lane,
                hops,
                truncated,
            } => write!(
                f,
                "packet_delivered node={node} lane={lane} hops={hops} truncated={truncated}"
            ),
            TraceEvent::PacketDropped { reason } => write!(f, "packet_dropped reason={reason}"),
            TraceEvent::HandlerDispatch {
                node,
                handler,
                cost_ns,
            } => write!(
                f,
                "handler_dispatch node={node} handler={handler} cost_ns={cost_ns}"
            ),
            TraceEvent::CohTransition { node, line, what } => {
                write!(f, "coh_transition node={node} line={line:#x} what={what}")
            }
            TraceEvent::FaultInjected { kind, node } => {
                write!(f, "fault_injected kind={kind} node={node}")
            }
            TraceEvent::TriggerFired { node, trigger } => {
                write!(f, "trigger_fired node={node} trigger={trigger}")
            }
            TraceEvent::BusErrorRaised { node, err } => {
                write!(f, "bus_error node={node} err={err}")
            }
            TraceEvent::PhaseEnter {
                node,
                phase,
                incarnation,
            } => write!(
                f,
                "phase_enter node={node} phase=P{phase} inc={incarnation}"
            ),
            TraceEvent::PhaseExit {
                node,
                phase,
                incarnation,
            } => write!(f, "phase_exit node={node} phase=P{phase} inc={incarnation}"),
            TraceEvent::BarrierRound { node, barrier, ok } => {
                write!(f, "barrier_round node={node} barrier={barrier} ok={ok}")
            }
            TraceEvent::RecoveryRestart { node, incarnation } => {
                write!(f, "recovery_restart node={node} inc={incarnation}")
            }
            TraceEvent::HiveCell { cell, what, value } => {
                write!(f, "hive_cell cell={cell} what={what} value={value}")
            }
            TraceEvent::OsEvent { what, value } => write!(f, "os_event what={what} value={value}"),
            TraceEvent::KvRequest { node, what, value } => {
                write!(f, "kv_request node={node} what={what} value={value}")
            }
            TraceEvent::KvChunk { chunk, what, value } => {
                write!(f, "kv_chunk chunk={chunk} what={what} value={value}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_bits_are_distinct() {
        let mut seen = 0u8;
        for d in Domain::ALL {
            assert_eq!(seen & d.bit(), 0, "duplicate bit for {d:?}");
            seen |= d.bit();
            assert_eq!(Domain::ALL[d.index()], d);
        }
        assert_eq!(seen, (1 << Domain::COUNT) - 1);
    }

    #[test]
    fn display_is_compact_and_stable() {
        let e = TraceEvent::PhaseEnter {
            node: 3,
            phase: 2,
            incarnation: 1,
        };
        assert_eq!(e.to_string(), "phase_enter node=3 phase=P2 inc=1");
        assert_eq!(e.kind(), "phase_enter");
        assert_eq!(e.node(), Some(3));
        let d = TraceEvent::PacketDropped {
            reason: "drop_blackhole_link",
        };
        assert_eq!(d.node(), None);
        assert_eq!(d.to_string(), "packet_dropped reason=drop_blackhole_link");
    }
}
