//! Coherence protocol messages.
//!
//! The directory protocol exchanges these messages between a line's *home*
//! node and the caching nodes. Messages that can generate further messages
//! travel on the request virtual lane; terminal messages travel on the reply
//! lane (so they are always sinkable, avoiding protocol deadlock).

use crate::line::{LineAddr, Version};
use flash_net::Lane;

/// Flits in a header-only control message.
pub const CTRL_FLITS: u32 = 1;
/// Flits in a message carrying a 128-byte line (1 header + 8 data flits).
pub const DATA_FLITS: u32 = 9;

/// A cache-coherence protocol message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CohMsg {
    /// Read request: fetch a shared copy.
    Get {
        /// The requested line.
        line: LineAddr,
    },
    /// Write request: fetch an exclusive copy.
    GetX {
        /// The requested line.
        line: LineAddr,
    },
    /// Ownership upgrade: the requester already holds a shared copy and
    /// asks for exclusivity without a data transfer (1 flit instead of 9).
    /// If the home no longer lists the requester as a sharer, it falls back
    /// to the full [`CohMsg::GetX`] path.
    UpgradeReq {
        /// The line to upgrade.
        line: LineAddr,
    },
    /// Grants an upgrade: the requester's shared copy becomes exclusive.
    UpgradeAck {
        /// The upgraded line.
        line: LineAddr,
    },
    /// Writeback: returns the *only valid copy* of a dirty line to its home
    /// (the FLASH protocol entrusts the data to this message — losing it
    /// makes the line incoherent; paper, Section 3.2).
    Put {
        /// The written-back line.
        line: LineAddr,
        /// The line's data (version model).
        version: Version,
        /// Whether the writer keeps a clean shared copy (downgrade in
        /// response to a read recall) instead of dropping the line.
        keep_shared: bool,
    },
    /// Acknowledges a voluntary writeback.
    PutAck {
        /// The acknowledged line.
        line: LineAddr,
    },
    /// Home asks a sharer to drop its copy.
    Inval {
        /// The line to invalidate.
        line: LineAddr,
    },
    /// Sharer acknowledges an invalidation.
    InvalAck {
        /// The invalidated line.
        line: LineAddr,
    },
    /// Home asks the exclusive owner to write the line back (a recall on
    /// behalf of another requester).
    Fetch {
        /// The recalled line.
        line: LineAddr,
        /// Whether the waiting requester wants exclusive access.
        for_write: bool,
    },
    /// Data reply granting a shared or exclusive copy.
    Data {
        /// The granted line.
        line: LineAddr,
        /// The line's data (version model).
        version: Version,
        /// Whether the copy is exclusive.
        exclusive: bool,
    },
    /// Negative acknowledgment: the line is locked in a transient state;
    /// the requester must retry (incrementing its NAK counter).
    Nak {
        /// The NAK'd line.
        line: LineAddr,
    },
    /// Terminal error reply: the line is marked incoherent after a fault;
    /// the requester's node controller raises a bus error.
    IncoherentErr {
        /// The incoherent line.
        line: LineAddr,
    },
    /// Terminal error reply: the requester lacks firewall write permission
    /// for the page (raises a bus error at the requester).
    FirewallErr {
        /// The denied line.
        line: LineAddr,
    },
}

impl CohMsg {
    /// The line this message concerns.
    pub fn line(&self) -> LineAddr {
        match *self {
            CohMsg::Get { line }
            | CohMsg::GetX { line }
            | CohMsg::UpgradeReq { line }
            | CohMsg::UpgradeAck { line }
            | CohMsg::Put { line, .. }
            | CohMsg::PutAck { line }
            | CohMsg::Inval { line }
            | CohMsg::InvalAck { line }
            | CohMsg::Fetch { line, .. }
            | CohMsg::Data { line, .. }
            | CohMsg::Nak { line }
            | CohMsg::IncoherentErr { line }
            | CohMsg::FirewallErr { line } => line,
        }
    }

    /// The packet size in flits.
    pub fn flits(&self) -> u32 {
        match self {
            CohMsg::Put { .. } | CohMsg::Data { .. } => DATA_FLITS,
            _ => CTRL_FLITS,
        }
    }

    /// The virtual lane this message travels on.
    pub fn lane(&self) -> Lane {
        match self {
            // Messages that may trigger further protocol activity.
            CohMsg::Get { .. }
            | CohMsg::GetX { .. }
            | CohMsg::UpgradeReq { .. }
            | CohMsg::Put { .. }
            | CohMsg::Inval { .. }
            | CohMsg::Fetch { .. } => Lane::Request,
            // Terminal messages: always consumable.
            CohMsg::PutAck { .. }
            | CohMsg::UpgradeAck { .. }
            | CohMsg::InvalAck { .. }
            | CohMsg::Data { .. }
            | CohMsg::Nak { .. }
            | CohMsg::IncoherentErr { .. }
            | CohMsg::FirewallErr { .. } => Lane::Reply,
        }
    }

    /// Whether this message is addressed to the line's home directory
    /// ([`crate::Directory::handle`]) rather than to a caching node.
    pub fn to_home(&self) -> bool {
        matches!(
            self,
            CohMsg::Get { .. }
                | CohMsg::GetX { .. }
                | CohMsg::UpgradeReq { .. }
                | CohMsg::Put { .. }
                | CohMsg::InvalAck { .. }
        )
    }

    /// Stable snake-case label, used by the observability layer as the
    /// handler name for dispatch events.
    pub fn kind_str(&self) -> &'static str {
        match self {
            CohMsg::Get { .. } => "get",
            CohMsg::GetX { .. } => "getx",
            CohMsg::UpgradeReq { .. } => "upgrade_req",
            CohMsg::UpgradeAck { .. } => "upgrade_ack",
            CohMsg::Put { .. } => "put",
            CohMsg::PutAck { .. } => "put_ack",
            CohMsg::Inval { .. } => "inval",
            CohMsg::InvalAck { .. } => "inval_ack",
            CohMsg::Fetch { .. } => "fetch",
            CohMsg::Data { .. } => "data",
            CohMsg::Nak { .. } => "nak",
            CohMsg::IncoherentErr { .. } => "incoherent_err",
            CohMsg::FirewallErr { .. } => "firewall_err",
        }
    }

    /// Whether this message carries the only valid copy of a line (its loss
    /// makes the line incoherent).
    pub fn carries_sole_copy(&self) -> bool {
        matches!(
            self,
            CohMsg::Put { .. }
                | CohMsg::Data {
                    exclusive: true,
                    ..
                }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_and_lanes() {
        let l = LineAddr(5);
        assert_eq!(CohMsg::Get { line: l }.flits(), 1);
        assert_eq!(
            CohMsg::Put {
                line: l,
                version: Version(1),
                keep_shared: false
            }
            .flits(),
            9
        );
        assert_eq!(
            CohMsg::Data {
                line: l,
                version: Version(1),
                exclusive: false
            }
            .flits(),
            9
        );
        assert_eq!(CohMsg::Get { line: l }.lane(), Lane::Request);
        assert_eq!(CohMsg::Nak { line: l }.lane(), Lane::Reply);
        assert_eq!(CohMsg::Inval { line: l }.lane(), Lane::Request);
        assert_eq!(CohMsg::InvalAck { line: l }.lane(), Lane::Reply);
    }

    #[test]
    fn line_accessor_covers_all_variants() {
        let l = LineAddr(7);
        let msgs = [
            CohMsg::Get { line: l },
            CohMsg::GetX { line: l },
            CohMsg::Put {
                line: l,
                version: Version(2),
                keep_shared: false,
            },
            CohMsg::PutAck { line: l },
            CohMsg::Inval { line: l },
            CohMsg::InvalAck { line: l },
            CohMsg::Fetch {
                line: l,
                for_write: true,
            },
            CohMsg::Data {
                line: l,
                version: Version(2),
                exclusive: true,
            },
            CohMsg::Nak { line: l },
            CohMsg::IncoherentErr { line: l },
            CohMsg::FirewallErr { line: l },
        ];
        for m in msgs {
            assert_eq!(m.line(), l);
        }
    }

    #[test]
    fn home_bound_messages() {
        let l = LineAddr(4);
        let v = Version(1);
        let home = [
            CohMsg::Get { line: l },
            CohMsg::GetX { line: l },
            CohMsg::UpgradeReq { line: l },
            CohMsg::Put {
                line: l,
                version: v,
                keep_shared: true,
            },
            CohMsg::InvalAck { line: l },
        ];
        let cache = [
            CohMsg::UpgradeAck { line: l },
            CohMsg::PutAck { line: l },
            CohMsg::Inval { line: l },
            CohMsg::Fetch {
                line: l,
                for_write: false,
            },
            CohMsg::Data {
                line: l,
                version: v,
                exclusive: true,
            },
            CohMsg::Nak { line: l },
            CohMsg::IncoherentErr { line: l },
            CohMsg::FirewallErr { line: l },
        ];
        assert!(home.iter().all(CohMsg::to_home));
        assert!(!cache.iter().any(CohMsg::to_home));
    }

    #[test]
    fn sole_copy_carriers() {
        let l = LineAddr(1);
        assert!(CohMsg::Put {
            line: l,
            version: Version(3),
            keep_shared: false
        }
        .carries_sole_copy());
        assert!(CohMsg::Data {
            line: l,
            version: Version(3),
            exclusive: true
        }
        .carries_sole_copy());
        assert!(!CohMsg::Data {
            line: l,
            version: Version(3),
            exclusive: false
        }
        .carries_sole_copy());
        assert!(!CohMsg::Get { line: l }.carries_sole_copy());
    }
}
