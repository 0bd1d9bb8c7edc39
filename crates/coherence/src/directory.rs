//! The home-node directory and its protocol state machine.
//!
//! Each node's directory tracks the coherence state of the lines homed on
//! it. The protocol is a home-based MSI directory protocol with the
//! properties the paper's recovery algorithm relies on (Section 3.2):
//!
//! * a line's home services all misses for it — a dead home makes the line
//!   *inaccessible*;
//! * a dirty writeback ([`CohMsg::Put`]) carries the *only valid copy* —
//!   losing it makes the line *incoherent*;
//! * transient states (invalidations or a recall outstanding) *lock* the
//!   line: requests are NAK'd and retried, so a lost unlock message turns
//!   into an indefinite NAK spin (detected via NAK-counter overflow).
//!
//! The recovery entry points ([`Directory::recovery_put`],
//! [`Directory::scan_and_reset`]) implement the directory side of
//! coherence-protocol recovery (Section 4.5).

use crate::line::{LineAddr, MemLayout, Version};
use crate::msg::CohMsg;
use crate::nodeset::NodeSet;
use crate::pool::NodeSetPool;
use flash_net::NodeId;
use flash_net::{Counter, Counters};

/// Directory state of one line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DirState {
    /// No cached copies; memory holds the valid data.
    Uncached,
    /// Clean copies at the given nodes; memory is valid.
    Shared(NodeSet),
    /// A single dirty copy at the given node; memory is stale.
    Exclusive(NodeId),
    /// Locked: invalidations outstanding for a write request.
    PendingInvals {
        /// The node waiting for exclusive access.
        requester: NodeId,
        /// Sharers whose invalidation acknowledgment is still outstanding.
        pending: NodeSet,
        /// Whether the requester needs the data (full write miss) or only
        /// an ownership grant (upgrade of a held shared copy).
        needs_data: bool,
    },
    /// Locked: the dirty owner has been asked to write the line back.
    PendingRecall {
        /// The node waiting for the data.
        requester: NodeId,
        /// The current dirty owner.
        owner: NodeId,
        /// Whether the requester wants an exclusive copy.
        for_write: bool,
    },
    /// The line's only valid copy was lost in a fault; accesses bus-error
    /// until the operating system reinitializes the page.
    Incoherent,
}

impl DirState {
    /// Whether the line is locked in a transient state (requests are NAK'd).
    pub fn is_locked(&self) -> bool {
        matches!(
            self,
            DirState::PendingInvals { .. } | DirState::PendingRecall { .. }
        )
    }
}

/// A line's [`DirState`] without its sharer set: the state's tag, and the
/// owner of a dirty line. Whole-directory walks ([`Directory::iter_tags`])
/// yield it, since reading a line's tag never touches the sharer pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DirTag {
    /// [`DirState::Uncached`].
    Uncached,
    /// [`DirState::Shared`].
    Shared,
    /// [`DirState::Exclusive`], with its owner.
    Exclusive(NodeId),
    /// [`DirState::PendingInvals`].
    PendingInvals,
    /// [`DirState::PendingRecall`], with the owner being recalled.
    PendingRecall {
        /// The dirty owner asked to write the line back.
        owner: NodeId,
    },
    /// [`DirState::Incoherent`].
    Incoherent,
}

const _: () = assert!(std::mem::size_of::<DirTag>() == 4);

impl DirTag {
    /// The node holding the line's only valid copy, for a line that is
    /// dirty remote (`Exclusive` or `PendingRecall`).
    pub fn owner(self) -> Option<NodeId> {
        match self {
            DirTag::Exclusive(owner) | DirTag::PendingRecall { owner } => Some(owner),
            _ => None,
        }
    }

    /// Whether the line is locked in a transient state, as
    /// [`DirState::is_locked`].
    pub fn is_locked(self) -> bool {
        matches!(self, DirTag::PendingInvals | DirTag::PendingRecall { .. })
    }
}

/// Messages to send as the result of a directory transition, as
/// (destination, message) pairs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Outcome {
    /// Protocol messages to emit.
    pub sends: Vec<(NodeId, CohMsg)>,
}

impl Outcome {
    fn send(dest: NodeId, msg: CohMsg) -> Outcome {
        Outcome {
            sends: vec![(dest, msg)],
        }
    }
}

/// Inputs to the home-node protocol engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HomeIn {
    /// A read miss arrived.
    Get {
        /// Requesting node.
        from: NodeId,
    },
    /// A write (exclusive) miss arrived.
    GetX {
        /// Requesting node.
        from: NodeId,
    },
    /// An ownership-upgrade request arrived (requester claims to hold a
    /// shared copy).
    Upgrade {
        /// Requesting node.
        from: NodeId,
    },
    /// A writeback arrived.
    Put {
        /// Writing node.
        from: NodeId,
        /// The written-back data.
        version: Version,
        /// Whether the writer keeps a clean shared copy (a downgrade in
        /// response to a read recall) rather than dropping the line.
        keep_shared: bool,
    },
    /// An invalidation acknowledgment arrived.
    InvalAck {
        /// Acknowledging node.
        from: NodeId,
    },
}

/// One line's directory entry as stored: a [`DirState`] whose sharer set,
/// if it has one, lives in the directory's sharer pool at `slot`. Most
/// lines are `Uncached` or owned, so a line costs a few bytes here instead
/// of a full [`NodeSet`] (FLASH's dynamic pointer allocation does the same
/// with its pointer/link store).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Entry {
    Uncached,
    Shared(u32),
    Exclusive(NodeId),
    PendingInvals {
        requester: NodeId,
        slot: u32,
        needs_data: bool,
    },
    PendingRecall {
        requester: NodeId,
        owner: NodeId,
        for_write: bool,
    },
    Incoherent,
}

impl Entry {
    /// The sharer-pool slot this entry holds, if any.
    fn slot(self) -> Option<u32> {
        match self {
            Entry::Shared(slot) | Entry::PendingInvals { slot, .. } => Some(slot),
            _ => None,
        }
    }

    fn tag(self) -> DirTag {
        match self {
            Entry::Uncached => DirTag::Uncached,
            Entry::Shared(_) => DirTag::Shared,
            Entry::Exclusive(owner) => DirTag::Exclusive(owner),
            Entry::PendingInvals { .. } => DirTag::PendingInvals,
            Entry::PendingRecall { owner, .. } => DirTag::PendingRecall { owner },
            Entry::Incoherent => DirTag::Incoherent,
        }
    }
}

/// One homed line as stored: its directory entry and its memory version,
/// side by side, so a handler that reads both touches one cache line.
#[derive(Clone, Copy, Debug)]
struct Record {
    entry: Entry,
    version: Version,
}

const _: () = assert!(std::mem::size_of::<Entry>() == 8);
const _: () = assert!(std::mem::size_of::<Record>() == 12);

/// The directory (and memory image) for the lines homed on one node.
#[derive(Clone, Debug)]
pub struct Directory {
    home: NodeId,
    layout: MemLayout,
    lines: Vec<Record>,
    // Sharer sets of the lines in `Shared` or `PendingInvals`, indexed by
    // their entry's slot, at the machine's width.
    sharers: NodeSetPool,
    counters: Counters,
    // Sorted index of lines currently in `DirState::Incoherent`, so the
    // OS page service can find them without scanning every homed line.
    incoherent: Vec<LineAddr>,
}

impl Directory {
    /// Creates the directory for `home` under the given layout; all lines
    /// start uncached at [`Version::INITIAL`].
    pub fn new(home: NodeId, layout: MemLayout) -> Self {
        let n = layout.lines_per_node() as usize;
        Directory {
            home,
            layout,
            lines: vec![
                Record {
                    entry: Entry::Uncached,
                    version: Version::INITIAL,
                };
                n
            ],
            sharers: NodeSetPool::new(layout.num_nodes()),
            counters: Counters::new(),
            incoherent: Vec::new(),
        }
    }

    /// The node this directory lives on.
    pub fn home(&self) -> NodeId {
        self.home
    }

    /// The state of the line at local index `i`.
    #[inline]
    fn get(&self, i: usize) -> DirState {
        match self.lines[i].entry {
            Entry::Uncached => DirState::Uncached,
            Entry::Shared(slot) => DirState::Shared(self.sharers.get(slot)),
            Entry::Exclusive(owner) => DirState::Exclusive(owner),
            Entry::PendingInvals {
                requester,
                slot,
                needs_data,
            } => DirState::PendingInvals {
                requester,
                pending: self.sharers.get(slot),
                needs_data,
            },
            Entry::PendingRecall {
                requester,
                owner,
                for_write,
            } => DirState::PendingRecall {
                requester,
                owner,
                for_write,
            },
            Entry::Incoherent => DirState::Incoherent,
        }
    }

    /// Sets the state of the line at local index `i`. A line that keeps a
    /// sharer set keeps its pool slot; one that drops it frees the slot.
    fn put(&mut self, i: usize, state: DirState) {
        let mut held = self.lines[i].entry.slot();
        self.lines[i].entry = match state {
            DirState::Uncached => Entry::Uncached,
            DirState::Shared(set) => Entry::Shared(self.sharers.hold(held.take(), &set)),
            DirState::Exclusive(owner) => Entry::Exclusive(owner),
            DirState::PendingInvals {
                requester,
                pending,
                needs_data,
            } => Entry::PendingInvals {
                requester,
                slot: self.sharers.hold(held.take(), &pending),
                needs_data,
            },
            DirState::PendingRecall {
                requester,
                owner,
                for_write,
            } => Entry::PendingRecall {
                requester,
                owner,
                for_write,
            },
            DirState::Incoherent => Entry::Incoherent,
        };
        if let Some(slot) = held {
            self.sharers.release(slot);
        }
    }

    fn idx(&self, line: LineAddr) -> usize {
        debug_assert_eq!(self.layout.home_of(line), self.home, "line not homed here");
        self.layout.local_index(line)
    }

    /// The directory state of a line.
    pub fn state(&self, line: LineAddr) -> DirState {
        self.get(self.idx(line))
    }

    /// The memory image's data version for a line.
    pub fn mem_version(&self, line: LineAddr) -> Version {
        self.lines[self.idx(line)].version
    }

    /// Whether a line is marked incoherent.
    pub fn is_incoherent(&self, line: LineAddr) -> bool {
        self.lines[self.idx(line)].entry == Entry::Incoherent
    }

    /// Protocol statistics (NAKs sent, unexpected messages, ...).
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Handles one protocol message addressed to this home.
    pub fn handle(&mut self, line: LineAddr, input: HomeIn) -> Outcome {
        let i = self.idx(line);
        match input {
            HomeIn::Get { from } => self.on_get(i, line, from),
            HomeIn::GetX { from } => self.on_getx(i, line, from, true),
            HomeIn::Upgrade { from } => self.on_upgrade(i, line, from),
            HomeIn::Put {
                from,
                version,
                keep_shared,
            } => self.on_put(i, line, from, version, keep_shared),
            HomeIn::InvalAck { from } => self.on_inval_ack(i, line, from),
        }
    }

    fn on_get(&mut self, i: usize, line: LineAddr, from: NodeId) -> Outcome {
        match self.get(i) {
            DirState::Uncached => {
                self.put(i, DirState::Shared(NodeSet::singleton(from)));
                Outcome::send(
                    from,
                    CohMsg::Data {
                        line,
                        version: self.lines[i].version,
                        exclusive: false,
                    },
                )
            }
            DirState::Shared(mut s) => {
                s.insert(from);
                self.put(i, DirState::Shared(s));
                Outcome::send(
                    from,
                    CohMsg::Data {
                        line,
                        version: self.lines[i].version,
                        exclusive: false,
                    },
                )
            }
            DirState::Exclusive(owner) => {
                self.put(
                    i,
                    DirState::PendingRecall {
                        requester: from,
                        owner,
                        for_write: false,
                    },
                );
                Outcome::send(
                    owner,
                    CohMsg::Fetch {
                        line,
                        for_write: false,
                    },
                )
            }
            DirState::PendingInvals { .. } | DirState::PendingRecall { .. } => {
                self.counters.incr(Counter::NaksSent);
                Outcome::send(from, CohMsg::Nak { line })
            }
            DirState::Incoherent => {
                self.counters.incr(Counter::IncoherentAccesses);
                Outcome::send(from, CohMsg::IncoherentErr { line })
            }
        }
    }

    /// Grants exclusivity to `from`: a data reply for a full miss, or an
    /// upgrade acknowledgment when the requester already holds the data.
    fn grant_exclusive(
        &mut self,
        i: usize,
        line: LineAddr,
        from: NodeId,
        needs_data: bool,
    ) -> Outcome {
        self.put(i, DirState::Exclusive(from));
        if needs_data {
            Outcome::send(
                from,
                CohMsg::Data {
                    line,
                    version: self.lines[i].version,
                    exclusive: true,
                },
            )
        } else {
            Outcome::send(from, CohMsg::UpgradeAck { line })
        }
    }

    /// An upgrade request: valid only while the requester is still listed
    /// as a sharer — otherwise its copy was invalidated or silently evicted
    /// and the request falls back to the full GetX path.
    fn on_upgrade(&mut self, i: usize, line: LineAddr, from: NodeId) -> Outcome {
        match self.get(i) {
            DirState::Shared(s) if s.contains(from) => {
                let mut others = s;
                others.remove(from);
                if others.is_empty() {
                    self.grant_exclusive(i, line, from, false)
                } else {
                    self.put(
                        i,
                        DirState::PendingInvals {
                            requester: from,
                            pending: others,
                            needs_data: false,
                        },
                    );
                    Outcome {
                        sends: others
                            .iter()
                            .map(|sharer| (sharer, CohMsg::Inval { line }))
                            .collect(),
                    }
                }
            }
            _ => {
                self.counters.incr(Counter::UpgradeFallbacks);
                self.on_getx(i, line, from, true)
            }
        }
    }

    fn on_getx(&mut self, i: usize, line: LineAddr, from: NodeId, needs_data: bool) -> Outcome {
        match self.get(i) {
            DirState::Uncached => self.grant_exclusive(i, line, from, needs_data),
            DirState::Shared(s) => {
                let mut others = s;
                others.remove(from);
                if others.is_empty() {
                    self.grant_exclusive(i, line, from, needs_data)
                } else {
                    self.put(
                        i,
                        DirState::PendingInvals {
                            requester: from,
                            pending: others,
                            needs_data,
                        },
                    );
                    Outcome {
                        sends: others
                            .iter()
                            .map(|sharer| (sharer, CohMsg::Inval { line }))
                            .collect(),
                    }
                }
            }
            DirState::Exclusive(owner) => {
                self.put(
                    i,
                    DirState::PendingRecall {
                        requester: from,
                        owner,
                        for_write: true,
                    },
                );
                Outcome::send(
                    owner,
                    CohMsg::Fetch {
                        line,
                        for_write: true,
                    },
                )
            }
            DirState::PendingInvals { .. } | DirState::PendingRecall { .. } => {
                self.counters.incr(Counter::NaksSent);
                Outcome::send(from, CohMsg::Nak { line })
            }
            DirState::Incoherent => {
                self.counters.incr(Counter::IncoherentAccesses);
                Outcome::send(from, CohMsg::IncoherentErr { line })
            }
        }
    }

    fn on_put(
        &mut self,
        i: usize,
        line: LineAddr,
        from: NodeId,
        version: Version,
        keep_shared: bool,
    ) -> Outcome {
        match self.get(i) {
            DirState::Exclusive(owner) if owner == from => {
                self.lines[i].version = version;
                self.put(
                    i,
                    if keep_shared {
                        DirState::Shared(NodeSet::singleton(from))
                    } else {
                        DirState::Uncached
                    },
                );
                Outcome::send(from, CohMsg::PutAck { line })
            }
            DirState::PendingRecall {
                requester,
                owner,
                for_write,
            } if owner == from => {
                self.lines[i].version = version;
                if for_write {
                    self.put(i, DirState::Exclusive(requester));
                    Outcome::send(
                        requester,
                        CohMsg::Data {
                            line,
                            version,
                            exclusive: true,
                        },
                    )
                } else {
                    let mut sharers = NodeSet::singleton(requester);
                    if keep_shared {
                        sharers.insert(owner);
                    }
                    self.put(i, DirState::Shared(sharers));
                    Outcome::send(
                        requester,
                        CohMsg::Data {
                            line,
                            version,
                            exclusive: false,
                        },
                    )
                }
            }
            _ => {
                // Stale or duplicate writeback (e.g. after a recovery reset):
                // acknowledge so the writer can forget the line, change
                // nothing.
                self.counters.incr(Counter::UnexpectedPuts);
                Outcome::send(from, CohMsg::PutAck { line })
            }
        }
    }

    fn on_inval_ack(&mut self, i: usize, line: LineAddr, from: NodeId) -> Outcome {
        match self.get(i) {
            DirState::PendingInvals {
                requester,
                mut pending,
                needs_data,
            } => {
                pending.remove(from);
                if pending.is_empty() {
                    self.grant_exclusive(i, line, requester, needs_data)
                } else {
                    self.put(
                        i,
                        DirState::PendingInvals {
                            requester,
                            pending,
                            needs_data,
                        },
                    );
                    Outcome::default()
                }
            }
            _ => {
                self.counters.incr(Counter::UnexpectedInvalAcks);
                Outcome::default()
            }
        }
    }

    // ------------------------------------------------------------------
    // Recovery entry points (paper, Section 4.5)
    // ------------------------------------------------------------------

    /// Accepts a flush writeback during coherence-protocol recovery: the
    /// data is stored and the line unlocked, with no reply generated (node
    /// controllers suppress replies during recovery).
    pub fn recovery_put(&mut self, line: LineAddr, version: Version) {
        let i = self.idx(line);
        if self.lines[i].entry == Entry::Incoherent {
            self.counters.incr(Counter::RecoveryPutToIncoherent);
            return;
        }
        self.lines[i].version = version;
        self.put(i, DirState::Uncached);
    }

    /// Scans the directory after the flush barrier: any line still dirty
    /// remote (`Exclusive` or `PendingRecall` — its writeback never made it
    /// home) is marked incoherent; every other line is reset to `Uncached`
    /// since all caches are now empty. Returns the newly marked lines.
    pub fn scan_and_reset(&mut self) -> Vec<LineAddr> {
        let mut marked = Vec::new();
        let base = self.home.index() as u64 * self.layout.lines_per_node();
        for (i, Record { entry, .. }) in self.lines.iter_mut().enumerate() {
            match entry {
                Entry::Exclusive(_) | Entry::PendingRecall { .. } => {
                    *entry = Entry::Incoherent;
                    marked.push(LineAddr(base + i as u64));
                }
                Entry::Incoherent => {}
                Entry::Uncached | Entry::Shared(_) | Entry::PendingInvals { .. } => {
                    *entry = Entry::Uncached;
                }
            }
        }
        // No line holds a sharer set any more.
        self.sharers.clear();
        self.index_marked(&marked);
        marked
    }

    /// The reliable-interconnect variant of post-fault directory recovery
    /// (paper, Section 6.3 discussing the HAL machine): with a hardware
    /// end-to-end reliable interconnect the cache flush can be eliminated;
    /// the directory is *pruned* instead of reset — failed nodes are
    /// removed from sharer sets, lines they owned become incoherent, and
    /// surviving cached state is preserved. Returns the newly marked lines.
    pub fn scan_and_prune(&mut self, failed: &NodeSet) -> Vec<LineAddr> {
        let mut marked = Vec::new();
        let base = self.home.index() as u64 * self.layout.lines_per_node();
        for i in 0..self.lines.len() {
            let next = match self.get(i) {
                DirState::Exclusive(o) if failed.contains(o) => {
                    marked.push(LineAddr(base + i as u64));
                    DirState::Incoherent
                }
                DirState::Exclusive(_) | DirState::Uncached | DirState::Incoherent => continue,
                // The upgrade request of a `PendingInvals` line was
                // cancelled at recovery initiation; un-acked sharers may
                // still hold copies (over-approximating is safe — absent
                // sharers simply ack the next invalidation).
                DirState::Shared(mut s) | DirState::PendingInvals { pending: mut s, .. } => {
                    s.subtract(failed);
                    if s.is_empty() {
                        DirState::Uncached
                    } else {
                        DirState::Shared(s)
                    }
                }
                DirState::PendingRecall { owner, .. } => {
                    if failed.contains(owner) {
                        marked.push(LineAddr(base + i as u64));
                        DirState::Incoherent
                    } else {
                        // The recall was consumed during the drain; the
                        // owner still holds its dirty copy and the
                        // requester will retry after recovery.
                        DirState::Exclusive(owner)
                    }
                }
            };
            self.put(i, next);
        }
        self.index_marked(&marked);
        marked
    }

    /// Clears the incoherent mark on a line and reinitializes its data —
    /// the MAGIC service Hive uses before reusing a page (paper, Section
    /// 4.6). Returns whether the line was incoherent.
    pub fn clear_incoherent(&mut self, line: LineAddr, fresh: Version) -> bool {
        let i = self.idx(line);
        if self.lines[i].entry == Entry::Incoherent {
            self.put(i, DirState::Uncached);
            self.lines[i].version = fresh;
            if let Ok(p) = self.incoherent.binary_search(&line) {
                self.incoherent.remove(p);
            }
            true
        } else {
            false
        }
    }

    /// Marks a line incoherent directly (used when a truncated data packet
    /// identified a specific lost line).
    pub fn mark_incoherent(&mut self, line: LineAddr) {
        let i = self.idx(line);
        if self.lines[i].entry != Entry::Incoherent {
            if let Err(p) = self.incoherent.binary_search(&line) {
                self.incoherent.insert(p, line);
            }
        }
        self.put(i, DirState::Incoherent);
    }

    /// The lines currently marked incoherent, in ascending address order —
    /// the same order a full [`Directory::iter_tags`] scan would find
    /// them, but in O(marked) rather than O(lines homed).
    pub fn incoherent_lines(&self) -> &[LineAddr] {
        &self.incoherent
    }

    /// Merges freshly marked lines (ascending, previously not incoherent)
    /// into the sorted index.
    fn index_marked(&mut self, marked: &[LineAddr]) {
        if marked.is_empty() {
            return;
        }
        self.incoherent.extend_from_slice(marked);
        self.incoherent.sort_unstable();
        self.incoherent.dedup();
    }

    /// Iterates over `(line, state)` for all lines homed here, widening
    /// each sharer set; the tests' reference for [`Directory::iter_tags`].
    #[cfg(test)]
    fn iter_states(&self) -> impl Iterator<Item = (LineAddr, DirState)> + '_ {
        let base = self.home.index() as u64 * self.layout.lines_per_node();
        (0..self.lines.len()).map(move |i| (LineAddr(base + i as u64), self.get(i)))
    }

    /// Iterates over `(line, tag)` for all lines homed here, in ascending
    /// line order, without reading any sharer set.
    pub fn iter_tags(&self) -> impl Iterator<Item = (LineAddr, DirTag)> + '_ {
        let base = self.home.index() as u64 * self.layout.lines_per_node();
        (base..)
            .map(LineAddr)
            .zip(self.lines.iter().map(|r| r.entry.tag()))
    }

    /// Iterates over `(line, memory version)` for all lines homed here, in
    /// ascending line order, without decoding any directory state.
    pub fn iter_versions(&self) -> impl Iterator<Item = (LineAddr, Version)> + '_ {
        let base = self.home.index() as u64 * self.layout.lines_per_node();
        (base..)
            .map(LineAddr)
            .zip(self.lines.iter().map(|r| r.version))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir() -> (Directory, LineAddr) {
        let layout = MemLayout::new(4, 64);
        // Home node 1; its lines are 64..128.
        (Directory::new(NodeId(1), layout), LineAddr(70))
    }

    fn data(msg: &CohMsg) -> (Version, bool) {
        match msg {
            CohMsg::Data {
                version, exclusive, ..
            } => (*version, *exclusive),
            other => panic!("expected Data, got {other:?}"),
        }
    }

    #[test]
    fn read_miss_grants_shared() {
        let (mut d, l) = dir();
        let out = d.handle(l, HomeIn::Get { from: NodeId(2) });
        assert_eq!(out.sends.len(), 1);
        assert_eq!(out.sends[0].0, NodeId(2));
        assert_eq!(data(&out.sends[0].1), (Version::INITIAL, false));
        assert_eq!(d.state(l), DirState::Shared(NodeSet::singleton(NodeId(2))));
        // Second reader joins the sharer set.
        d.handle(l, HomeIn::Get { from: NodeId(3) });
        match d.state(l) {
            DirState::Shared(s) => assert_eq!(s.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn write_miss_on_uncached_grants_exclusive() {
        let (mut d, l) = dir();
        let out = d.handle(l, HomeIn::GetX { from: NodeId(0) });
        assert_eq!(data(&out.sends[0].1), (Version::INITIAL, true));
        assert_eq!(d.state(l), DirState::Exclusive(NodeId(0)));
    }

    #[test]
    fn write_miss_on_shared_invalidates_and_locks() {
        let (mut d, l) = dir();
        d.handle(l, HomeIn::Get { from: NodeId(2) });
        d.handle(l, HomeIn::Get { from: NodeId(3) });
        let out = d.handle(l, HomeIn::GetX { from: NodeId(0) });
        // Two invalidations, no data yet.
        assert_eq!(out.sends.len(), 2);
        assert!(out
            .sends
            .iter()
            .all(|(_, m)| matches!(m, CohMsg::Inval { .. })));
        assert!(d.state(l).is_locked());
        // Requests while locked are NAK'd.
        let nak = d.handle(l, HomeIn::Get { from: NodeId(3) });
        assert!(matches!(nak.sends[0].1, CohMsg::Nak { .. }));
        assert_eq!(d.counters().get("naks_sent"), 1);
        // First ack: still locked; second ack: grant. Duplicate acks from
        // the same node do not complete the invalidation round.
        let out = d.handle(l, HomeIn::InvalAck { from: NodeId(2) });
        assert!(out.sends.is_empty());
        let out = d.handle(l, HomeIn::InvalAck { from: NodeId(2) });
        assert!(out.sends.is_empty(), "duplicate ack ignored");
        let out = d.handle(l, HomeIn::InvalAck { from: NodeId(3) });
        assert_eq!(out.sends[0].0, NodeId(0));
        assert_eq!(data(&out.sends[0].1), (Version::INITIAL, true));
        assert_eq!(d.state(l), DirState::Exclusive(NodeId(0)));
    }

    #[test]
    fn upgrade_from_sole_sharer_is_immediate() {
        let (mut d, l) = dir();
        d.handle(l, HomeIn::Get { from: NodeId(2) });
        let out = d.handle(l, HomeIn::GetX { from: NodeId(2) });
        assert_eq!(data(&out.sends[0].1), (Version::INITIAL, true));
        assert_eq!(d.state(l), DirState::Exclusive(NodeId(2)));
    }

    #[test]
    fn read_of_dirty_line_recalls_owner() {
        let (mut d, l) = dir();
        d.handle(l, HomeIn::GetX { from: NodeId(0) });
        let out = d.handle(l, HomeIn::Get { from: NodeId(2) });
        assert_eq!(out.sends[0].0, NodeId(0));
        assert!(matches!(
            out.sends[0].1,
            CohMsg::Fetch {
                for_write: false,
                ..
            }
        ));
        assert!(d.state(l).is_locked());
        // Owner writes back version 5 keeping a shared copy.
        let out = d.handle(
            l,
            HomeIn::Put {
                from: NodeId(0),
                version: Version(5),
                keep_shared: true,
            },
        );
        assert_eq!(out.sends[0].0, NodeId(2));
        assert_eq!(data(&out.sends[0].1), (Version(5), false));
        match d.state(l) {
            DirState::Shared(s) => {
                assert!(s.contains(NodeId(0)) && s.contains(NodeId(2)));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(d.mem_version(l), Version(5));
    }

    #[test]
    fn write_of_dirty_line_transfers_ownership() {
        let (mut d, l) = dir();
        d.handle(l, HomeIn::GetX { from: NodeId(0) });
        let out = d.handle(l, HomeIn::GetX { from: NodeId(3) });
        assert!(matches!(
            out.sends[0].1,
            CohMsg::Fetch {
                for_write: true,
                ..
            }
        ));
        let out = d.handle(
            l,
            HomeIn::Put {
                from: NodeId(0),
                version: Version(9),
                keep_shared: false,
            },
        );
        assert_eq!(out.sends[0].0, NodeId(3));
        assert_eq!(data(&out.sends[0].1), (Version(9), true));
        assert_eq!(d.state(l), DirState::Exclusive(NodeId(3)));
    }

    #[test]
    fn voluntary_writeback_returns_line_home() {
        let (mut d, l) = dir();
        d.handle(l, HomeIn::GetX { from: NodeId(0) });
        let out = d.handle(
            l,
            HomeIn::Put {
                from: NodeId(0),
                version: Version(3),
                keep_shared: false,
            },
        );
        assert!(matches!(out.sends[0].1, CohMsg::PutAck { .. }));
        assert_eq!(d.state(l), DirState::Uncached);
        assert_eq!(d.mem_version(l), Version(3));
    }

    #[test]
    fn stale_put_is_acked_and_ignored() {
        let (mut d, l) = dir();
        let out = d.handle(
            l,
            HomeIn::Put {
                from: NodeId(2),
                version: Version(7),
                keep_shared: false,
            },
        );
        assert!(matches!(out.sends[0].1, CohMsg::PutAck { .. }));
        assert_eq!(d.mem_version(l), Version::INITIAL);
        assert_eq!(d.counters().get("unexpected_puts"), 1);
    }

    #[test]
    fn incoherent_lines_bus_error() {
        let (mut d, l) = dir();
        d.mark_incoherent(l);
        let out = d.handle(l, HomeIn::Get { from: NodeId(2) });
        assert!(matches!(out.sends[0].1, CohMsg::IncoherentErr { .. }));
        let out = d.handle(l, HomeIn::GetX { from: NodeId(2) });
        assert!(matches!(out.sends[0].1, CohMsg::IncoherentErr { .. }));
        assert!(d.is_incoherent(l));
    }

    #[test]
    fn scan_marks_lost_exclusive_lines() {
        let layout = MemLayout::new(2, 8);
        let mut d = Directory::new(NodeId(0), layout);
        d.handle(LineAddr(0), HomeIn::GetX { from: NodeId(1) }); // dirty remote
        d.handle(LineAddr(1), HomeIn::Get { from: NodeId(1) }); // shared
        d.handle(LineAddr(2), HomeIn::GetX { from: NodeId(1) });
        d.handle(LineAddr(2), HomeIn::Get { from: NodeId(0) }); // pending recall
                                                                // Line 3: dirty remote, but the flush writeback made it home.
        d.handle(LineAddr(3), HomeIn::GetX { from: NodeId(1) });
        d.recovery_put(LineAddr(3), Version(4));
        let marked = d.scan_and_reset();
        assert_eq!(marked, vec![LineAddr(0), LineAddr(2)]);
        assert!(d.is_incoherent(LineAddr(0)));
        assert!(d.is_incoherent(LineAddr(2)));
        assert_eq!(d.state(LineAddr(1)), DirState::Uncached);
        assert_eq!(d.state(LineAddr(3)), DirState::Uncached);
        assert_eq!(d.mem_version(LineAddr(3)), Version(4));
    }

    #[test]
    fn clear_incoherent_reinitializes() {
        let (mut d, l) = dir();
        d.mark_incoherent(l);
        assert!(d.clear_incoherent(l, Version(100)));
        assert!(!d.is_incoherent(l));
        assert_eq!(d.mem_version(l), Version(100));
        assert!(!d.clear_incoherent(l, Version(101)), "already clear");
    }

    #[test]
    fn late_inval_ack_after_reset_is_ignored() {
        let (mut d, l) = dir();
        let out = d.handle(l, HomeIn::InvalAck { from: NodeId(2) });
        assert!(out.sends.is_empty());
        assert_eq!(d.counters().get("unexpected_inval_acks"), 1);
    }
}

#[cfg(test)]
mod upgrade_tests {
    use super::*;

    fn dir() -> (Directory, LineAddr) {
        let layout = MemLayout::new(4, 64);
        (Directory::new(NodeId(1), layout), LineAddr(70))
    }

    #[test]
    fn sole_sharer_upgrade_acks_without_data() {
        let (mut d, l) = dir();
        d.handle(l, HomeIn::Get { from: NodeId(2) });
        let out = d.handle(l, HomeIn::Upgrade { from: NodeId(2) });
        assert_eq!(out.sends, vec![(NodeId(2), CohMsg::UpgradeAck { line: l })]);
        assert_eq!(d.state(l), DirState::Exclusive(NodeId(2)));
    }

    #[test]
    fn upgrade_with_other_sharers_invalidates_then_acks() {
        let (mut d, l) = dir();
        d.handle(l, HomeIn::Get { from: NodeId(2) });
        d.handle(l, HomeIn::Get { from: NodeId(3) });
        let out = d.handle(l, HomeIn::Upgrade { from: NodeId(2) });
        assert_eq!(out.sends, vec![(NodeId(3), CohMsg::Inval { line: l })]);
        assert!(d.state(l).is_locked());
        let out = d.handle(l, HomeIn::InvalAck { from: NodeId(3) });
        assert_eq!(out.sends, vec![(NodeId(2), CohMsg::UpgradeAck { line: l })]);
        assert_eq!(d.state(l), DirState::Exclusive(NodeId(2)));
    }

    #[test]
    fn upgrade_from_nonsharer_falls_back_to_full_data() {
        let (mut d, l) = dir();
        // Requester is not in the sharer set (silently evicted copy).
        let out = d.handle(l, HomeIn::Upgrade { from: NodeId(2) });
        match &out.sends[..] {
            [(
                dst,
                CohMsg::Data {
                    exclusive: true, ..
                },
            )] => assert_eq!(*dst, NodeId(2)),
            other => panic!("expected full data grant, got {other:?}"),
        }
        assert_eq!(d.counters().get("upgrade_fallbacks"), 1);
    }

    #[test]
    fn upgrade_of_dirty_remote_line_recalls_owner() {
        let (mut d, l) = dir();
        d.handle(l, HomeIn::GetX { from: NodeId(0) });
        let out = d.handle(l, HomeIn::Upgrade { from: NodeId(2) });
        assert!(matches!(
            out.sends[0].1,
            CohMsg::Fetch {
                for_write: true,
                ..
            }
        ));
        assert_eq!(d.counters().get("upgrade_fallbacks"), 1);
    }

    #[test]
    fn scan_and_prune_preserves_survivor_state() {
        let layout = MemLayout::new(4, 8);
        let mut d = Directory::new(NodeId(0), layout);
        let failed = NodeSet::singleton(NodeId(3));
        // Line 0: exclusive at the dead node -> incoherent.
        d.handle(LineAddr(0), HomeIn::GetX { from: NodeId(3) });
        // Line 1: exclusive at a live node -> preserved.
        d.handle(LineAddr(1), HomeIn::GetX { from: NodeId(1) });
        // Line 2: shared by live and dead -> dead pruned.
        d.handle(LineAddr(2), HomeIn::Get { from: NodeId(1) });
        d.handle(LineAddr(2), HomeIn::Get { from: NodeId(3) });
        // Line 3: shared only by the dead node -> uncached.
        d.handle(LineAddr(3), HomeIn::Get { from: NodeId(3) });
        // Line 4: recall pending toward a live owner -> ownership restored.
        d.handle(LineAddr(4), HomeIn::GetX { from: NodeId(2) });
        d.handle(LineAddr(4), HomeIn::Get { from: NodeId(1) });
        let marked = d.scan_and_prune(&failed);
        assert_eq!(marked, vec![LineAddr(0)]);
        assert_eq!(d.state(LineAddr(1)), DirState::Exclusive(NodeId(1)));
        match d.state(LineAddr(2)) {
            DirState::Shared(s) => {
                assert!(s.contains(NodeId(1)) && !s.contains(NodeId(3)));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(d.state(LineAddr(3)), DirState::Uncached);
        assert_eq!(d.state(LineAddr(4)), DirState::Exclusive(NodeId(2)));
    }

    /// `incoherent_lines()` must always equal the full-scan answer: it is
    /// what the OS page service trusts instead of walking every line.
    #[test]
    fn incoherent_index_tracks_marks_and_clears() {
        let layout = MemLayout::new(4, 64);
        let mut d = Directory::new(NodeId(0), layout);
        let scan = |d: &Directory| -> Vec<LineAddr> {
            d.iter_states()
                .filter(|(_, s)| matches!(s, DirState::Incoherent))
                .map(|(l, _)| l)
                .collect()
        };
        // Dirty-remote lines (live and dead owners alike) become incoherent
        // at the post-flush scan.
        d.handle(LineAddr(5), HomeIn::GetX { from: NodeId(2) });
        d.handle(LineAddr(9), HomeIn::GetX { from: NodeId(3) });
        let marked = d.scan_and_reset();
        assert_eq!(marked, vec![LineAddr(5), LineAddr(9)]);
        assert_eq!(d.incoherent_lines(), scan(&d).as_slice());
        // Direct marks (truncated-packet path), idempotently.
        d.mark_incoherent(LineAddr(7));
        d.mark_incoherent(LineAddr(7));
        assert_eq!(
            d.incoherent_lines(),
            &[LineAddr(5), LineAddr(7), LineAddr(9)]
        );
        assert_eq!(d.incoherent_lines(), scan(&d).as_slice());
        // Clearing removes from the index; clearing a coherent line is a
        // no-op on it.
        assert!(d.clear_incoherent(LineAddr(7), Version::INITIAL.next()));
        assert!(!d.clear_incoherent(LineAddr(6), Version::INITIAL.next()));
        assert_eq!(d.incoherent_lines(), &[LineAddr(5), LineAddr(9)]);
        assert_eq!(d.incoherent_lines(), scan(&d).as_slice());
        // A second scan re-marks nothing and keeps the index sorted/deduped.
        let marked = d.scan_and_reset();
        assert!(marked.is_empty());
        assert_eq!(d.incoherent_lines(), scan(&d).as_slice());
    }
}

#[cfg(test)]
mod storage_tests {
    use super::*;
    use flash_sim::DetRng;

    fn set(ids: &[u16]) -> NodeSet {
        ids.iter().map(|&i| NodeId(i)).collect()
    }

    /// Every pool slot is held by exactly one line or is free, and the held
    /// slots are exactly those of the lines in `Shared`/`PendingInvals`.
    fn assert_pool_consistent(d: &Directory) {
        let mut slots: Vec<u32> = d.lines.iter().filter_map(|r| r.entry.slot()).collect();
        let held = slots.len();
        let sharing = d
            .iter_states()
            .filter(|(_, s)| matches!(s, DirState::Shared(_) | DirState::PendingInvals { .. }))
            .count();
        assert_eq!(held, sharing, "a slot per line with a sharer set");
        let free = d.sharers.free_slots();
        assert_eq!(d.sharers.slots() - free.len(), held, "live slots");
        slots.extend(free);
        slots.sort_unstable();
        let all: Vec<u32> = (0..d.sharers.slots() as u32).collect();
        assert_eq!(slots, all, "each slot held once or free once");
    }

    #[test]
    fn every_state_round_trips() {
        let mut d = Directory::new(NodeId(0), MemLayout::new(1024, 8));
        let wide = set(&[0, 127, 128, 500, 1023]);
        let states = [
            DirState::Uncached,
            DirState::Shared(wide),
            DirState::Shared(set(&[1023])),
            DirState::Exclusive(NodeId(1023)),
            DirState::PendingInvals {
                requester: NodeId(200),
                pending: wide,
                needs_data: true,
            },
            DirState::PendingInvals {
                requester: NodeId(3),
                pending: set(&[129]),
                needs_data: false,
            },
            DirState::PendingRecall {
                requester: NodeId(1023),
                owner: NodeId(128),
                for_write: true,
            },
            DirState::PendingRecall {
                requester: NodeId(2),
                owner: NodeId(5),
                for_write: false,
            },
            DirState::Incoherent,
        ];
        // In place on one line, then each on its own line at once.
        for &s in &states {
            d.put(0, s);
            assert_eq!(d.get(0), s);
            assert_pool_consistent(&d);
        }
        for (i, &s) in states.iter().enumerate().take(8) {
            d.put(i, s);
        }
        for (i, &s) in states.iter().enumerate().take(8) {
            assert_eq!(d.state(LineAddr(i as u64)), s);
        }
        assert_pool_consistent(&d);
    }

    #[test]
    fn slots_are_reused_and_freed() {
        let mut d = Directory::new(NodeId(0), MemLayout::new(1024, 8));
        d.put(0, DirState::Shared(set(&[1])));
        let slot = d.lines[0].entry.slot();
        assert_eq!(slot, Some(0));
        // A line that keeps a sharer set keeps its slot.
        d.put(0, DirState::Shared(set(&[1, 300])));
        assert_eq!(d.lines[0].entry.slot(), slot);
        d.put(
            0,
            DirState::PendingInvals {
                requester: NodeId(2),
                pending: set(&[300]),
                needs_data: false,
            },
        );
        assert_eq!(d.lines[0].entry.slot(), slot);
        assert_eq!(d.sharers.slots(), 1);
        // Leaving for any state without a set frees the slot, and the next
        // line to need one takes it back.
        for end in [
            DirState::Exclusive(NodeId(2)),
            DirState::Uncached,
            DirState::Incoherent,
        ] {
            d.put(1, DirState::Shared(set(&[4])));
            assert_eq!(d.lines[1].entry.slot(), Some(1));
            d.put(1, end);
            assert_eq!(d.sharers.free_slots(), &[1]);
            assert_pool_consistent(&d);
            d.put(2, DirState::Shared(set(&[5])));
            assert_eq!(d.lines[2].entry.slot(), Some(1));
            assert!(d.sharers.free_slots().is_empty());
            d.put(2, DirState::Uncached);
        }
        assert_eq!(
            d.sharers.slots(),
            2,
            "the pool grows only when nothing is free"
        );

        // Pruning frees the slots of lines left with no sharers.
        let failed = set(&[7]);
        d.put(3, DirState::Shared(set(&[7])));
        d.put(
            4,
            DirState::PendingInvals {
                requester: NodeId(1),
                pending: set(&[7]),
                needs_data: true,
            },
        );
        d.put(5, DirState::Shared(set(&[6, 7])));
        d.scan_and_prune(&failed);
        assert_eq!(d.state(LineAddr(3)), DirState::Uncached);
        assert_eq!(d.state(LineAddr(4)), DirState::Uncached);
        assert_eq!(d.state(LineAddr(5)), DirState::Shared(set(&[6])));
        assert_pool_consistent(&d);
        assert_eq!(
            d.sharers.slots() - d.sharers.free_slots().len(),
            2,
            "lines 0 and 5"
        );

        // The post-flush reset empties the pool.
        d.scan_and_reset();
        assert!(d.sharers.slots() == 0 && d.sharers.free_slots().is_empty());
        assert_pool_consistent(&d);
    }

    #[test]
    fn pool_slots_are_machine_width() {
        let mut d = Directory::new(NodeId(0), MemLayout::new(128, 8));
        assert_eq!(d.sharers.slot_bytes(), 16);
        d.put(0, DirState::Shared(set(&[0, 64, 127])));
        assert_eq!(d.get(0), DirState::Shared(set(&[0, 64, 127])));
        assert_eq!(
            Directory::new(NodeId(0), MemLayout::new(1024, 8))
                .sharers
                .slot_bytes(),
            128
        );
    }

    #[test]
    #[should_panic(expected = "node id 500 exceeds the 2-node machine")]
    fn sharer_outside_the_machine_panics() {
        let mut d = Directory::new(NodeId(0), MemLayout::new(2, 8));
        d.handle(LineAddr(3), HomeIn::Get { from: NodeId(500) });
    }

    #[test]
    fn iter_versions_walks_the_memory_image() {
        let mut d = Directory::new(NodeId(1), MemLayout::new(2, 4));
        d.handle(LineAddr(5), HomeIn::GetX { from: NodeId(0) });
        d.recovery_put(LineAddr(5), Version(9));
        let walk: Vec<(LineAddr, Version)> = d.iter_versions().collect();
        let by_line: Vec<(LineAddr, Version)> = d
            .iter_states()
            .map(|(line, _)| (line, d.mem_version(line)))
            .collect();
        assert_eq!(walk, by_line);
        assert_eq!(walk[1], (LineAddr(5), Version(9)));
    }

    /// `DirState` reduced to what `iter_tags` keeps.
    fn tag_of(state: DirState) -> DirTag {
        match state {
            DirState::Uncached => DirTag::Uncached,
            DirState::Shared(_) => DirTag::Shared,
            DirState::Exclusive(owner) => DirTag::Exclusive(owner),
            DirState::PendingInvals { .. } => DirTag::PendingInvals,
            DirState::PendingRecall { owner, .. } => DirTag::PendingRecall { owner },
            DirState::Incoherent => DirTag::Incoherent,
        }
    }

    /// The tag walk agrees with the full state walk, owner and lock
    /// included, on directories driven through every state at three
    /// machine widths.
    #[test]
    fn tag_walk_matches_the_state_walk() {
        for n_nodes in [2u16, 128, 1024] {
            let mut rng = DetRng::new(0x7A6_0000 ^ u64::from(n_nodes));
            let mut d = Directory::new(NodeId(1), MemLayout::new(n_nodes.into(), 64));
            // A few requesters spread over the id range, so invalidation
            // rounds complete and every state recurs.
            let nodes = [0, 1, n_nodes / 2, n_nodes - 1];
            for step in 0..3000 {
                let line = LineAddr(64 + rng.below(64));
                let from = NodeId(*rng.choose(&nodes).unwrap());
                match rng.below(16) {
                    0..=4 => {
                        d.handle(line, HomeIn::Get { from });
                    }
                    5..=7 => {
                        d.handle(line, HomeIn::GetX { from });
                    }
                    8 => {
                        d.handle(line, HomeIn::Upgrade { from });
                    }
                    9..=10 => {
                        let keep_shared = rng.chance(0.5);
                        d.handle(
                            line,
                            HomeIn::Put {
                                from,
                                version: Version(step),
                                keep_shared,
                            },
                        );
                    }
                    11..=13 => {
                        d.handle(line, HomeIn::InvalAck { from });
                    }
                    14 => d.mark_incoherent(line),
                    _ => {
                        d.clear_incoherent(line, Version(step));
                    }
                }
                if step % 100 == 0 {
                    let states = d.iter_states().map(|(l, s)| (l, tag_of(s)));
                    assert!(d.iter_tags().eq(states), "{n_nodes} nodes, step {step}");
                }
            }
            let mut seen = [false; 6];
            for ((line, tag), (_, state)) in d.iter_tags().zip(d.iter_states()) {
                assert_eq!(tag, tag_of(state), "{line:?}");
                assert_eq!(tag.is_locked(), state.is_locked(), "{line:?}");
                let owner = match state {
                    DirState::Exclusive(o) | DirState::PendingRecall { owner: o, .. } => Some(o),
                    _ => None,
                };
                assert_eq!(tag.owner(), owner, "{line:?}");
                seen[match tag {
                    DirTag::Uncached => 0,
                    DirTag::Shared => 1,
                    DirTag::Exclusive(_) => 2,
                    DirTag::PendingInvals => 3,
                    DirTag::PendingRecall { .. } => 4,
                    DirTag::Incoherent => 5,
                }] = true;
            }
            assert_eq!(seen, [true; 6], "{n_nodes} nodes: every tag occurs");
        }
    }

    /// Random protocol and recovery traffic from sharers on both sides of
    /// id 128 keeps the pool consistent after every step.
    #[test]
    fn random_walk_keeps_pool_consistent() {
        let nodes = [1u16, 2, 127, 128, 600, 1023];
        for case in 0..16u64 {
            let mut rng = DetRng::new(0xD1E5_5107 ^ case);
            let mut d = Directory::new(NodeId(0), MemLayout::new(1024, 8));
            let mut version = Version::INITIAL;
            for _ in 0..400 {
                let line = LineAddr(rng.below(8));
                let from = NodeId(*rng.choose(&nodes).unwrap());
                version = version.next();
                match rng.below(20) {
                    0..=4 => {
                        d.handle(line, HomeIn::Get { from });
                    }
                    5..=7 => {
                        d.handle(line, HomeIn::GetX { from });
                    }
                    8..=9 => {
                        d.handle(line, HomeIn::Upgrade { from });
                    }
                    10..=11 => {
                        let keep_shared = rng.chance(0.5);
                        d.handle(
                            line,
                            HomeIn::Put {
                                from,
                                version,
                                keep_shared,
                            },
                        );
                    }
                    12..=14 => {
                        d.handle(line, HomeIn::InvalAck { from });
                    }
                    15 => d.recovery_put(line, version),
                    16 => d.mark_incoherent(line),
                    17 => {
                        d.clear_incoherent(line, version);
                    }
                    18 => {
                        d.scan_and_prune(&NodeSet::singleton(from));
                    }
                    _ => {
                        d.scan_and_reset();
                    }
                }
                assert_pool_consistent(&d);
            }
        }
    }
}
