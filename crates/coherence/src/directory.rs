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
use flash_net::NodeId;
use flash_net::{Counter, Counters};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Directory state of one line. The sharers of a `Shared` or
/// `PendingInvals` line are read with [`Directory::sharers`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DirState {
    /// No cached copies; memory holds the valid data.
    Uncached,
    /// Clean copies at the line's sharers; memory is valid.
    Shared,
    /// A single dirty copy at the given node; memory is stale.
    Exclusive(NodeId),
    /// Locked: invalidations outstanding for a write request. The line's
    /// sharers are those whose acknowledgment is still outstanding.
    PendingInvals {
        /// The node waiting for exclusive access.
        requester: NodeId,
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
    pub fn is_locked(self) -> bool {
        matches!(
            self,
            DirState::PendingInvals { .. } | DirState::PendingRecall { .. }
        )
    }

    /// The node holding the line's only valid copy, for a line that is
    /// dirty remote (`Exclusive` or `PendingRecall`).
    pub fn owner(self) -> Option<NodeId> {
        match self {
            DirState::Exclusive(owner) | DirState::PendingRecall { owner, .. } => Some(owner),
            _ => None,
        }
    }
}

/// One line's directory entry as stored: a [`DirState`] with its sharer
/// set, if it has one, in [`Ptrs`]. Most lines are `Uncached` or owned,
/// and almost every shared line has at most three sharers, so a line costs
/// 8 bytes here instead of a full [`NodeSet`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Entry {
    Uncached,
    Shared(Ptrs<SHARED_INLINE>),
    Exclusive(NodeId),
    PendingInvals {
        requester: NodeId,
        sharers: Ptrs<PENDING_INLINE>,
        needs_data: bool,
    },
    PendingRecall {
        requester: NodeId,
        owner: NodeId,
        for_write: bool,
    },
    Incoherent,
}

/// Sharer ids a `Shared` entry keeps inline.
const SHARED_INLINE: usize = 3;
/// Sharer ids a `PendingInvals` entry keeps inline, beside its requester
/// and flag.
const PENDING_INLINE: usize = 2;

/// A line's sharer set as its entry stores it: FLASH's limited-pointer
/// directory with dynamic pointer allocation. A set of at most `N` nodes
/// is kept inline as its ids, ascending and padded with `NONE`. A larger
/// set spills to the directory's spill map, keyed by the line, and the
/// entry keeps only the `SPILL` mark. A set is inline exactly when it
/// fits, so a set that shrinks back to `N` leaves the map.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Ptrs<const N: usize>([u16; N]);

impl<const N: usize> Ptrs<N> {
    /// Pads unused inline ids. It is above every node id, so padding sorts
    /// last, and below `SPILL`.
    const NONE: u16 = 0x7fff;
    /// Marks a spilled set in the first word.
    const SPILL: u16 = 0x8000;
    const EMPTY: Self = Ptrs([Self::NONE; N]);
    const SPILLED: Self = {
        let mut words = [Self::NONE; N];
        words[0] = Self::SPILL;
        Ptrs(words)
    };

    fn is_spilled(self) -> bool {
        self.0[0] == Self::SPILL
    }

    /// The inline ids, ascending: none for a spilled set.
    fn inline(self) -> impl Iterator<Item = NodeId> {
        self.0
            .into_iter()
            .take_while(|&id| id < Self::NONE)
            .map(NodeId)
    }

    fn is_empty(self) -> bool {
        self.0[0] == Self::NONE
    }
}

impl Entry {
    /// Whether this entry's sharer set is in the spill map.
    fn is_spilled(self) -> bool {
        match self {
            Entry::Shared(sharers) => sharers.is_spilled(),
            Entry::PendingInvals { sharers, .. } => sharers.is_spilled(),
            _ => false,
        }
    }

    fn state(self) -> DirState {
        match self {
            Entry::Uncached => DirState::Uncached,
            Entry::Shared(_) => DirState::Shared,
            Entry::Exclusive(owner) => DirState::Exclusive(owner),
            Entry::PendingInvals {
                requester,
                needs_data,
                ..
            } => DirState::PendingInvals {
                requester,
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

/// Hashes a spill-map key, a line's local index, with one multiply. The
/// keys are the directory's own indices, never outside input, so the map
/// needs no defence against crafted collisions; with SipHash a Get that
/// joins a spilled set ran about a third slower.
#[derive(Clone, Copy, Debug, Default)]
struct IndexHasher(u64);

impl Hasher for IndexHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_usize(b.into());
        }
    }

    fn write_usize(&mut self, i: usize) {
        self.0 = (self.0.rotate_left(5) ^ i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The directory (and memory image) for the lines homed on one node.
#[derive(Clone, Debug)]
pub struct Directory {
    home: NodeId,
    layout: MemLayout,
    lines: Vec<Record>,
    // The sharer sets too large for their entry, keyed by the line's local
    // index. Only looked up, never walked, so its order reaches no output.
    spilled: HashMap<usize, NodeSet, BuildHasherDefault<IndexHasher>>,
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
            spilled: HashMap::default(),
            counters: Counters::new(),
            incoherent: Vec::new(),
        }
    }

    /// The node this directory lives on.
    pub fn home(&self) -> NodeId {
        self.home
    }

    /// Sets the entry of the line at local index `i`. A spilled set the new
    /// entry does not spill leaves the map.
    fn set(&mut self, i: usize, entry: Entry) {
        let old = std::mem::replace(&mut self.lines[i].entry, entry);
        if old.is_spilled() && !entry.is_spilled() {
            self.spilled.remove(&i);
        }
    }

    /// The spilled set of the line at local index `i`.
    fn spill(&mut self, i: usize) -> &mut NodeSet {
        self.spilled
            .get_mut(&i)
            .expect("a spilled entry has a mapped set")
    }

    /// The set `sharers` of the line at local index `i` stores.
    fn load<const N: usize>(&self, i: usize, sharers: Ptrs<N>) -> NodeSet {
        if sharers.is_spilled() {
            self.spilled[&i]
        } else {
            sharers.inline().collect()
        }
    }

    /// Stores `set` for the line at local index `i`, whose entry has `N`
    /// inline ids: inline if it fits, else in the spill map.
    ///
    /// # Panics
    ///
    /// Panics if `set` has a member outside the machine.
    fn store<const N: usize>(&mut self, i: usize, set: &NodeSet) -> Ptrs<N> {
        set.iter()
            .for_each(|node| self.layout.assert_in_machine(node));
        if set.len() > N {
            self.spilled.insert(i, *set);
            return Ptrs::SPILLED;
        }
        let mut sharers = Ptrs::EMPTY;
        for (id, node) in sharers.0.iter_mut().zip(set.iter()) {
            *id = node.0;
        }
        sharers
    }

    /// `sharers` of the line at local index `i` with `node` added. A set
    /// that outgrows its inline ids spills.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the machine.
    fn insert<const N: usize>(&mut self, i: usize, sharers: Ptrs<N>, node: NodeId) -> Ptrs<N> {
        self.layout.assert_in_machine(node);
        if sharers.is_spilled() {
            self.spill(i).insert(node);
            return sharers;
        }
        let mut ids = sharers.0;
        let at = ids.iter().position(|&id| id >= node.0).unwrap_or(N);
        if ids.get(at) == Some(&node.0) {
            sharers
        } else if ids[N - 1] != Ptrs::<N>::NONE {
            let mut set = self.load(i, sharers);
            set.insert(node);
            self.spilled.insert(i, set);
            Ptrs::SPILLED
        } else {
            ids.copy_within(at..N - 1, at + 1);
            ids[at] = node.0;
            Ptrs(ids)
        }
    }

    /// `sharers` of the line at local index `i` with `node` removed. A
    /// spilled set that shrinks back to `N` moves inline; the entry's
    /// [`Directory::set`] then drops it from the map.
    fn remove<const N: usize>(&mut self, i: usize, sharers: Ptrs<N>, node: NodeId) -> Ptrs<N> {
        if sharers.is_spilled() {
            let set = self.spill(i);
            set.remove(node);
            if set.len() > N {
                return sharers;
            }
            let set = *set;
            return self.store(i, &set);
        }
        let mut ids = sharers.0;
        if let Some(at) = sharers.inline().position(|id| id == node) {
            ids.copy_within(at + 1.., at);
            ids[N - 1] = Ptrs::<N>::NONE;
        }
        Ptrs(ids)
    }

    /// The `Shared` line `i`'s `sharers` as its `PendingInvals` entry
    /// stores them: inline ids past the entry's capacity spill.
    fn narrow(&mut self, i: usize, sharers: Ptrs<SHARED_INLINE>) -> Ptrs<PENDING_INLINE> {
        if sharers.is_spilled() {
            return Ptrs::SPILLED;
        }
        if sharers.inline().count() > PENDING_INLINE {
            let set = self.load(i, sharers);
            self.spilled.insert(i, set);
            return Ptrs::SPILLED;
        }
        Ptrs(std::array::from_fn(|k| sharers.0[k]))
    }

    fn contains<const N: usize>(&self, i: usize, sharers: Ptrs<N>, node: NodeId) -> bool {
        if sharers.is_spilled() {
            self.spilled[&i].contains(node)
        } else {
            sharers.inline().any(|id| id == node)
        }
    }

    fn idx(&self, line: LineAddr) -> usize {
        debug_assert_eq!(self.layout.home_of(line), self.home, "line not homed here");
        self.layout.local_index(line)
    }

    /// The address of the first line homed here.
    fn base(&self) -> u64 {
        self.home.index() as u64 * self.layout.lines_per_node()
    }

    /// The directory state of a line.
    pub fn state(&self, line: LineAddr) -> DirState {
        self.lines[self.idx(line)].entry.state()
    }

    /// The sharers of a line: those holding clean copies of a `Shared`
    /// line, or owing an acknowledgment on a `PendingInvals` one. Empty in
    /// every other state.
    pub fn sharers(&self, line: LineAddr) -> NodeSet {
        self.sharers_of(self.idx(line))
    }

    /// The sharers of the line at local index `i`.
    fn sharers_of(&self, i: usize) -> NodeSet {
        match self.lines[i].entry {
            Entry::Shared(sharers) => self.load(i, sharers),
            Entry::PendingInvals { sharers, .. } => self.load(i, sharers),
            _ => NodeSet::new(),
        }
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

    /// Handles one protocol message from `from` addressed to this home;
    /// returns the messages to send, as (destination, message) pairs.
    ///
    /// # Panics
    ///
    /// Panics if `msg` is not addressed to a home ([`CohMsg::to_home`]).
    pub fn handle(&mut self, from: NodeId, msg: CohMsg) -> Vec<(NodeId, CohMsg)> {
        let line = msg.line();
        let i = self.idx(line);
        match msg {
            CohMsg::Get { .. } => self.on_get(i, line, from),
            CohMsg::GetX { .. } => self.on_getx(i, line, from),
            CohMsg::UpgradeReq { .. } => self.on_upgrade(i, line, from),
            CohMsg::Put {
                version,
                keep_shared,
                ..
            } => self.on_put(i, line, from, version, keep_shared),
            CohMsg::InvalAck { .. } => self.on_inval_ack(i, line, from),
            other => panic!("the home directory does not take {other:?}"),
        }
    }

    fn on_get(&mut self, i: usize, line: LineAddr, from: NodeId) -> Vec<(NodeId, CohMsg)> {
        let sharers = match self.lines[i].entry {
            Entry::Uncached => Ptrs::EMPTY,
            Entry::Shared(sharers) => sharers,
            Entry::Exclusive(owner) => return self.recall(i, line, from, owner, false),
            Entry::PendingInvals { .. } | Entry::PendingRecall { .. } | Entry::Incoherent => {
                return self.refuse(i, line, from)
            }
        };
        let sharers = self.insert(i, sharers, from);
        self.set(i, Entry::Shared(sharers));
        let version = self.lines[i].version;
        vec![(
            from,
            CohMsg::Data {
                line,
                version,
                exclusive: false,
            },
        )]
    }

    fn on_getx(&mut self, i: usize, line: LineAddr, from: NodeId) -> Vec<(NodeId, CohMsg)> {
        match self.lines[i].entry {
            Entry::Uncached => self.grant_exclusive(i, line, from, true),
            Entry::Shared(sharers) => self.invalidate_others(i, line, from, sharers, true),
            Entry::Exclusive(owner) => self.recall(i, line, from, owner, true),
            Entry::PendingInvals { .. } | Entry::PendingRecall { .. } | Entry::Incoherent => {
                self.refuse(i, line, from)
            }
        }
    }

    /// An upgrade request: valid only while the requester is still listed
    /// as a sharer — otherwise its copy was invalidated or silently evicted
    /// and the request falls back to the full GetX path.
    fn on_upgrade(&mut self, i: usize, line: LineAddr, from: NodeId) -> Vec<(NodeId, CohMsg)> {
        match self.lines[i].entry {
            Entry::Shared(sharers) if self.contains(i, sharers, from) => {
                self.invalidate_others(i, line, from, sharers, false)
            }
            _ => {
                self.counters.incr(Counter::UpgradeFallbacks);
                self.on_getx(i, line, from)
            }
        }
    }

    /// A write request on a shared line: `from` leaves the sharers, and is
    /// granted exclusivity at once if no other sharer is left. Otherwise
    /// the line locks and the others are sent invalidations, in ascending
    /// id order.
    fn invalidate_others(
        &mut self,
        i: usize,
        line: LineAddr,
        from: NodeId,
        sharers: Ptrs<SHARED_INLINE>,
        needs_data: bool,
    ) -> Vec<(NodeId, CohMsg)> {
        let others = self.remove(i, sharers, from);
        if others.is_empty() {
            return self.grant_exclusive(i, line, from, needs_data);
        }
        let sharers = self.narrow(i, others);
        self.set(
            i,
            Entry::PendingInvals {
                requester: from,
                sharers,
                needs_data,
            },
        );
        let inval = |sharer| (sharer, CohMsg::Inval { line });
        if sharers.is_spilled() {
            self.spilled[&i].iter().map(inval).collect()
        } else {
            sharers.inline().map(inval).collect()
        }
    }

    /// Grants exclusivity to `to`: a data reply for a full miss, or an
    /// upgrade acknowledgment when the requester already holds the data.
    fn grant_exclusive(
        &mut self,
        i: usize,
        line: LineAddr,
        to: NodeId,
        needs_data: bool,
    ) -> Vec<(NodeId, CohMsg)> {
        self.set(i, Entry::Exclusive(to));
        let reply = if needs_data {
            CohMsg::Data {
                line,
                version: self.lines[i].version,
                exclusive: true,
            }
        } else {
            CohMsg::UpgradeAck { line }
        };
        vec![(to, reply)]
    }

    /// Locks a dirty line and asks its `owner` to write it back for `from`.
    fn recall(
        &mut self,
        i: usize,
        line: LineAddr,
        from: NodeId,
        owner: NodeId,
        for_write: bool,
    ) -> Vec<(NodeId, CohMsg)> {
        self.set(
            i,
            Entry::PendingRecall {
                requester: from,
                owner,
                for_write,
            },
        );
        vec![(owner, CohMsg::Fetch { line, for_write })]
    }

    /// Refuses a request: a locked line NAKs it (the requester retries),
    /// an incoherent one answers with a bus error.
    fn refuse(&mut self, i: usize, line: LineAddr, from: NodeId) -> Vec<(NodeId, CohMsg)> {
        let reply = if self.lines[i].entry == Entry::Incoherent {
            self.counters.incr(Counter::IncoherentAccesses);
            CohMsg::IncoherentErr { line }
        } else {
            self.counters.incr(Counter::NaksSent);
            CohMsg::Nak { line }
        };
        vec![(from, reply)]
    }

    fn on_put(
        &mut self,
        i: usize,
        line: LineAddr,
        from: NodeId,
        version: Version,
        keep_shared: bool,
    ) -> Vec<(NodeId, CohMsg)> {
        match self.lines[i].entry {
            Entry::Exclusive(owner) if owner == from => {
                self.lines[i].version = version;
                let next = if keep_shared {
                    Entry::Shared(self.insert(i, Ptrs::EMPTY, from))
                } else {
                    Entry::Uncached
                };
                self.set(i, next);
                vec![(from, CohMsg::PutAck { line })]
            }
            Entry::PendingRecall {
                requester,
                owner,
                for_write,
            } if owner == from => {
                self.lines[i].version = version;
                let next = if for_write {
                    Entry::Exclusive(requester)
                } else {
                    let mut sharers = NodeSet::singleton(requester);
                    if keep_shared {
                        sharers.insert(owner);
                    }
                    Entry::Shared(self.store(i, &sharers))
                };
                self.set(i, next);
                vec![(
                    requester,
                    CohMsg::Data {
                        line,
                        version,
                        exclusive: for_write,
                    },
                )]
            }
            _ => {
                // Stale or duplicate writeback (e.g. after a recovery reset):
                // acknowledge so the writer can forget the line, change
                // nothing.
                self.counters.incr(Counter::UnexpectedPuts);
                vec![(from, CohMsg::PutAck { line })]
            }
        }
    }

    fn on_inval_ack(&mut self, i: usize, line: LineAddr, from: NodeId) -> Vec<(NodeId, CohMsg)> {
        match self.lines[i].entry {
            Entry::PendingInvals {
                requester,
                sharers,
                needs_data,
            } => {
                let sharers = self.remove(i, sharers, from);
                if sharers.is_empty() {
                    return self.grant_exclusive(i, line, requester, needs_data);
                }
                self.set(
                    i,
                    Entry::PendingInvals {
                        requester,
                        sharers,
                        needs_data,
                    },
                );
                Vec::new()
            }
            _ => {
                self.counters.incr(Counter::UnexpectedInvalAcks);
                Vec::new()
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
        self.set(i, Entry::Uncached);
    }

    /// Scans the directory after the flush barrier: any line still dirty
    /// remote (`Exclusive` or `PendingRecall` — its writeback never made it
    /// home) is marked incoherent; every other line is reset to `Uncached`
    /// since all caches are now empty. Returns the newly marked lines.
    pub fn scan_and_reset(&mut self) -> Vec<LineAddr> {
        let mut marked = Vec::new();
        let base = self.base();
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
        self.spilled.clear();
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
        let base = self.base();
        for i in 0..self.lines.len() {
            let entry = self.lines[i].entry;
            let next = match entry {
                Entry::Exclusive(owner) | Entry::PendingRecall { owner, .. }
                    if failed.contains(owner) =>
                {
                    marked.push(LineAddr(base + i as u64));
                    Entry::Incoherent
                }
                // The recall was consumed during the drain; the owner still
                // holds its dirty copy and the requester will retry after
                // recovery.
                Entry::PendingRecall { owner, .. } => Entry::Exclusive(owner),
                Entry::Exclusive(_) | Entry::Uncached | Entry::Incoherent => continue,
                // The upgrade request of a `PendingInvals` line was
                // cancelled at recovery initiation; un-acked sharers may
                // still hold copies (over-approximating is safe — absent
                // sharers simply ack the next invalidation).
                Entry::Shared(_) | Entry::PendingInvals { .. } => {
                    let mut sharers = self.sharers_of(i);
                    sharers.subtract(failed);
                    if sharers.is_empty() {
                        Entry::Uncached
                    } else {
                        Entry::Shared(self.store(i, &sharers))
                    }
                }
            };
            self.set(i, next);
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
            self.set(i, Entry::Uncached);
            self.lines[i].version = fresh;
            if let Ok(p) = self.incoherent.binary_search(&line) {
                self.incoherent.remove(p);
            }
            true
        } else {
            false
        }
    }

    /// Marks a line incoherent directly. No machine path calls it: a
    /// truncated data packet only tells the oracle that its line may be
    /// marked (`Oracle::allow_incoherent`), and P4's directory scan marks
    /// it. Tests use it to put a line in the `Incoherent` state.
    pub fn mark_incoherent(&mut self, line: LineAddr) {
        let i = self.idx(line);
        if self.lines[i].entry != Entry::Incoherent {
            if let Err(p) = self.incoherent.binary_search(&line) {
                self.incoherent.insert(p, line);
            }
        }
        self.set(i, Entry::Incoherent);
    }

    /// The lines currently marked incoherent, in ascending address order —
    /// the same order a full [`Directory::iter_states`] scan would find
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

    /// Iterates over `(line, state)` for all lines homed here, in ascending
    /// line order, without reading any sharer set.
    pub fn iter_states(&self) -> impl Iterator<Item = (LineAddr, DirState)> + '_ {
        (self.base()..)
            .map(LineAddr)
            .zip(self.lines.iter().map(|r| r.entry.state()))
    }

    /// Iterates over `(line, memory version)` for all lines homed here, in
    /// ascending line order, without decoding any directory state.
    pub fn iter_versions(&self) -> impl Iterator<Item = (LineAddr, Version)> + '_ {
        (self.base()..)
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
        let out = d.handle(NodeId(2), CohMsg::Get { line: l });
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, NodeId(2));
        assert_eq!(data(&out[0].1), (Version::INITIAL, false));
        assert_eq!(d.state(l), DirState::Shared);
        assert_eq!(d.sharers(l), NodeSet::singleton(NodeId(2)));
        // Second reader joins the sharer set.
        d.handle(NodeId(3), CohMsg::Get { line: l });
        assert_eq!(d.state(l), DirState::Shared);
        assert_eq!(d.sharers(l).len(), 2);
    }

    #[test]
    fn write_miss_on_uncached_grants_exclusive() {
        let (mut d, l) = dir();
        let out = d.handle(NodeId(0), CohMsg::GetX { line: l });
        assert_eq!(data(&out[0].1), (Version::INITIAL, true));
        assert_eq!(d.state(l), DirState::Exclusive(NodeId(0)));
    }

    #[test]
    fn write_miss_on_shared_invalidates_and_locks() {
        let (mut d, l) = dir();
        d.handle(NodeId(2), CohMsg::Get { line: l });
        d.handle(NodeId(3), CohMsg::Get { line: l });
        let out = d.handle(NodeId(0), CohMsg::GetX { line: l });
        // Two invalidations, no data yet.
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|(_, m)| matches!(m, CohMsg::Inval { .. })));
        assert!(d.state(l).is_locked());
        // Requests while locked are NAK'd.
        let nak = d.handle(NodeId(3), CohMsg::Get { line: l });
        assert!(matches!(nak[0].1, CohMsg::Nak { .. }));
        assert_eq!(d.counters().get("naks_sent"), 1);
        // First ack: still locked; second ack: grant. Duplicate acks from
        // the same node do not complete the invalidation round.
        let out = d.handle(NodeId(2), CohMsg::InvalAck { line: l });
        assert!(out.is_empty());
        let out = d.handle(NodeId(2), CohMsg::InvalAck { line: l });
        assert!(out.is_empty(), "duplicate ack ignored");
        let out = d.handle(NodeId(3), CohMsg::InvalAck { line: l });
        assert_eq!(out[0].0, NodeId(0));
        assert_eq!(data(&out[0].1), (Version::INITIAL, true));
        assert_eq!(d.state(l), DirState::Exclusive(NodeId(0)));
    }

    #[test]
    fn upgrade_from_sole_sharer_is_immediate() {
        let (mut d, l) = dir();
        d.handle(NodeId(2), CohMsg::Get { line: l });
        let out = d.handle(NodeId(2), CohMsg::GetX { line: l });
        assert_eq!(data(&out[0].1), (Version::INITIAL, true));
        assert_eq!(d.state(l), DirState::Exclusive(NodeId(2)));
    }

    #[test]
    fn read_of_dirty_line_recalls_owner() {
        let (mut d, l) = dir();
        d.handle(NodeId(0), CohMsg::GetX { line: l });
        let out = d.handle(NodeId(2), CohMsg::Get { line: l });
        assert_eq!(out[0].0, NodeId(0));
        assert!(matches!(
            out[0].1,
            CohMsg::Fetch {
                for_write: false,
                ..
            }
        ));
        assert!(d.state(l).is_locked());
        // Owner writes back version 5 keeping a shared copy.
        let out = d.handle(
            NodeId(0),
            CohMsg::Put {
                line: l,
                version: Version(5),
                keep_shared: true,
            },
        );
        assert_eq!(out[0].0, NodeId(2));
        assert_eq!(data(&out[0].1), (Version(5), false));
        assert_eq!(d.state(l), DirState::Shared);
        let s = d.sharers(l);
        assert!(s.contains(NodeId(0)) && s.contains(NodeId(2)));
        assert_eq!(d.mem_version(l), Version(5));
    }

    #[test]
    fn write_of_dirty_line_transfers_ownership() {
        let (mut d, l) = dir();
        d.handle(NodeId(0), CohMsg::GetX { line: l });
        let out = d.handle(NodeId(3), CohMsg::GetX { line: l });
        assert!(matches!(
            out[0].1,
            CohMsg::Fetch {
                for_write: true,
                ..
            }
        ));
        let out = d.handle(
            NodeId(0),
            CohMsg::Put {
                line: l,
                version: Version(9),
                keep_shared: false,
            },
        );
        assert_eq!(out[0].0, NodeId(3));
        assert_eq!(data(&out[0].1), (Version(9), true));
        assert_eq!(d.state(l), DirState::Exclusive(NodeId(3)));
    }

    #[test]
    fn voluntary_writeback_returns_line_home() {
        let (mut d, l) = dir();
        d.handle(NodeId(0), CohMsg::GetX { line: l });
        let out = d.handle(
            NodeId(0),
            CohMsg::Put {
                line: l,
                version: Version(3),
                keep_shared: false,
            },
        );
        assert!(matches!(out[0].1, CohMsg::PutAck { .. }));
        assert_eq!(d.state(l), DirState::Uncached);
        assert_eq!(d.mem_version(l), Version(3));
    }

    #[test]
    fn stale_put_is_acked_and_ignored() {
        let (mut d, l) = dir();
        let out = d.handle(
            NodeId(2),
            CohMsg::Put {
                line: l,
                version: Version(7),
                keep_shared: false,
            },
        );
        assert!(matches!(out[0].1, CohMsg::PutAck { .. }));
        assert_eq!(d.mem_version(l), Version::INITIAL);
        assert_eq!(d.counters().get("unexpected_puts"), 1);
    }

    #[test]
    fn incoherent_lines_bus_error() {
        let (mut d, l) = dir();
        d.mark_incoherent(l);
        let out = d.handle(NodeId(2), CohMsg::Get { line: l });
        assert!(matches!(out[0].1, CohMsg::IncoherentErr { .. }));
        let out = d.handle(NodeId(2), CohMsg::GetX { line: l });
        assert!(matches!(out[0].1, CohMsg::IncoherentErr { .. }));
        assert!(d.is_incoherent(l));
    }

    #[test]
    fn scan_marks_lost_exclusive_lines() {
        let layout = MemLayout::new(2, 8);
        let mut d = Directory::new(NodeId(0), layout);
        d.handle(NodeId(1), CohMsg::GetX { line: LineAddr(0) }); // dirty remote
        d.handle(NodeId(1), CohMsg::Get { line: LineAddr(1) }); // shared
        d.handle(NodeId(1), CohMsg::GetX { line: LineAddr(2) });
        d.handle(NodeId(0), CohMsg::Get { line: LineAddr(2) }); // pending recall
                                                                // Line 3: dirty remote, but the flush writeback made it home.
        d.handle(NodeId(1), CohMsg::GetX { line: LineAddr(3) });
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
        let out = d.handle(NodeId(2), CohMsg::InvalAck { line: l });
        assert!(out.is_empty());
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
        d.handle(NodeId(2), CohMsg::Get { line: l });
        let out = d.handle(NodeId(2), CohMsg::UpgradeReq { line: l });
        assert_eq!(out, vec![(NodeId(2), CohMsg::UpgradeAck { line: l })]);
        assert_eq!(d.state(l), DirState::Exclusive(NodeId(2)));
    }

    #[test]
    fn upgrade_with_other_sharers_invalidates_then_acks() {
        let (mut d, l) = dir();
        d.handle(NodeId(2), CohMsg::Get { line: l });
        d.handle(NodeId(3), CohMsg::Get { line: l });
        let out = d.handle(NodeId(2), CohMsg::UpgradeReq { line: l });
        assert_eq!(out, vec![(NodeId(3), CohMsg::Inval { line: l })]);
        assert!(d.state(l).is_locked());
        let out = d.handle(NodeId(3), CohMsg::InvalAck { line: l });
        assert_eq!(out, vec![(NodeId(2), CohMsg::UpgradeAck { line: l })]);
        assert_eq!(d.state(l), DirState::Exclusive(NodeId(2)));
    }

    #[test]
    fn upgrade_from_nonsharer_falls_back_to_full_data() {
        let (mut d, l) = dir();
        // Requester is not in the sharer set (silently evicted copy).
        let out = d.handle(NodeId(2), CohMsg::UpgradeReq { line: l });
        match &out[..] {
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
        d.handle(NodeId(0), CohMsg::GetX { line: l });
        let out = d.handle(NodeId(2), CohMsg::UpgradeReq { line: l });
        assert!(matches!(
            out[0].1,
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
        d.handle(NodeId(3), CohMsg::GetX { line: LineAddr(0) });
        // Line 1: exclusive at a live node -> preserved.
        d.handle(NodeId(1), CohMsg::GetX { line: LineAddr(1) });
        // Line 2: shared by live and dead -> dead pruned.
        d.handle(NodeId(1), CohMsg::Get { line: LineAddr(2) });
        d.handle(NodeId(3), CohMsg::Get { line: LineAddr(2) });
        // Line 3: shared only by the dead node -> uncached.
        d.handle(NodeId(3), CohMsg::Get { line: LineAddr(3) });
        // Line 4: recall pending toward a live owner -> ownership restored.
        d.handle(NodeId(2), CohMsg::GetX { line: LineAddr(4) });
        d.handle(NodeId(1), CohMsg::Get { line: LineAddr(4) });
        let marked = d.scan_and_prune(&failed);
        assert_eq!(marked, vec![LineAddr(0)]);
        assert_eq!(d.state(LineAddr(1)), DirState::Exclusive(NodeId(1)));
        assert_eq!(d.state(LineAddr(2)), DirState::Shared);
        let s = d.sharers(LineAddr(2));
        assert!(s.contains(NodeId(1)) && !s.contains(NodeId(3)));
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
        d.handle(NodeId(2), CohMsg::GetX { line: LineAddr(5) });
        d.handle(NodeId(3), CohMsg::GetX { line: LineAddr(9) });
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

    fn get(d: &mut Directory, from: u16, line: LineAddr) -> Vec<(NodeId, CohMsg)> {
        d.handle(NodeId(from), CohMsg::Get { line })
    }

    fn getx(d: &mut Directory, from: u16, line: LineAddr) -> Vec<(NodeId, CohMsg)> {
        d.handle(NodeId(from), CohMsg::GetX { line })
    }

    fn upgrade(d: &mut Directory, from: u16, line: LineAddr) -> Vec<(NodeId, CohMsg)> {
        d.handle(NodeId(from), CohMsg::UpgradeReq { line })
    }

    fn ack(d: &mut Directory, from: u16, line: LineAddr) -> Vec<(NodeId, CohMsg)> {
        d.handle(NodeId(from), CohMsg::InvalAck { line })
    }

    fn put(d: &mut Directory, from: u16, line: LineAddr, keep_shared: bool) {
        let version = d.mem_version(line).next();
        d.handle(
            NodeId(from),
            CohMsg::Put {
                line,
                version,
                keep_shared,
            },
        );
    }

    /// The stored words of a line's sharers, if its state has a set.
    fn words(entry: Entry) -> Option<Vec<u16>> {
        match entry {
            Entry::Shared(sharers) => Some(sharers.0.to_vec()),
            Entry::PendingInvals { sharers, .. } => Some(sharers.0.to_vec()),
            _ => None,
        }
    }

    /// Exactly the lines in `Shared`/`PendingInvals` have sharers, and an
    /// inline set is stored ascending, padded with `NONE`. The spill map's
    /// keys are exactly the local indices of spilled entries, and an entry
    /// spills exactly when its set outgrows its inline ids. At 2 nodes
    /// every set fits, so the map is empty.
    fn assert_spills_consistent(d: &Directory) {
        for ((line, state), (i, record)) in d.iter_states().zip(d.lines.iter().enumerate()) {
            let has_set = matches!(state, DirState::Shared | DirState::PendingInvals { .. });
            let sharers = d.sharers(line);
            assert_eq!(
                !sharers.is_empty(),
                has_set,
                "{line:?} in {state:?} has sharers {sharers:?}"
            );
            let spilled = record.entry.is_spilled();
            assert_eq!(d.spilled.contains_key(&i), spilled, "{line:?} mapped");
            let Some(words) = words(record.entry) else {
                continue;
            };
            assert_eq!(
                spilled,
                sharers.len() > words.len(),
                "{line:?}: {sharers:?}"
            );
            if !spilled {
                let none = Ptrs::<SHARED_INLINE>::NONE;
                let inline: Vec<u16> = sharers.iter().map(|n| n.0).collect();
                let padded = [inline, vec![none; words.len()]].concat();
                assert_eq!(words, padded[..words.len()], "{line:?} stored ascending");
            }
        }
        let spilled = d.lines.iter().filter(|r| r.entry.is_spilled()).count();
        assert_eq!(d.spilled.len(), spilled, "a mapped set per spilled entry");
        if d.layout.num_nodes() <= 2 {
            assert!(d.spilled.is_empty(), "two sharers always fit");
        }
    }

    /// Asserts the line's state and sharers, and the spill map's consistency.
    #[track_caller]
    fn assert_line(d: &Directory, line: LineAddr, state: DirState, sharers: &[u16]) {
        assert_eq!(d.state(line), state, "{line:?}");
        assert_eq!(d.sharers(line), set(sharers), "{line:?} in {state:?}");
        assert_spills_consistent(d);
    }

    fn invals(line: LineAddr, to: &[u16]) -> Vec<(NodeId, CohMsg)> {
        to.iter()
            .map(|&n| (NodeId(n), CohMsg::Inval { line }))
            .collect()
    }

    /// One line on a 1024-node machine, shared across every `NodeSet`
    /// word: each step edits its spilled set in place, and invalidations go
    /// out in ascending id order.
    #[test]
    fn wide_sharers_walk_get_getx_recall_and_upgrade() {
        let mut d = Directory::new(NodeId(0), MemLayout::new(1024, 8));
        let l = LineAddr(0);
        let wide = [0, 127, 128, 500, 1023];
        // Joined in descending order; held in ascending.
        for &n in wide.iter().rev() {
            let out = get(&mut d, n, l);
            assert!(matches!(out[..], [(to, CohMsg::Data { exclusive: false, .. })] if to.0 == n));
        }
        assert_line(&d, l, DirState::Shared, &wide);

        // A write miss from a non-sharer invalidates all five.
        let pending = |requester, needs_data| DirState::PendingInvals {
            requester: NodeId(requester),
            needs_data,
        };
        assert_eq!(getx(&mut d, 200, l), invals(l, &wide));
        assert_line(&d, l, pending(200, true), &wide);
        assert_eq!(d.spilled[&0], set(&wide), "the set stays spilled");
        for (k, &n) in wide.iter().enumerate() {
            let out = ack(&mut d, n, l);
            if k + 1 < wide.len() {
                assert!(out.is_empty());
                assert_line(&d, l, pending(200, true), &wide[k + 1..]);
            } else {
                assert!(matches!(
                    out[..],
                    [(
                        NodeId(200),
                        CohMsg::Data {
                            exclusive: true,
                            ..
                        }
                    )]
                ));
            }
        }
        assert_line(&d, l, DirState::Exclusive(NodeId(200)), &[]);

        // A read recall: the owner keeps a shared copy beside the reader.
        assert_eq!(
            get(&mut d, 1023, l),
            vec![(
                NodeId(200),
                CohMsg::Fetch {
                    line: l,
                    for_write: false
                }
            )]
        );
        let recall = DirState::PendingRecall {
            requester: NodeId(1023),
            owner: NodeId(200),
            for_write: false,
        };
        assert_line(&d, l, recall, &[]);
        assert_eq!(recall.owner(), Some(NodeId(200)));
        put(&mut d, 200, l, true);
        assert_line(&d, l, DirState::Shared, &[200, 1023]);

        // The rest of the wide set joins, and 128 upgrades: every other
        // sharer is invalidated, ascending, and no data is sent.
        for &n in &wide {
            get(&mut d, n, l);
        }
        assert_line(&d, l, DirState::Shared, &[0, 127, 128, 200, 500, 1023]);
        let others = [0, 127, 200, 500, 1023];
        assert_eq!(upgrade(&mut d, 128, l), invals(l, &others));
        assert_line(&d, l, pending(128, false), &others);
        for &n in others.iter().rev() {
            ack(&mut d, n, l);
        }
        assert_line(&d, l, DirState::Exclusive(NodeId(128)), &[]);
        assert!(d.spilled.is_empty());
    }

    /// Drives line `l`, which must be `Uncached`, into `state` with the
    /// given sharers through protocol messages.
    fn reach(d: &mut Directory, l: LineAddr, state: DirState, sharers: &[u16]) {
        match state {
            DirState::Uncached => {}
            DirState::Shared => sharers.iter().for_each(|&n| drop(get(d, n, l))),
            DirState::Exclusive(owner) => drop(getx(d, owner.0, l)),
            DirState::PendingInvals {
                requester,
                needs_data,
            } => {
                sharers.iter().for_each(|&n| drop(get(d, n, l)));
                if needs_data {
                    getx(d, requester.0, l);
                } else {
                    get(d, requester.0, l);
                    upgrade(d, requester.0, l);
                }
            }
            DirState::PendingRecall {
                requester,
                owner,
                for_write,
            } => {
                getx(d, owner.0, l);
                if for_write {
                    getx(d, requester.0, l);
                } else {
                    get(d, requester.0, l);
                }
            }
            DirState::Incoherent => d.mark_incoherent(l),
        }
    }

    /// Returns line `l` to `Uncached` through the recovery entry points.
    fn release(d: &mut Directory, l: LineAddr) {
        if !d.clear_incoherent(l, Version::INITIAL) {
            d.recovery_put(l, Version::INITIAL);
        }
    }

    #[test]
    fn every_state_round_trips() {
        let mut d = Directory::new(NodeId(0), MemLayout::new(1024, 16));
        let wide: &[u16] = &[0, 127, 128, 500, 1023];
        let states: [(DirState, &[u16]); 9] = [
            (DirState::Uncached, &[]),
            (DirState::Shared, wide),
            (DirState::Shared, &[1023]),
            (DirState::Exclusive(NodeId(1023)), &[]),
            (
                DirState::PendingInvals {
                    requester: NodeId(200),
                    needs_data: true,
                },
                wide,
            ),
            (
                DirState::PendingInvals {
                    requester: NodeId(3),
                    needs_data: false,
                },
                &[129],
            ),
            (
                DirState::PendingRecall {
                    requester: NodeId(1023),
                    owner: NodeId(128),
                    for_write: true,
                },
                &[],
            ),
            (
                DirState::PendingRecall {
                    requester: NodeId(2),
                    owner: NodeId(5),
                    for_write: false,
                },
                &[],
            ),
            (DirState::Incoherent, &[]),
        ];
        // In turn on one line, then each on its own line at once.
        let l = LineAddr(0);
        for &(state, sharers) in &states {
            reach(&mut d, l, state, sharers);
            assert_line(&d, l, state, sharers);
            release(&mut d, l);
            assert_line(&d, l, DirState::Uncached, &[]);
        }
        for (i, &(state, sharers)) in states.iter().enumerate() {
            reach(&mut d, LineAddr(i as u64), state, sharers);
        }
        for (i, &(state, sharers)) in states.iter().enumerate() {
            assert_line(&d, LineAddr(i as u64), state, sharers);
        }
        let walk: Vec<DirState> = d.iter_states().map(|(_, s)| s).take(9).collect();
        assert_eq!(walk, states.map(|(s, _)| s));
        assert_eq!(d.spilled.len(), 2, "a set per entry it outgrows");
    }

    fn share(d: &mut Directory, line: LineAddr, nodes: &[u16]) {
        nodes.iter().for_each(|&n| drop(get(d, n, line)));
    }

    /// A spilled set stays mapped while it outgrows its entry and leaves
    /// the map when it shrinks back to fit, when its line leaves the
    /// sharing states, when a prune shrinks or empties it, and at the
    /// post-flush reset.
    #[test]
    fn a_set_that_shrinks_back_to_fit_leaves_the_map() {
        let mut d = Directory::new(NodeId(0), MemLayout::new(1024, 8));
        let line = LineAddr;
        // Three sharers fit inline; the fourth spills the set.
        share(&mut d, line(0), &[1, 2, 3]);
        assert!(d.spilled.is_empty());
        get(&mut d, 300, line(0));
        assert_eq!(d.spilled[&0], set(&[1, 2, 3, 300]));
        // A set that still outgrows its entry stays spilled.
        get(&mut d, 400, line(0));
        getx(&mut d, 5, line(0));
        ack(&mut d, 1, line(0));
        ack(&mut d, 2, line(0));
        let pending = DirState::PendingInvals {
            requester: NodeId(5),
            needs_data: true,
        };
        assert_line(&d, line(0), pending, &[3, 300, 400]);
        assert_eq!(d.spilled[&0], set(&[3, 300, 400]));
        // Two fit beside the requester: the set moves back inline.
        ack(&mut d, 3, line(0));
        assert_line(&d, line(0), pending, &[300, 400]);
        assert!(d.spilled.is_empty());

        // Shrinking to fit, or leaving for a state without a set, drops
        // the line's set.
        let leave: [fn(&mut Directory); 3] = [
            |d| {
                getx(d, 4, LineAddr(1));
                ack(d, 5, LineAddr(1));
            },
            |d| d.recovery_put(LineAddr(1), Version(9)),
            |d| d.mark_incoherent(LineAddr(1)),
        ];
        for (k, leave) in leave.iter().enumerate() {
            release(&mut d, line(1));
            share(&mut d, line(1), &[4, 5, 6, 7]);
            assert_eq!(d.spilled[&1], set(&[4, 5, 6, 7]));
            leave(&mut d);
            assert!(d.spilled.is_empty(), "exit {k}");
            assert_spills_consistent(&d);
        }
        assert_eq!(d.state(line(1)), DirState::Incoherent);

        // Pruning drops the sets it shrinks to fit or empties.
        share(&mut d, line(3), &[7, 8, 9, 10, 11]);
        share(&mut d, line(4), &[7]);
        getx(&mut d, 1, line(4));
        share(&mut d, line(5), &[6, 9, 10, 11, 12]);
        share(&mut d, line(6), &[7, 8]);
        d.scan_and_prune(&set(&[7, 8]));
        assert_line(&d, line(0), DirState::Shared, &[300, 400]);
        assert_line(&d, line(3), DirState::Shared, &[9, 10, 11]);
        assert_line(&d, line(4), DirState::Uncached, &[]);
        assert_line(&d, line(5), DirState::Shared, &[6, 9, 10, 11, 12]);
        assert_line(&d, line(6), DirState::Uncached, &[]);
        assert_eq!(d.spilled.keys().collect::<Vec<_>>(), [&5]);

        // The post-flush reset empties the map.
        d.scan_and_reset();
        assert!(d.spilled.is_empty());
        assert_spills_consistent(&d);
    }

    #[test]
    #[should_panic(expected = "node id 500 exceeds the 2-node machine")]
    fn sharer_outside_the_machine_panics() {
        let mut d = Directory::new(NodeId(0), MemLayout::new(2, 8));
        get(&mut d, 500, LineAddr(3));
    }

    #[test]
    #[should_panic(expected = "node id 500 exceeds the 2-node machine")]
    fn sharer_outside_the_machine_joining_a_shared_line_panics() {
        let mut d = Directory::new(NodeId(0), MemLayout::new(2, 8));
        get(&mut d, 1, LineAddr(3));
        get(&mut d, 500, LineAddr(3));
    }

    #[test]
    #[should_panic(expected = "does not take")]
    fn a_cache_side_message_panics() {
        let mut d = Directory::new(NodeId(0), MemLayout::new(2, 8));
        d.handle(NodeId(1), CohMsg::Nak { line: LineAddr(3) });
    }

    #[test]
    fn iter_versions_walks_the_memory_image() {
        let mut d = Directory::new(NodeId(1), MemLayout::new(2, 4));
        getx(&mut d, 0, LineAddr(5));
        d.recovery_put(LineAddr(5), Version(9));
        let walk: Vec<(LineAddr, Version)> = d.iter_versions().collect();
        let by_line: Vec<(LineAddr, Version)> = d
            .iter_states()
            .map(|(line, _)| (line, d.mem_version(line)))
            .collect();
        assert_eq!(walk, by_line);
        assert_eq!(walk[1], (LineAddr(5), Version(9)));
    }

    /// One step of random protocol or recovery traffic on `line`.
    fn random_step(d: &mut Directory, rng: &mut DetRng, line: LineAddr, from: u16) {
        match rng.below(20) {
            0..=4 => drop(get(d, from, line)),
            5..=7 => drop(getx(d, from, line)),
            8..=9 => drop(upgrade(d, from, line)),
            10..=11 => put(d, from, line, rng.chance(0.5)),
            12..=14 => drop(ack(d, from, line)),
            15 => d.recovery_put(line, d.mem_version(line).next()),
            16 => d.mark_incoherent(line),
            17 => drop(d.clear_incoherent(line, d.mem_version(line).next())),
            18 => drop(d.scan_and_prune(&NodeSet::singleton(NodeId(from)))),
            _ => {
                d.scan_and_reset();
                assert!(d.spilled.is_empty(), "the reset empties the spill map");
            }
        }
    }

    /// The state walk agrees with each line's state, `owner()` and
    /// `is_locked()` agree with the variant, and every state occurs, on
    /// directories driven by random traffic at three machine widths.
    #[test]
    fn state_walk_matches_each_line() {
        for n_nodes in [2u16, 128, 1024] {
            let mut rng = DetRng::new(0x7A6_0000 ^ u64::from(n_nodes));
            let mut d = Directory::new(NodeId(1), MemLayout::new(n_nodes.into(), 64));
            // A few requesters spread over the id range, so invalidation
            // rounds complete and every state recurs.
            let nodes = [0, 1, n_nodes / 2, n_nodes - 1];
            let mut seen = [false; 6];
            for _ in 0..3000 {
                let line = LineAddr(64 + rng.below(64));
                let from = *rng.choose(&nodes).unwrap();
                // Resets are rare here, so lines reach the locked states.
                if rng.below(10) == 0 {
                    random_step(&mut d, &mut rng, line, from);
                } else {
                    match rng.below(4) {
                        0 => drop(get(&mut d, from, line)),
                        1 => drop(getx(&mut d, from, line)),
                        2 => drop(upgrade(&mut d, from, line)),
                        _ => drop(ack(&mut d, from, line)),
                    }
                }
                for (line, state) in d.iter_states() {
                    assert_eq!(state, d.state(line));
                    let (owner, locked) = match state {
                        DirState::Exclusive(o) => (Some(o), false),
                        DirState::PendingRecall { owner, .. } => (Some(owner), true),
                        DirState::PendingInvals { .. } => (None, true),
                        _ => (None, false),
                    };
                    assert_eq!((state.owner(), state.is_locked()), (owner, locked));
                    seen[match state {
                        DirState::Uncached => 0,
                        DirState::Shared => 1,
                        DirState::Exclusive(_) => 2,
                        DirState::PendingInvals { .. } => 3,
                        DirState::PendingRecall { .. } => 4,
                        DirState::Incoherent => 5,
                    }] = true;
                }
            }
            assert_spills_consistent(&d);
            assert_eq!(seen, [true; 6], "{n_nodes} nodes: every state occurs");
        }
    }

    /// Random protocol and recovery traffic from sharers on both sides of
    /// id 128 keeps the spill map consistent after every step.
    #[test]
    fn random_walk_keeps_spills_consistent() {
        let nodes = [1u16, 2, 127, 128, 600, 1023];
        for case in 0..16u64 {
            let mut rng = DetRng::new(0xD1E5_5107 ^ case);
            let mut d = Directory::new(NodeId(0), MemLayout::new(1024, 8));
            for _ in 0..400 {
                let line = LineAddr(rng.below(8));
                let from = *rng.choose(&nodes).unwrap();
                random_step(&mut d, &mut rng, line, from);
                assert_spills_consistent(&d);
            }
        }
    }

    /// The protocol over plain `NodeSet`s, one `(state, sharers, memory
    /// version)` per line: the reference the stored form is checked
    /// against.
    struct Reference {
        base: u64,
        lines: Vec<(DirState, NodeSet, Version)>,
    }

    impl Reference {
        fn new(d: &Directory) -> Self {
            Reference {
                base: d.base(),
                lines: vec![(DirState::Uncached, NodeSet::new(), Version::INITIAL); d.lines.len()],
            }
        }

        fn line(&mut self, line: LineAddr) -> &mut (DirState, NodeSet, Version) {
            &mut self.lines[(line.0 - self.base) as usize]
        }

        fn handle(&mut self, from: NodeId, msg: CohMsg) -> Vec<(NodeId, CohMsg)> {
            let line = msg.line();
            let (state, sharers, version) = self.line(line);
            let grant = |to, needs_data, version| {
                let reply = if needs_data {
                    CohMsg::Data {
                        line,
                        version,
                        exclusive: true,
                    }
                } else {
                    CohMsg::UpgradeAck { line }
                };
                vec![(to, reply)]
            };
            let write = !matches!(msg, CohMsg::Get { .. });
            // An upgrade is only valid from a listed sharer; any other
            // falls back to a write miss.
            let needs_data = !(matches!(msg, CohMsg::UpgradeReq { .. })
                && *state == DirState::Shared
                && sharers.contains(from));
            match (msg, *state) {
                (
                    CohMsg::Put {
                        version: v,
                        keep_shared,
                        ..
                    },
                    DirState::Exclusive(owner),
                ) if owner == from => {
                    *version = v;
                    if keep_shared {
                        sharers.insert(from);
                        *state = DirState::Shared;
                    } else {
                        *state = DirState::Uncached;
                    }
                    vec![(from, CohMsg::PutAck { line })]
                }
                (
                    CohMsg::Put {
                        version: v,
                        keep_shared,
                        ..
                    },
                    DirState::PendingRecall {
                        requester,
                        owner,
                        for_write,
                    },
                ) if owner == from => {
                    *version = v;
                    if for_write {
                        *state = DirState::Exclusive(requester);
                    } else {
                        sharers.insert(requester);
                        if keep_shared {
                            sharers.insert(owner);
                        }
                        *state = DirState::Shared;
                    }
                    let data = CohMsg::Data {
                        line,
                        version: v,
                        exclusive: for_write,
                    };
                    vec![(requester, data)]
                }
                (CohMsg::Put { .. }, _) => vec![(from, CohMsg::PutAck { line })],
                (
                    CohMsg::InvalAck { .. },
                    DirState::PendingInvals {
                        requester,
                        needs_data,
                    },
                ) => {
                    sharers.remove(from);
                    if !sharers.is_empty() {
                        return Vec::new();
                    }
                    *state = DirState::Exclusive(requester);
                    grant(requester, needs_data, *version)
                }
                (CohMsg::InvalAck { .. }, _) => Vec::new(),
                (_, DirState::Incoherent) => vec![(from, CohMsg::IncoherentErr { line })],
                (_, DirState::PendingInvals { .. } | DirState::PendingRecall { .. }) => {
                    vec![(from, CohMsg::Nak { line })]
                }
                (_, DirState::Exclusive(owner)) => {
                    *state = DirState::PendingRecall {
                        requester: from,
                        owner,
                        for_write: write,
                    };
                    let fetch = CohMsg::Fetch {
                        line,
                        for_write: write,
                    };
                    vec![(owner, fetch)]
                }
                (CohMsg::Get { .. }, _) => {
                    sharers.insert(from);
                    *state = DirState::Shared;
                    let data = CohMsg::Data {
                        line,
                        version: *version,
                        exclusive: false,
                    };
                    vec![(from, data)]
                }
                // A write on an uncached or shared line.
                _ => {
                    sharers.remove(from);
                    if sharers.is_empty() {
                        *state = DirState::Exclusive(from);
                        return grant(from, needs_data, *version);
                    }
                    *state = DirState::PendingInvals {
                        requester: from,
                        needs_data,
                    };
                    sharers
                        .iter()
                        .map(|s| (s, CohMsg::Inval { line }))
                        .collect()
                }
            }
        }

        fn recovery_put(&mut self, line: LineAddr, v: Version) {
            let (state, sharers, version) = self.line(line);
            if *state != DirState::Incoherent {
                (*state, *sharers, *version) = (DirState::Uncached, NodeSet::new(), v);
            }
        }

        fn mark_incoherent(&mut self, line: LineAddr) {
            let (state, sharers, _) = self.line(line);
            (*state, *sharers) = (DirState::Incoherent, NodeSet::new());
        }

        fn clear_incoherent(&mut self, line: LineAddr, fresh: Version) -> bool {
            let (state, _, version) = self.line(line);
            let was = *state == DirState::Incoherent;
            if was {
                (*state, *version) = (DirState::Uncached, fresh);
            }
            was
        }

        /// The post-flush reset, or with `failed` the reliable-interconnect
        /// prune; returns the newly marked lines.
        fn scan(&mut self, failed: Option<&NodeSet>) -> Vec<LineAddr> {
            let mut marked = Vec::new();
            for (k, (state, sharers, _)) in self.lines.iter_mut().enumerate() {
                let lost = state
                    .owner()
                    .is_some_and(|o| failed.is_none_or(|f| f.contains(o)));
                *state = match (*state, failed) {
                    _ if lost => {
                        marked.push(LineAddr(self.base + k as u64));
                        DirState::Incoherent
                    }
                    (DirState::Incoherent, _) => DirState::Incoherent,
                    (_, None) => DirState::Uncached,
                    (DirState::PendingRecall { owner, .. }, _) => DirState::Exclusive(owner),
                    (DirState::Shared | DirState::PendingInvals { .. }, Some(failed)) => {
                        sharers.subtract(failed);
                        if sharers.is_empty() {
                            DirState::Uncached
                        } else {
                            DirState::Shared
                        }
                    }
                    (other, _) => other,
                };
                if !matches!(*state, DirState::Shared | DirState::PendingInvals { .. }) {
                    *sharers = NodeSet::new();
                }
            }
            marked
        }
    }

    /// Seeded protocol and recovery traffic on a few lines, from sharers
    /// spread over the id range, checked after every step against the
    /// `NodeSet` reference: the replies (invalidations in ascending id
    /// order), each line's state, sharers and memory version, and the
    /// stored form (spilled exactly when a set outgrows its entry).
    /// At 128 and 1024 nodes the walk crosses both spill boundaries both
    /// ways; at 2 nodes every set fits and the spill map stays empty.
    #[test]
    fn inline_sharers_match_a_nodeset_reference() {
        for n_nodes in [2u16, 128, 1024] {
            let mut rng = DetRng::new(0x17E5_0000 ^ u64::from(n_nodes));
            let mut d = Directory::new(NodeId(1), MemLayout::new(n_nodes.into(), 8));
            let mut r = Reference::new(&d);
            let top = n_nodes - 1;
            let mut nodes = vec![0, 1, 2, 63, 64, 65, top / 2, top - 1, top];
            nodes.retain(|&id| id <= top);
            nodes.sort_unstable();
            nodes.dedup();
            // Shared: 3 -> 4 and 4 -> 3. PendingInvals: a spilled set made
            // from an inline one, and a spilled set shrinking inline.
            let mut crossed = [false; 4];
            for _ in 0..6000 {
                let line = LineAddr(8 + rng.below(4));
                let from = NodeId(*rng.choose(&nodes).unwrap());
                let k = (line.0 - 8) as usize;
                let before = (d.state(line), d.lines[k].entry.is_spilled());
                let (got, want) = match rng.below(100) {
                    0..=39 => (
                        d.handle(from, CohMsg::Get { line }),
                        r.handle(from, CohMsg::Get { line }),
                    ),
                    40..=51 => (
                        d.handle(from, CohMsg::GetX { line }),
                        r.handle(from, CohMsg::GetX { line }),
                    ),
                    52..=61 => (
                        d.handle(from, CohMsg::UpgradeReq { line }),
                        r.handle(from, CohMsg::UpgradeReq { line }),
                    ),
                    62..=83 => (
                        d.handle(from, CohMsg::InvalAck { line }),
                        r.handle(from, CohMsg::InvalAck { line }),
                    ),
                    84..=89 => {
                        let put = CohMsg::Put {
                            line,
                            version: d.mem_version(line).next(),
                            keep_shared: rng.chance(0.5),
                        };
                        (d.handle(from, put), r.handle(from, put))
                    }
                    90..=94 => {
                        let failed = NodeSet::singleton(from);
                        let marked = d.scan_and_prune(&failed);
                        assert_eq!(marked, r.scan(Some(&failed)));
                        (Vec::new(), Vec::new())
                    }
                    95 => {
                        let v = d.mem_version(line).next();
                        d.recovery_put(line, v);
                        r.recovery_put(line, v);
                        (Vec::new(), Vec::new())
                    }
                    96 => {
                        d.mark_incoherent(line);
                        r.mark_incoherent(line);
                        (Vec::new(), Vec::new())
                    }
                    97..=98 => {
                        let v = d.mem_version(line).next();
                        assert_eq!(d.clear_incoherent(line, v), r.clear_incoherent(line, v));
                        (Vec::new(), Vec::new())
                    }
                    _ => {
                        assert_eq!(d.scan_and_reset(), r.scan(None));
                        assert!(d.spilled.is_empty());
                        (Vec::new(), Vec::new())
                    }
                };
                assert_eq!(got, want, "{n_nodes} nodes, {from:?} on {line:?}");
                for (l, state) in d.iter_states() {
                    let (s, sharers, version) = *r.line(l);
                    assert_eq!(
                        (state, d.sharers(l), d.mem_version(l)),
                        (s, sharers, version)
                    );
                }
                assert_spills_consistent(&d);
                let after = (d.state(line), d.lines[k].entry.is_spilled());
                let pending = |s| matches!(s, DirState::PendingInvals { .. });
                match (before, after) {
                    ((DirState::Shared, false), (DirState::Shared, true)) => crossed[0] = true,
                    ((DirState::Shared, true), (DirState::Shared, false)) => crossed[1] = true,
                    ((DirState::Shared, false), (s, true)) if pending(s) => crossed[2] = true,
                    ((s, true), (t, false)) if pending(s) && pending(t) => crossed[3] = true,
                    _ => {}
                }
            }
            if n_nodes > 2 {
                assert_eq!(crossed, [true; 4], "{n_nodes} nodes");
            }
        }
    }

    #[test]
    #[should_panic(expected = "node id 500 exceeds the 8-node machine")]
    fn sharer_outside_the_machine_joining_a_spilled_set_panics() {
        let mut d = Directory::new(NodeId(0), MemLayout::new(8, 8));
        share(&mut d, LineAddr(3), &[1, 2, 3, 4]);
        get(&mut d, 500, LineAddr(3));
    }

    #[test]
    #[should_panic(expected = "node id 500 exceeds the 8-node machine")]
    fn recalled_line_shared_with_a_node_outside_the_machine_panics() {
        let mut d = Directory::new(NodeId(0), MemLayout::new(8, 8));
        getx(&mut d, 1, LineAddr(3));
        get(&mut d, 500, LineAddr(3));
        put(&mut d, 1, LineAddr(3), true);
    }
}
