//! Node sets stored at the machine's width.
//!
//! A [`NodeSet`] is a fixed 1024-bit bitmap (128 bytes), so one type can
//! name every node of the largest machine. Per-line and per-page state
//! holds many sets, though, and on a 128-node machine only the first two
//! words of each can be non-zero. [`NodeSetPool`] stores each set in
//! ⌈n_nodes/64⌉ words, with a free list, and hands back full `NodeSet`s,
//! so code that reads a set (its iteration order included) is unchanged.
//! A holder that adds or drops one member edits its slot in place.

use crate::nodeset::{NodeSet, WORDS};
use flash_net::NodeId;

/// Node sets of a `n_nodes`-node machine, each in a numbered slot of
/// ⌈n_nodes/64⌉ words. A holder keeps its slot number; a released slot is
/// handed to the next set that needs one.
///
/// # Examples
///
/// ```
/// use flash_coherence::{NodeSet, NodeSetPool};
/// use flash_net::NodeId;
///
/// let mut pool = NodeSetPool::new(128);
/// let slot = pool.hold(None, &NodeSet::singleton(NodeId(100)));
/// assert!(pool.contains(slot, NodeId(100)));
/// assert_eq!(pool.get(slot), NodeSet::singleton(NodeId(100)));
/// ```
#[derive(Clone, Debug)]
pub struct NodeSetPool {
    n_nodes: usize,
    /// Words per slot.
    width: usize,
    /// The bits of each `NodeSet` word that name nodes of the machine:
    /// every bit of the first words, the low bits of the last, none after.
    lanes: [u64; WORDS],
    /// The slots' words, `width` per slot, slot after slot, then
    /// `WORDS - width` zero words. Every slot thus starts a whole
    /// `WORDS`-word window, so `get` and `hold` move a fixed 16 words
    /// under `lanes` instead of a run-time length.
    words: Vec<u64>,
    /// Slots no holder owns.
    free: Vec<u32>,
}

impl NodeSetPool {
    /// An empty pool for sets of the nodes `0..n_nodes`.
    ///
    /// # Panics
    ///
    /// Panics if `n_nodes` is 0 or exceeds [`NodeSet::CAPACITY`].
    pub fn new(n_nodes: usize) -> Self {
        assert!(
            (1..=NodeSet::CAPACITY).contains(&n_nodes),
            "a pool covers 1..={} nodes, not {n_nodes}",
            NodeSet::CAPACITY
        );
        let width = n_nodes.div_ceil(64);
        NodeSetPool {
            n_nodes,
            width,
            lanes: std::array::from_fn(|k| match n_nodes.saturating_sub(k * 64) {
                0 => 0,
                below if below >= 64 => !0,
                below => (1 << below) - 1,
            }),
            words: vec![0; WORDS - width],
            free: Vec::new(),
        }
    }

    /// The `WORDS` words from the start of `slot`: its own, then the
    /// following slots' or the zero tail.
    #[inline]
    fn window(&self, slot: u32) -> &[u64; WORDS] {
        let at = slot as usize * self.width;
        self.words[at..at + WORDS]
            .try_into()
            .expect("a window is WORDS long")
    }

    /// The set in `slot`.
    #[inline]
    pub fn get(&self, slot: u32) -> NodeSet {
        let window = self.window(slot);
        NodeSet::from_words(std::array::from_fn(|k| window[k] & self.lanes[k]))
    }

    /// Whether the set in `slot` contains `node`. A node outside the
    /// machine is in no set.
    pub fn contains(&self, slot: u32, node: NodeId) -> bool {
        let i = node.index();
        i < self.n_nodes && self.window(slot)[i / 64] & (1 << (i % 64)) != 0
    }

    /// Stores `set` in `slot`, or in a free or new slot if `slot` is
    /// `None`; returns the slot used.
    ///
    /// # Panics
    ///
    /// Panics if `set` has a member outside the machine: a set is never
    /// truncated to fit.
    pub fn hold(&mut self, slot: Option<u32>, set: &NodeSet) -> u32 {
        let bits = set.words();
        let outside_bits = bits
            .iter()
            .zip(&self.lanes)
            .fold(0, |acc, (b, lane)| acc | b & !lane);
        if outside_bits != 0 {
            set.iter().for_each(|n| self.assert_in_machine(n));
        }
        let slot = slot.or_else(|| self.free.pop()).unwrap_or_else(|| {
            let new = u32::try_from(self.slots()).expect("pool slots fit in u32");
            self.words.resize(self.words.len() + self.width, 0);
            new
        });
        let at = slot as usize * self.width;
        let window: &mut [u64; WORDS] = (&mut self.words[at..at + WORDS])
            .try_into()
            .expect("a window is WORDS long");
        // A slot's bits outside `lanes` are always zero, so this writes
        // `set` into the slot and leaves the words after it as they were.
        for ((word, &b), &lane) in window.iter_mut().zip(bits).zip(&self.lanes) {
            *word = *word & !lane | b;
        }
        slot
    }

    /// Adds `node` to the set in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the machine, as [`NodeSetPool::hold`]
    /// does.
    pub fn insert(&mut self, slot: u32, node: NodeId) {
        self.assert_in_machine(node);
        let i = node.index();
        self.words[slot as usize * self.width + i / 64] |= 1 << (i % 64);
    }

    /// Removes `node` from the set in `slot`. A node outside the machine is
    /// in no set.
    pub fn remove(&mut self, slot: u32, node: NodeId) {
        let i = node.index();
        if i < self.n_nodes {
            self.words[slot as usize * self.width + i / 64] &= !(1 << (i % 64));
        }
    }

    /// Whether the set in `slot` is empty.
    pub fn is_empty(&self, slot: u32) -> bool {
        let at = slot as usize * self.width;
        self.words[at..at + self.width].iter().all(|&w| w == 0)
    }

    fn assert_in_machine(&self, node: NodeId) {
        assert!(
            node.index() < self.n_nodes,
            "node id {} exceeds the {}-node machine",
            node.index(),
            self.n_nodes
        );
    }

    /// Returns `slot` to the free list; its holder must not use it again.
    pub fn release(&mut self, slot: u32) {
        self.free.push(slot);
    }

    /// Drops every slot.
    pub fn clear(&mut self) {
        self.words.truncate(WORDS - self.width);
        self.words.fill(0);
        self.free.clear();
    }

    /// Slots allocated, held or free.
    pub fn slots(&self) -> usize {
        (self.words.len() - (WORDS - self.width)) / self.width
    }

    /// Bytes each slot takes: 8 per started 64 nodes.
    #[cfg(test)]
    pub(crate) fn slot_bytes(&self) -> usize {
        self.width * 8
    }

    /// The free list, most recently released last.
    #[cfg(test)]
    pub(crate) fn free_slots(&self) -> &[u32] {
        &self.free
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u16]) -> NodeSet {
        ids.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn sets_round_trip_at_every_width() {
        for n in [1usize, 2, 63, 64, 65, 128, 500, 1024] {
            let mut pool = NodeSetPool::new(n);
            let top = (n - 1) as u16;
            let sets = [set(&[]), set(&[0]), set(&[top]), set(&[0, top / 2, top])];
            let slots: Vec<u32> = sets.iter().map(|s| pool.hold(None, s)).collect();
            assert_eq!(slots, vec![0, 1, 2, 3]);
            for (&slot, s) in slots.iter().zip(&sets) {
                assert_eq!(pool.get(slot), *s, "n = {n}");
                for i in 0..n as u16 {
                    assert_eq!(pool.contains(slot, NodeId(i)), s.contains(NodeId(i)));
                }
                assert!(!pool.contains(slot, NodeId(n as u16)));
            }
            assert_eq!(pool.slot_bytes(), n.div_ceil(64) * 8);
        }
    }

    #[test]
    fn released_slots_are_reused_last_in_first_out() {
        let mut pool = NodeSetPool::new(8);
        let a = pool.hold(None, &set(&[1]));
        let b = pool.hold(None, &set(&[2]));
        // A holder that keeps its slot overwrites it in place.
        assert_eq!(pool.hold(Some(a), &set(&[3, 4])), a);
        assert_eq!(pool.get(a), set(&[3, 4]));
        pool.release(a);
        pool.release(b);
        assert_eq!(pool.free_slots(), &[a, b]);
        assert_eq!(pool.hold(None, &set(&[5])), b);
        assert_eq!(pool.hold(None, &set(&[6])), a);
        assert_eq!(pool.hold(None, &set(&[7])), 2);
        assert_eq!(pool.slots(), 3);
        pool.clear();
        assert_eq!(pool.slots(), 0);
        assert!(pool.free_slots().is_empty());
    }

    #[test]
    fn in_place_edits_touch_only_their_slot() {
        for n in [3usize, 64, 65, 128, 1024] {
            let mut pool = NodeSetPool::new(n);
            let top = NodeId((n - 1) as u16);
            let a = pool.hold(None, &set(&[0]));
            let b = pool.hold(None, &set(&[]));
            assert!(pool.is_empty(b) && !pool.is_empty(a));
            pool.insert(b, top);
            pool.insert(b, top);
            pool.insert(b, NodeId(1));
            assert_eq!(pool.get(b), set(&[1, top.0]), "n = {n}");
            assert_eq!(pool.get(a), set(&[0]), "a neighbour slot is untouched");
            pool.remove(b, top);
            pool.remove(b, NodeId(n as u16));
            assert_eq!(pool.get(b), set(&[1]));
            pool.remove(b, NodeId(1));
            assert!(pool.is_empty(b));
            pool.remove(a, NodeId(0));
            assert!(pool.is_empty(a));
        }
    }

    #[test]
    #[should_panic(expected = "node id 128 exceeds the 128-node machine")]
    fn inserting_a_node_past_the_machine_panics() {
        let mut pool = NodeSetPool::new(128);
        let slot = pool.hold(None, &set(&[5]));
        pool.insert(slot, NodeId(128));
    }

    #[test]
    #[should_panic(expected = "node id 65 exceeds the 65-node machine")]
    fn member_past_a_partial_word_panics() {
        NodeSetPool::new(65).hold(None, &set(&[3, 65]));
    }

    #[test]
    #[should_panic(expected = "node id 1023 exceeds the 128-node machine")]
    fn member_in_a_higher_word_panics() {
        NodeSetPool::new(128).hold(None, &set(&[1023]));
    }
}
