//! A compact bitset of node ids, used for directory sharer lists and
//! recovery-state vectors. Supports machines of up to 1024 nodes: the paper
//! evaluates up to 128 and FLASH scales to 512, but the beyond-the-paper
//! Figure 5.5 rows (`FLASH_BIG=1`) run 512- and 1024-node meshes, which need
//! every sharer list and recovery vector to address the full machine.

use core::fmt;
use flash_net::NodeId;

const WORDS: usize = 16;

/// A set of [`NodeId`]s backed by a fixed 1024-bit bitmap.
///
/// # Examples
///
/// ```
/// use flash_coherence::NodeSet;
/// use flash_net::NodeId;
///
/// let mut s = NodeSet::new();
/// s.insert(NodeId(3));
/// s.insert(NodeId(130));
/// assert!(s.contains(NodeId(3)));
/// assert_eq!(s.len(), 2);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct NodeSet {
    bits: [u64; WORDS],
}

impl NodeSet {
    /// The maximum node id + 1 a `NodeSet` can hold.
    pub const CAPACITY: usize = WORDS * 64;

    /// Creates an empty set.
    pub fn new() -> Self {
        NodeSet::default()
    }

    /// Creates a set containing a single node.
    pub fn singleton(node: NodeId) -> Self {
        let mut s = NodeSet::new();
        s.insert(node);
        s
    }

    /// Creates a set containing all nodes `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n > CAPACITY`.
    pub fn all_below(n: usize) -> Self {
        assert!(n <= Self::CAPACITY);
        let mut s = NodeSet::new();
        for i in 0..n {
            s.insert(NodeId(i as u16));
        }
        s
    }

    /// Adds a node; returns whether it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if the id exceeds [`NodeSet::CAPACITY`].
    pub fn insert(&mut self, node: NodeId) -> bool {
        let (w, b) = Self::slot(node);
        let had = self.bits[w] & b != 0;
        self.bits[w] |= b;
        !had
    }

    /// Removes a node; returns whether it was present.
    pub fn remove(&mut self, node: NodeId) -> bool {
        let (w, b) = Self::slot(node);
        let had = self.bits[w] & b != 0;
        self.bits[w] &= !b;
        had
    }

    /// Membership test.
    pub fn contains(&self, node: NodeId) -> bool {
        let (w, b) = Self::slot(node);
        self.bits[w] & b != 0
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// Set union, in place.
    pub fn union_with(&mut self, other: &NodeSet) {
        for (a, b) in self.bits.iter_mut().zip(other.bits.iter()) {
            *a |= b;
        }
    }

    /// Set difference (`self - other`), in place.
    pub fn subtract(&mut self, other: &NodeSet) {
        for (a, b) in self.bits.iter_mut().zip(other.bits.iter()) {
            *a &= !b;
        }
    }

    /// Whether the two sets intersect.
    pub fn intersects(&self, other: &NodeSet) -> bool {
        self.bits
            .iter()
            .zip(other.bits.iter())
            .any(|(a, b)| a & b != 0)
    }

    /// Iterates over members in ascending order, one word at a time: each
    /// step takes the lowest set bit of the current word, and empty words
    /// cost one test each.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        Iter {
            words: &self.bits,
            word: 0,
            bits: self.bits[0],
        }
    }

    /// The smallest member, if any.
    pub fn first(&self) -> Option<NodeId> {
        let w = self.bits.iter().position(|&w| w != 0)?;
        Some(NodeId(
            (w * 64 + self.bits[w].trailing_zeros() as usize) as u16,
        ))
    }

    fn slot(node: NodeId) -> (usize, u64) {
        let i = node.index();
        assert!(i < Self::CAPACITY, "node id {i} exceeds NodeSet capacity");
        (i / 64, 1u64 << (i % 64))
    }
}

/// The members of a [`NodeSet`] in ascending order.
struct Iter<'a> {
    words: &'a [u64; WORDS],
    /// Index of the word `bits` came from.
    word: usize,
    /// The members of `words[word]` not yet yielded.
    bits: u64,
}

impl Iterator for Iter<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        while self.bits == 0 {
            self.word += 1;
            self.bits = *self.words.get(self.word)?;
        }
        let bit = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(NodeId((self.word * 64 + bit) as u16))
    }
}

impl fmt::Debug for NodeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<NodeId> for NodeSet {
    fn from_iter<T: IntoIterator<Item = NodeId>>(iter: T) -> Self {
        let mut s = NodeSet::new();
        for n in iter {
            s.insert(n);
        }
        s
    }
}

impl Extend<NodeId> for NodeSet {
    fn extend<T: IntoIterator<Item = NodeId>>(&mut self, iter: T) {
        for n in iter {
            self.insert(n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = NodeSet::new();
        assert!(s.is_empty());
        assert!(s.insert(NodeId(7)));
        assert!(!s.insert(NodeId(7)));
        assert!(s.contains(NodeId(7)));
        assert_eq!(s.len(), 1);
        assert!(s.remove(NodeId(7)));
        assert!(!s.remove(NodeId(7)));
        assert!(s.is_empty());
    }

    #[test]
    fn spans_multiple_words() {
        let mut s = NodeSet::new();
        s.insert(NodeId(0));
        s.insert(NodeId(64));
        s.insert(NodeId(255));
        assert_eq!(s.len(), 3);
        let members: Vec<u16> = s.iter().map(|n| n.0).collect();
        assert_eq!(members, vec![0, 64, 255]);
        assert_eq!(s.first(), Some(NodeId(0)));
    }

    #[test]
    fn set_algebra() {
        let a: NodeSet = [1u16, 2, 3].iter().map(|&i| NodeId(i)).collect();
        let b: NodeSet = [3u16, 4].iter().map(|&i| NodeId(i)).collect();
        let mut u = a;
        u.union_with(&b);
        assert_eq!(u.len(), 4);
        let mut d = a;
        d.subtract(&b);
        assert!(d.contains(NodeId(1)) && d.contains(NodeId(2)) && !d.contains(NodeId(3)));
        assert!(a.intersects(&b));
        assert!(!d.intersects(&b));
    }

    #[test]
    fn all_below_and_singleton() {
        let s = NodeSet::all_below(10);
        assert_eq!(s.len(), 10);
        assert!(s.contains(NodeId(9)));
        assert!(!s.contains(NodeId(10)));
        assert_eq!(NodeSet::singleton(NodeId(5)).len(), 1);
    }

    #[test]
    #[should_panic(expected = "exceeds NodeSet capacity")]
    fn oversized_id_panics() {
        let mut s = NodeSet::new();
        s.insert(NodeId(1024));
    }

    /// The bit-at-a-time scan `iter` replaced, kept as the reference.
    fn bit_scan(s: &NodeSet) -> Vec<NodeId> {
        (0..NodeSet::CAPACITY as u16)
            .filter(|&i| s.contains(NodeId(i)))
            .map(NodeId)
            .collect()
    }

    fn assert_matches_bit_scan(s: &NodeSet) {
        let scan = bit_scan(s);
        assert_eq!(s.iter().collect::<Vec<_>>(), scan, "{s:?}");
        assert_eq!(s.first(), scan.first().copied(), "{s:?}");
        assert_eq!(s.len(), scan.len(), "{s:?}");
    }

    #[test]
    fn iter_matches_bit_scan_at_word_edges() {
        assert_matches_bit_scan(&NodeSet::new());
        assert_matches_bit_scan(&NodeSet::all_below(NodeSet::CAPACITY));
        let edges = [0u16, 63, 64, 127, 1023];
        for &e in &edges {
            assert_matches_bit_scan(&NodeSet::singleton(NodeId(e)));
        }
        assert_matches_bit_scan(&edges.iter().map(|&i| NodeId(i)).collect());
        let mut holes = NodeSet::all_below(NodeSet::CAPACITY);
        for &e in &edges {
            holes.remove(NodeId(e));
        }
        assert_matches_bit_scan(&holes);
    }

    #[test]
    fn iter_matches_bit_scan_on_random_sets() {
        // Sparse, dense and word-clustered sets from a fixed seed.
        let mut rng = flash_sim::DetRng::new(20);
        for case in 0..200 {
            let mut s = NodeSet::new();
            let span = [64, 200, 1024][case % 3];
            for _ in 0..rng.below(300) {
                s.insert(NodeId(rng.below(span) as u16));
            }
            assert_matches_bit_scan(&s);
        }
    }

    #[test]
    fn debug_lists_members() {
        let s = NodeSet::singleton(NodeId(2));
        assert_eq!(format!("{s:?}"), "{n2}");
    }
}
