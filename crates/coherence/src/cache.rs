//! The processor's second-level cache model.
//!
//! A 2-way set-associative cache (the MIPS R10000's L2 is 2-way) holding
//! line-granular entries with an exclusive/dirty bit and the versioned data
//! model of [`crate::line`]. Capacity is expressed in lines; a 1 MB L2 holds
//! 8192 lines of 128 bytes.
//!
//! The cache-flush step of coherence-protocol recovery (paper, Section 4.5)
//! is [`L2Cache::flush_all`]: dirty lines are returned for writeback and the
//! entire cache is invalidated, leaving it empty.

use crate::line::{LineAddr, Version};

/// One cached line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CachedLine {
    /// The line's address.
    pub addr: LineAddr,
    /// Whether this copy is exclusive. In this protocol exclusive copies are
    /// always dirty (exclusivity is only requested to satisfy a store).
    pub exclusive: bool,
    /// The line's data (version model).
    pub version: Version,
}

/// One way of a set, packed into 8 bytes: a word holding the flags below
/// over the line's version, and the line's address as a `u32` (checked on
/// insert).
#[derive(Clone, Copy, Debug, Default)]
struct Way {
    word: u32,
    line: u32,
}

/// The way holds a line.
const VALID: u32 = 1 << 31;
/// The line is held exclusive (and so dirty).
const EXCLUSIVE: u32 = 1 << 30;
/// Set in way 0's word only: way 1 is the least-recently-used way.
const LRU_IS_1: u32 = 1 << 29;
/// The bits below the flags hold the version.
const VERSION_BITS: u32 = 29;
const VERSION_MASK: u32 = (1 << VERSION_BITS) - 1;

/// `version` as it sits under the flags.
///
/// # Panics
///
/// Panics if the version needs more than [`VERSION_BITS`] bits: it is
/// never truncated.
fn packed(version: Version) -> u32 {
    assert!(
        version.0 <= VERSION_MASK,
        "version {version:?} exceeds the cache's {VERSION_BITS}-bit version field"
    );
    version.0
}

impl Way {
    fn is_valid(&self) -> bool {
        self.word & VALID != 0
    }

    fn holds(&self, addr: LineAddr) -> bool {
        self.is_valid() && u64::from(self.line) == addr.0
    }

    fn is_exclusive(&self) -> bool {
        self.word & EXCLUSIVE != 0
    }

    fn version(&self) -> Version {
        Version(self.word & VERSION_MASK)
    }

    fn line(&self) -> Option<CachedLine> {
        self.is_valid().then(|| CachedLine {
            addr: LineAddr(u64::from(self.line)),
            exclusive: self.is_exclusive(),
            version: self.version(),
        })
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct Set {
    ways: [Way; 2],
}

const _: () = assert!(std::mem::size_of::<Way>() == 8);
const _: () = assert!(std::mem::size_of::<Set>() == 16);

impl Set {
    /// Index of the least-recently-used way.
    fn lru(&self) -> usize {
        usize::from(self.ways[0].word & LRU_IS_1 != 0)
    }

    /// Marks `way` most recently used.
    fn used(&mut self, way: usize) {
        if way == 0 {
            self.ways[0].word |= LRU_IS_1;
        } else {
            self.ways[0].word &= !LRU_IS_1;
        }
    }

    /// The first way holding `addr`.
    fn find(&self, addr: LineAddr) -> Option<usize> {
        (0..2).find(|&w| self.ways[w].holds(addr))
    }
}

/// The result of inserting a line into the cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The line was installed without displacing anything.
    Installed,
    /// A clean line was silently evicted to make room.
    EvictedClean(LineAddr),
    /// A dirty line was evicted; the caller must write it back to its home
    /// (the returned copy is the only valid one).
    EvictedDirty(CachedLine),
}

/// A 2-way set-associative L2 cache.
///
/// # Examples
///
/// ```
/// use flash_coherence::{L2Cache, LineAddr, Version};
///
/// let mut cache = L2Cache::new(64);
/// cache.insert(LineAddr(5), false, Version(1));
/// assert_eq!(cache.lookup(LineAddr(5)).unwrap().version, Version(1));
/// assert_eq!(cache.len(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct L2Cache {
    sets: Vec<Set>,
    len: usize,
}

impl L2Cache {
    /// Creates a cache holding `capacity_lines` lines (rounded up to an even
    /// number; at least 2).
    pub fn new(capacity_lines: usize) -> Self {
        let sets = (capacity_lines.max(2)).div_ceil(2);
        L2Cache {
            sets: vec![Set::default(); sets],
            len: 0,
        }
    }

    /// Creates a cache sized in megabytes (128-byte lines).
    pub fn with_mb(mb: f64) -> Self {
        let lines = (mb * 1024.0 * 1024.0 / 128.0) as usize;
        L2Cache::new(lines.max(2))
    }

    /// Total line capacity.
    pub fn capacity(&self) -> usize {
        self.sets.len() * 2
    }

    /// Number of lines currently cached.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn set_of(&self, addr: LineAddr) -> usize {
        (addr.0 % self.sets.len() as u64) as usize
    }

    /// Looks up a line without touching LRU state.
    pub fn lookup(&self, addr: LineAddr) -> Option<CachedLine> {
        let set = &self.sets[self.set_of(addr)];
        set.find(addr).and_then(|w| set.ways[w].line())
    }

    /// Looks up a line, marking it most recently used.
    pub fn touch(&mut self, addr: LineAddr) -> Option<CachedLine> {
        let si = self.set_of(addr);
        let set = &mut self.sets[si];
        let w = set.find(addr)?;
        set.used(w);
        set.ways[w].line()
    }

    /// Installs a line (shared or exclusive), possibly evicting the LRU way.
    /// Exclusive installs are dirty by construction.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the line is already present — callers must not
    /// double-install. Panics if the line address does not fit in 32 bits
    /// or the version in the way's version field.
    pub fn insert(&mut self, addr: LineAddr, exclusive: bool, version: Version) -> InsertOutcome {
        debug_assert!(self.lookup(addr).is_none(), "line already cached");
        let new = Way {
            word: VALID | (if exclusive { EXCLUSIVE } else { 0 }) | packed(version),
            line: u32::try_from(addr.0).expect("line address fits the cache's 32-bit tag"),
        };
        let si = self.set_of(addr);
        let set = &mut self.sets[si];
        // A free way, else the LRU way's line is the victim.
        let (w, victim) = match (0..2).find(|&w| !set.ways[w].is_valid()) {
            Some(w) => (w, None),
            None => (set.lru(), set.ways[set.lru()].line()),
        };
        set.ways[w] = new;
        set.used(w);
        match victim {
            None => {
                self.len += 1;
                InsertOutcome::Installed
            }
            Some(victim) if victim.exclusive => InsertOutcome::EvictedDirty(victim),
            Some(victim) => InsertOutcome::EvictedClean(victim.addr),
        }
    }

    /// Commits a store to a cached exclusive line, bumping its version.
    /// Returns the new version, or `None` if the line is absent or not
    /// exclusive (the caller must obtain exclusivity first).
    ///
    /// # Panics
    ///
    /// Panics if the new version does not fit the way's version field.
    pub fn store(&mut self, addr: LineAddr) -> Option<Version> {
        let si = self.set_of(addr);
        let set = &mut self.sets[si];
        let w = (0..2).find(|&w| set.ways[w].holds(addr) && set.ways[w].is_exclusive())?;
        let version = set.ways[w].version().next();
        set.ways[w].word = (set.ways[w].word & !VERSION_MASK) | packed(version);
        set.used(w);
        Some(version)
    }

    /// Removes a line (invalidation), returning the removed copy if present.
    pub fn invalidate(&mut self, addr: LineAddr) -> Option<CachedLine> {
        let si = self.set_of(addr);
        let set = &mut self.sets[si];
        let w = set.find(addr)?;
        let out = set.ways[w].line();
        // Way 0 keeps the set's LRU bit.
        set.ways[w].word &= LRU_IS_1;
        self.len -= 1;
        out
    }

    /// Upgrades a shared copy to exclusive ownership (after an
    /// [`UpgradeAck`](crate::CohMsg::UpgradeAck) from the home). Returns the
    /// copy's version, or `None` if the line is absent or already exclusive.
    pub fn upgrade(&mut self, addr: LineAddr) -> Option<Version> {
        let si = self.set_of(addr);
        let way = self.sets[si]
            .ways
            .iter_mut()
            .find(|way| way.holds(addr) && !way.is_exclusive())?;
        way.word |= EXCLUSIVE;
        Some(way.version())
    }

    /// Downgrades an exclusive line to a clean shared copy (after the home
    /// recalled the data with a read-only `Fetch`). Returns the version
    /// written back, or `None` if the line is absent or already shared.
    pub fn downgrade(&mut self, addr: LineAddr) -> Option<Version> {
        let si = self.set_of(addr);
        let way = self.sets[si]
            .ways
            .iter_mut()
            .find(|way| way.holds(addr) && way.is_exclusive())?;
        way.word &= !EXCLUSIVE;
        Some(way.version())
    }

    /// The recovery cache flush: returns all dirty (exclusive) lines for
    /// writeback and empties the whole cache (paper, Section 4.5: "after the
    /// cache flush step all processor caches in the system are empty").
    pub fn flush_all(&mut self) -> Vec<CachedLine> {
        let mut dirty: Vec<CachedLine> = self.iter().filter(|l| l.exclusive).collect();
        self.sets.fill(Set::default());
        self.len = 0;
        dirty.sort_by_key(|l| l.addr);
        dirty
    }

    /// Iterates over all cached lines (set order, then way order).
    pub fn iter(&self) -> impl Iterator<Item = CachedLine> + '_ {
        self.sets
            .iter()
            .flat_map(|s| s.ways.iter().filter_map(Way::line))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_lookup_store() {
        let mut c = L2Cache::new(8);
        assert_eq!(
            c.insert(LineAddr(1), true, Version(0)),
            InsertOutcome::Installed
        );
        assert_eq!(c.store(LineAddr(1)), Some(Version(1)));
        assert_eq!(c.store(LineAddr(1)), Some(Version(2)));
        assert_eq!(c.lookup(LineAddr(1)).unwrap().version, Version(2));
        // Store to a shared line fails.
        c.insert(LineAddr(2), false, Version(5));
        assert_eq!(c.store(LineAddr(2)), None);
        // Store to an absent line fails.
        assert_eq!(c.store(LineAddr(99)), None);
    }

    #[test]
    fn eviction_prefers_lru_and_reports_dirty() {
        let mut c = L2Cache::new(2); // one set, two ways
        c.insert(LineAddr(0), true, Version(1));
        c.insert(LineAddr(1), false, Version(2));
        // Touch 0 so 1 becomes LRU.
        c.touch(LineAddr(0));
        match c.insert(LineAddr(2), false, Version(3)) {
            InsertOutcome::EvictedClean(a) => assert_eq!(a, LineAddr(1)),
            other => panic!("expected clean eviction, got {other:?}"),
        }
        // Now 0 (dirty) is LRU after inserting 2.
        match c.insert(LineAddr(3), false, Version(4)) {
            InsertOutcome::EvictedDirty(l) => {
                assert_eq!(l.addr, LineAddr(0));
                assert_eq!(l.version, Version(1));
            }
            other => panic!("expected dirty eviction, got {other:?}"),
        }
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn invalidate_and_downgrade() {
        let mut c = L2Cache::new(8);
        c.insert(LineAddr(3), true, Version(7));
        assert_eq!(c.downgrade(LineAddr(3)), Some(Version(7)));
        assert!(!c.lookup(LineAddr(3)).unwrap().exclusive);
        assert_eq!(c.downgrade(LineAddr(3)), None, "already shared");
        let out = c.invalidate(LineAddr(3)).unwrap();
        assert_eq!(out.version, Version(7));
        assert!(c.invalidate(LineAddr(3)).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn flush_returns_dirty_and_empties() {
        let mut c = L2Cache::new(16);
        c.insert(LineAddr(1), true, Version(1));
        c.insert(LineAddr(2), false, Version(2));
        c.insert(LineAddr(3), true, Version(3));
        let dirty = c.flush_all();
        let addrs: Vec<u64> = dirty.iter().map(|l| l.addr.0).collect();
        assert_eq!(addrs, vec![1, 3]);
        assert!(c.is_empty());
        assert!(c.lookup(LineAddr(2)).is_none());
    }

    #[test]
    fn capacity_is_respected() {
        let mut c = L2Cache::new(8);
        let mut evictions = 0;
        for i in 0..100 {
            match c.insert(LineAddr(i), false, Version(0)) {
                InsertOutcome::Installed => {}
                _ => evictions += 1,
            }
        }
        assert_eq!(c.len() + evictions, 100);
        assert!(c.len() <= c.capacity());
        assert_eq!(c.capacity(), 8);
    }

    #[test]
    fn with_mb_sizes() {
        assert_eq!(L2Cache::with_mb(1.0).capacity(), 8192);
        assert_eq!(L2Cache::with_mb(0.5).capacity(), 4096);
    }

    /// The cache before ways were packed: two `Option<CachedLine>` and an
    /// LRU byte per set. The differential test below holds the packed cache
    /// to it.
    struct Reference {
        sets: Vec<([Option<CachedLine>; 2], usize)>,
    }

    impl Reference {
        fn new(capacity_lines: usize) -> Self {
            Reference {
                sets: vec![([None; 2], 0); capacity_lines.max(2).div_ceil(2)],
            }
        }

        fn set(&mut self, addr: LineAddr) -> &mut ([Option<CachedLine>; 2], usize) {
            let n = self.sets.len() as u64;
            &mut self.sets[(addr.0 % n) as usize]
        }

        fn way(&mut self, addr: LineAddr, want: impl Fn(&CachedLine) -> bool) -> Option<usize> {
            let (ways, _) = self.set(addr);
            (0..2).find(|&w| ways[w].is_some_and(|l| l.addr == addr && want(&l)))
        }

        fn lookup(&mut self, addr: LineAddr) -> Option<CachedLine> {
            let w = self.way(addr, |_| true)?;
            self.set(addr).0[w]
        }

        fn touch(&mut self, addr: LineAddr) -> Option<CachedLine> {
            let w = self.way(addr, |_| true)?;
            let set = self.set(addr);
            set.1 = w ^ 1;
            set.0[w]
        }

        fn insert(&mut self, addr: LineAddr, exclusive: bool, version: Version) -> InsertOutcome {
            let new = Some(CachedLine {
                addr,
                exclusive,
                version,
            });
            let (ways, lru) = self.set(addr);
            if let Some(w) = (0..2).find(|&w| ways[w].is_none()) {
                ways[w] = new;
                *lru = w ^ 1;
                return InsertOutcome::Installed;
            }
            let victim = ways[*lru].take().unwrap();
            ways[*lru] = new;
            *lru ^= 1;
            if victim.exclusive {
                InsertOutcome::EvictedDirty(victim)
            } else {
                InsertOutcome::EvictedClean(victim.addr)
            }
        }

        fn store(&mut self, addr: LineAddr) -> Option<Version> {
            let w = self.way(addr, |l| l.exclusive)?;
            let set = self.set(addr);
            let l = set.0[w].as_mut().unwrap();
            l.version = l.version.next();
            set.1 = w ^ 1;
            Some(l.version)
        }

        fn invalidate(&mut self, addr: LineAddr) -> Option<CachedLine> {
            let w = self.way(addr, |_| true)?;
            self.set(addr).0[w].take()
        }

        fn regrade(&mut self, addr: LineAddr, to_exclusive: bool) -> Option<Version> {
            let w = self.way(addr, |l| l.exclusive != to_exclusive)?;
            let l = self.set(addr).0[w].as_mut().unwrap();
            l.exclusive = to_exclusive;
            Some(l.version)
        }

        fn flush_all(&mut self) -> Vec<CachedLine> {
            let mut dirty: Vec<CachedLine> = self.iter().filter(|l| l.exclusive).collect();
            self.sets.fill(([None; 2], 0));
            dirty.sort_by_key(|l| l.addr);
            dirty
        }

        fn iter(&self) -> impl Iterator<Item = CachedLine> + '_ {
            self.sets
                .iter()
                .flat_map(|(ways, _)| ways.iter().flatten().copied())
        }
    }

    /// Runs the seeded differential cases with versions drawn from
    /// `base..base + 1000`. At most 600 stores follow, so a base up to
    /// `VERSION_MASK - 1600` never overflows the packed field.
    fn differential(base: u32, seed: u64) {
        for case in 0..48u64 {
            let mut rng = flash_sim::DetRng::new(seed ^ case);
            let capacity = [2, 6, 16, 64][case as usize % 4];
            let span = capacity as u64 * [2, 4, 64][case as usize % 3];
            let mut packed = L2Cache::new(capacity);
            let mut reference = Reference::new(capacity);
            for step in 0..600 {
                let addr = LineAddr(rng.below(span));
                let version = Version(base + rng.below(1000) as u32);
                let ctx = format!("case {case} step {step} {addr:?}");
                match rng.below(16) {
                    0..=3 => {
                        if reference.lookup(addr).is_none() {
                            let exclusive = rng.chance(0.5);
                            assert_eq!(
                                packed.insert(addr, exclusive, version),
                                reference.insert(addr, exclusive, version),
                                "{ctx}"
                            );
                        }
                    }
                    4..=5 => assert_eq!(packed.touch(addr), reference.touch(addr), "{ctx}"),
                    6..=7 => assert_eq!(packed.lookup(addr), reference.lookup(addr), "{ctx}"),
                    8..=9 => assert_eq!(packed.store(addr), reference.store(addr), "{ctx}"),
                    10..=11 => {
                        assert_eq!(packed.invalidate(addr), reference.invalidate(addr), "{ctx}")
                    }
                    12 => assert_eq!(packed.upgrade(addr), reference.regrade(addr, true), "{ctx}"),
                    13 => assert_eq!(
                        packed.downgrade(addr),
                        reference.regrade(addr, false),
                        "{ctx}"
                    ),
                    14 => assert!(packed.iter().eq(reference.iter()), "{ctx}"),
                    _ => {
                        if rng.chance(0.1) {
                            assert_eq!(packed.flush_all(), reference.flush_all(), "{ctx}");
                        }
                    }
                }
                assert_eq!(packed.len(), reference.iter().count(), "{ctx}");
            }
            assert!(packed.iter().eq(reference.iter()), "case {case}");
            assert_eq!(packed.flush_all(), reference.flush_all(), "case {case}");
            assert!(packed.is_empty());
        }
    }

    #[test]
    fn packed_cache_matches_the_option_cache() {
        differential(0, 0x2CAC4E);
    }

    /// Versions with the field's top bits set sit right under the flags:
    /// neither may leak into the other.
    #[test]
    fn versions_near_the_top_of_the_field_keep_their_flags() {
        differential(VERSION_MASK - 1600, 0x70B_F1E1D);
    }

    #[test]
    fn the_largest_packed_version_round_trips() {
        let top = Version(VERSION_MASK);
        let mut c = L2Cache::new(2);
        c.insert(LineAddr(0), false, top);
        c.insert(LineAddr(1), true, Version(VERSION_MASK - 1));
        assert_eq!(c.store(LineAddr(1)), Some(top));
        c.touch(LineAddr(0));
        let lines: Vec<CachedLine> = c.iter().collect();
        assert_eq!(
            lines,
            [
                CachedLine {
                    addr: LineAddr(0),
                    exclusive: false,
                    version: top
                },
                CachedLine {
                    addr: LineAddr(1),
                    exclusive: true,
                    version: top
                },
            ]
        );
        // Line 1 is the LRU way, so it is the victim.
        assert_eq!(
            c.insert(LineAddr(2), false, Version::INITIAL),
            InsertOutcome::EvictedDirty(lines[1])
        );
    }

    #[test]
    #[should_panic(expected = "exceeds the cache's 29-bit version field")]
    fn insert_past_the_packed_width_panics() {
        L2Cache::new(8).insert(LineAddr(1), true, Version(VERSION_MASK + 1));
    }

    #[test]
    #[should_panic(expected = "exceeds the cache's 29-bit version field")]
    fn store_past_the_packed_width_panics() {
        let mut c = L2Cache::new(8);
        c.insert(LineAddr(1), true, Version(VERSION_MASK));
        c.store(LineAddr(1));
    }

    #[test]
    #[should_panic(expected = "32-bit tag")]
    fn line_past_32_bits_panics() {
        L2Cache::new(8).insert(LineAddr(1 << 32), false, Version(0));
    }

    #[test]
    fn iter_visits_all_lines() {
        let mut c = L2Cache::new(8);
        for i in 0..4 {
            c.insert(LineAddr(i), i % 2 == 0, Version(i as u32));
        }
        assert_eq!(c.iter().count(), 4);
    }
}
