//! The incoherence oracle: simulator-side ground truth used by the
//! validation experiments (paper, Section 5.2).
//!
//! The oracle tracks, outside the simulated machine, the latest committed
//! version of every line, and — at fault-injection time — the set of lines
//! that *may* legitimately become incoherent: lines dirty on a failed node,
//! lines in a transitional directory state, and lines whose only valid copy
//! was riding in an in-flight packet. After recovery the validation harness
//! checks that
//!
//! 1. every line the recovery algorithm marked incoherent is in the
//!    may-set (the algorithm "does not mark more lines as incoherent than
//!    necessary"), and
//! 2. every accessible line *not* marked incoherent holds the latest
//!    committed version (no silent data loss or corruption).

use flash_coherence::{LineAddr, Version};
use std::collections::HashSet;

/// The validation oracle. See the module docs.
#[derive(Clone, Debug, Default)]
pub struct Oracle {
    // Latest committed version per line, indexed by line address; lines
    // past the end were never stored. Grows to the highest line stored.
    expected: Vec<Version>,
    may_incoherent: HashSet<LineAddr>,
    snapshotted: bool,
}

impl Oracle {
    /// Creates an oracle with no stores recorded (all lines at
    /// [`Version::INITIAL`]).
    pub fn new() -> Self {
        Oracle::default()
    }

    /// Records a committed store: `line` now has latest version `v`.
    pub fn record_store(&mut self, line: LineAddr, v: Version) {
        let i = line.0 as usize;
        if i >= self.expected.len() {
            self.expected.resize(i + 1, Version::INITIAL);
        }
        self.expected[i] = v;
    }

    /// The latest committed version of a line.
    pub fn expected_version(&self, line: LineAddr) -> Version {
        self.expected
            .get(line.0 as usize)
            .copied()
            .unwrap_or(Version::INITIAL)
    }

    /// Adds a line to the may-become-incoherent set (called while the fault
    /// injector snapshots machine state).
    pub fn allow_incoherent(&mut self, line: LineAddr) {
        self.may_incoherent.insert(line);
    }

    /// Marks the snapshot as taken.
    pub fn finish_snapshot(&mut self) {
        self.snapshotted = true;
    }

    /// Whether a fault-time snapshot was taken.
    pub fn has_snapshot(&self) -> bool {
        self.snapshotted
    }

    /// Whether a line is allowed to be marked incoherent.
    pub fn may_be_incoherent(&self, line: LineAddr) -> bool {
        self.may_incoherent.contains(&line)
    }

    /// Size of the may-set.
    pub fn may_set_len(&self) -> usize {
        self.may_incoherent.len()
    }

    /// Number of lines with at least one committed store (every store
    /// commits a version past [`Version::INITIAL`]).
    pub fn written_lines(&self) -> usize {
        self.expected
            .iter()
            .filter(|&&v| v != Version::INITIAL)
            .count()
    }

    /// Clears the snapshot (for multi-fault experiments that re-snapshot at
    /// a second fault).
    pub fn reset_snapshot(&mut self) {
        self.may_incoherent.clear();
        self.snapshotted = false;
    }
}

/// The outcome of a post-recovery validation check.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ValidationReport {
    /// Lines marked incoherent although the oracle did not allow it
    /// (over-marking — a recovery bug).
    pub overmarked: Vec<LineAddr>,
    /// Accessible, unmarked lines holding a stale or wrong version
    /// (silent data corruption — the worst failure).
    pub corrupted: Vec<LineAddr>,
    /// Stale lines whose sole valid copy is sitting in the fabric's
    /// dropped-packet log and whose directory entry still names the
    /// (former) owner. Not silent corruption: the home never serves
    /// memory while the line looks exclusive, so the next access NAKs
    /// into recovery and the line is then marked incoherent. Runs ending
    /// before any such access land here instead of `corrupted`.
    pub lost_in_transit: Vec<LineAddr>,
    /// Coherence packets the fabric dropped after its drop log filled.
    /// Validation cannot see whether they carried a line's sole copy, so
    /// such a line may show up in `corrupted` or `overmarked` instead of
    /// `lost_in_transit`: a failure is then [`inconclusive`].
    ///
    /// [`inconclusive`]: ValidationReport::inconclusive
    pub unlogged_drops: u64,
    /// Lines checked in total.
    pub lines_checked: u64,
    /// Lines found marked incoherent.
    pub marked_incoherent: u64,
    /// Lines skipped because their home node failed (inaccessible).
    pub inaccessible: u64,
}

impl ValidationReport {
    /// Whether the run validates cleanly.
    pub fn passed(&self) -> bool {
        self.overmarked.is_empty() && self.corrupted.is_empty()
    }

    /// Whether the run failed but the failure may be an artifact of the
    /// full drop log (see [`ValidationReport::unlogged_drops`]). Not a
    /// pass: the failing lines are unexplained either way.
    pub fn inconclusive(&self) -> bool {
        !self.passed() && self.unlogged_drops > 0
    }
}

impl std::fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "checked={} marked_incoherent={} inaccessible={} overmarked={} corrupted={} lost_in_transit={}",
            self.lines_checked,
            self.marked_incoherent,
            self.inaccessible,
            self.overmarked.len(),
            self.corrupted.len(),
            self.lost_in_transit.len(),
        )?;
        if self.unlogged_drops > 0 {
            write!(f, " unlogged_drops={}", self.unlogged_drops)?;
        }
        let verdict = if self.passed() {
            "PASS"
        } else if self.inconclusive() {
            "INCONCLUSIVE"
        } else {
            "FAIL"
        };
        write!(f, " => {verdict}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_latest_versions() {
        let mut o = Oracle::new();
        assert_eq!(o.expected_version(LineAddr(1)), Version::INITIAL);
        o.record_store(LineAddr(1), Version(3));
        o.record_store(LineAddr(1), Version(4));
        assert_eq!(o.expected_version(LineAddr(1)), Version(4));
        assert_eq!(o.written_lines(), 1);
    }

    #[test]
    fn may_set_membership() {
        let mut o = Oracle::new();
        assert!(!o.has_snapshot());
        o.allow_incoherent(LineAddr(9));
        o.finish_snapshot();
        assert!(o.has_snapshot());
        assert!(o.may_be_incoherent(LineAddr(9)));
        assert!(!o.may_be_incoherent(LineAddr(10)));
        assert_eq!(o.may_set_len(), 1);
        o.reset_snapshot();
        assert!(!o.has_snapshot());
        assert_eq!(o.may_set_len(), 0);
    }

    #[test]
    fn report_passes_only_when_clean() {
        let mut r = ValidationReport::default();
        assert!(r.passed());
        r.overmarked.push(LineAddr(1));
        assert!(!r.passed());
        let mut r = ValidationReport::default();
        r.corrupted.push(LineAddr(2));
        assert!(!r.passed());
        assert!(r.to_string().contains("FAIL"));
    }

    #[test]
    fn unlogged_drops_make_a_failure_inconclusive() {
        let mut r = ValidationReport {
            unlogged_drops: 3,
            ..ValidationReport::default()
        };
        assert!(r.passed() && !r.inconclusive(), "nothing to explain");
        assert!(r.to_string().ends_with("unlogged_drops=3 => PASS"), "{r}");
        r.corrupted.push(LineAddr(2));
        assert!(!r.passed() && r.inconclusive());
        assert!(
            r.to_string().ends_with("unlogged_drops=3 => INCONCLUSIVE"),
            "{r}"
        );
        r.unlogged_drops = 0;
        assert!(!r.inconclusive());
        assert!(r.to_string().ends_with("lost_in_transit=0 => FAIL"), "{r}");
    }
}
