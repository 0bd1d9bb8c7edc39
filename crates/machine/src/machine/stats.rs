//! Accounting: the post-recovery validation pass against the oracle
//! (Table 5.3). Event tracing lives in [`flash_obs`]; the recorder is the
//! `obs` field of [`MachineState`].

use super::MachineState;
use crate::oracle::ValidationReport;
use crate::payload::Payload;
use flash_coherence::{DirState, LineAddr, Version};
use flash_net::NodeId;

impl<R: Clone + std::fmt::Debug> MachineState<R> {
    /// Post-recovery validation against the oracle (the check of Table 5.3):
    /// no over-marking, no silent corruption. The machine should be
    /// quiescent (no in-flight coherence traffic); a line's effective data
    /// is the exclusive cached copy if one exists, else the home memory
    /// image.
    pub fn validate(&self) -> ValidationReport {
        // Lines whose only valid copy was lost inside the interconnect
        // (dropped writebacks / exclusive grants) may legitimately be
        // marked incoherent even when they postdate the per-home oracle
        // snapshot.
        let mut lost_in_transit: Vec<LineAddr> = self
            .fabric
            .dropped_packets()
            .iter()
            .filter_map(|pkt| match &pkt.payload {
                Payload::Coh(msg) if msg.carries_sole_copy() => Some(msg.line()),
                _ => None,
            })
            .collect();
        lost_in_transit.sort_unstable();
        let lost = |line: LineAddr| lost_in_transit.binary_search(&line).is_ok();
        // Exclusive (dirty) copies in live caches define a line's effective
        // data. Each copy is one word, its line (a 32-bit cache tag) above
        // its node's id, so an in-place unstable sort orders them by (line,
        // node) and the walk below keeps each line's last copy: the
        // highest-numbered node's copy wins. The copies are counted first
        // so the vector is allocated once.
        let live = || self.nodes.iter().filter(|n| n.is_alive());
        let exclusive = || {
            live().flat_map(|n| {
                let copies = n.cache.iter().filter(|l| l.exclusive);
                copies.map(move |l| l.addr.0 << 16 | u64::from(n.id.0))
            })
        };
        let mut dirty: Vec<u64> = Vec::with_capacity(exclusive().count());
        dirty.extend(exclusive());
        dirty.sort_unstable();
        let mut dirty = dirty
            .into_iter()
            .map(|copy| (LineAddr(copy >> 16), NodeId(copy as u16)))
            .peekable();
        let mut report = ValidationReport {
            unlogged_drops: self.fabric.dropped_unlogged(),
            ..ValidationReport::default()
        };
        for node in &self.nodes {
            if self.failed_nodes.contains(node.id) {
                report.inaccessible += self.layout.lines_per_node();
                continue;
            }
            // Lines ascend across nodes, so one forward walk of `dirty`
            // visits each line's copies in step with the scan.
            let versions = node.dir.iter_versions().map(|(_, mem)| mem);
            for ((line, state), mem) in node.dir.iter_states().zip(versions) {
                report.lines_checked += 1;
                let mut holder = None;
                while let Some(&(l, n)) = dirty.peek() {
                    if l > line {
                        break;
                    }
                    if l == line {
                        holder = Some(n);
                    }
                    dirty.next();
                }
                let copy: Option<Version> = holder.map(|n| {
                    let copy = self.nodes[n.index()].cache.lookup(line);
                    copy.expect("a listed copy is cached").version
                });
                let expected = self.oracle.expected_version(line);
                match state {
                    DirState::Incoherent => {
                        report.marked_incoherent += 1;
                        // The may-set is a fault-time snapshot, so it can
                        // miss lines endangered *after* every snapshot — an
                        // owner whose flush writeback was lost and that was
                        // then shut down cleanly as part of its doomed cell.
                        // Marking is over-marking only if the latest
                        // committed version actually survives somewhere
                        // (home memory or a live cache); data that exists
                        // nowhere is legitimately incoherent.
                        let latest_available = mem == expected
                            || live().any(|n| {
                                n.cache.lookup(line).is_some_and(|l| l.version == expected)
                            });
                        if !self.oracle.may_be_incoherent(line) && !lost(line) && latest_available {
                            report.overmarked.push(line);
                        }
                    }
                    _ => {
                        if copy.unwrap_or(mem) != expected {
                            // A stale line whose sole copy is in the drop
                            // log is detectably lost, not silent: the home
                            // never serves memory while the directory still
                            // names an owner, so the next access NAKs into
                            // recovery and the line gets marked incoherent.
                            // Only directory states that refuse to serve
                            // memory directly qualify — a stale line the
                            // home believes clean is silent corruption
                            // regardless of what the drop log says.
                            // An owner that died holding the sole dirty
                            // copy is the same detectable case: the data is
                            // gone, but the home still names the dead owner
                            // and NAKs the next access into recovery. Only
                            // a machine that halts before that recovery
                            // leaves such entries behind.
                            let owner = state.owner();
                            let owner_dead = owner.is_some_and(|o| {
                                self.failed_nodes.contains(o) || !self.nodes[o.index()].is_alive()
                            });
                            let guarded = owner.is_some();
                            if guarded && (owner_dead || lost(line)) {
                                report.lost_in_transit.push(line);
                            } else {
                                report.corrupted.push(line);
                            }
                        }
                    }
                }
            }
        }
        report
    }
}
