//! Phases 3 and 4: interconnect recovery (isolation, τ-drain two-phase
//! agreement, up*/down* route recomputation) and coherence-protocol
//! recovery (cache flush, directory scan, resume) — paper, Sections 4.5
//! and 4.6.

use super::{all_live_in, Phase, RecEv, RecoveryExt, Sched, St, Step};
use crate::config::{
    uncached_instr, DRAIN_POLL, DRAIN_TAU, FLUSH_PER_LINE_NS, ISOLATE_INSTR, SHUTDOWN_FRACTION,
};
use crate::msg::{BarrierId, RecMsg};
use crate::view::{LinkSet, View};
use flash_coherence::NodeSet;
use flash_machine::{Ev, FaultSpec};
use flash_magic::MagicMode;
use flash_net::{Lane, NodeId, RouterId, RoutingTables, UGraph};
use flash_obs::Counter;

/// The up*/down* tables of one view. They are a function of the
/// view's live links and root alone, and P2 leaves every survivor holding
/// the same view, so the survivors share one computation of the whole
/// n×n matrix instead of each building it to install one row.
#[derive(Clone, Debug)]
pub(super) struct Routes {
    links_up: LinkSet,
    root: NodeId,
    /// The routers with a live link, and the root.
    alive: Vec<bool>,
    tables: RoutingTables,
}

impl Routes {
    /// The tables of `links_up` and `root` over `n` routers: those in
    /// `memo` if it was computed from the same three, else a fresh
    /// computation, which replaces it.
    fn of<'m>(
        memo: &'m mut Option<Routes>,
        n: usize,
        links_up: &LinkSet,
        root: NodeId,
    ) -> &'m Routes {
        if memo
            .as_ref()
            .is_some_and(|m| m.root != root || m.links_up != *links_up || m.alive.len() != n)
        {
            *memo = None;
        }
        memo.get_or_insert_with(|| {
            // Router graph from probed-alive links; a dead node's router
            // still routes traffic.
            let mut g = UGraph::new(n);
            let mut alive = vec![false; n];
            for (a, b) in links_up.iter() {
                g.add_edge(a, b);
                alive[a as usize] = true;
                alive[b as usize] = true;
            }
            alive[root.index()] = true;
            let tables = flash_net::up_down_tables(&g, &alive, RouterId(root.0));
            Routes {
                links_up: links_up.clone(),
                root,
                alive,
                tables,
            }
        })
    }
}

impl RecoveryExt {
    // ------------------------------------------------------------------
    // Phase 3: interconnect recovery
    // ------------------------------------------------------------------

    pub(super) fn enter_p3(&mut self, st: &mut St, node: u16, sched: Sched<'_, '_>) {
        // Echo stashed future-round exchanges before leaving dissemination:
        // a partner with a sparser CWN stabilizes a round later than we do,
        // and its round-(bound+1) exchange may already sit in our inbox.
        // Dropping it would leave that partner waiting forever for a round
        // we never run; its watchdog would then restart the whole episode
        // into the same deterministic deadlock. (Late arrivals after this
        // point are echoed on receipt — see `on_recovery_msg`.)
        {
            let rec = &self.nodes[node as usize];
            let inc = rec.inc;
            let last_round = rec.bound.unwrap_or(0);
            let mut stale: Vec<(u16, u32)> = rec
                .inbox
                .keys()
                .filter(|(_, r)| *r > last_round)
                .copied()
                .collect();
            stale.sort_unstable();
            for (m, r) in stale {
                let rec = &self.nodes[node as usize];
                let fwd = rec.routes.get(&m).cloned().unwrap_or_default();
                let mut reply_route: Vec<RouterId> = fwd.iter().rev().skip(1).copied().collect();
                reply_route.push(RouterId(node));
                let msg = RecMsg::Exchange {
                    inc,
                    round: r,
                    view: Box::new(rec.view.clone()),
                    hint: rec.bound,
                    reply_route,
                };
                self.send(st, node, m, msg, Lane::Recovery1, sched);
            }
        }
        self.phase_done(st, node, 2, sched.now());
        let rec = &self.nodes[node as usize];
        let inc = rec.inc;
        let view = rec.view.clone();

        // Shutdown heuristic against split-brain operation (§4.2): a node
        // that cannot account for a quorum of the machine (unreachable
        // nodes count as lost) halts rather than risk divergent operation.
        let total = st.num_nodes();
        let failed = total - view.live_nodes().len().min(total);
        if (failed as f64) > SHUTDOWN_FRACTION * total as f64 {
            self.report.machine_halted = true;
            self.nodes[node as usize].phase = Phase::Shut;
            st.apply_fault(&FaultSpec::Node(NodeId(node)), sched.now());
            return;
        }

        // Node map update: live nodes minus doomed failure units.
        let effective = self.effective_live(&view);
        st.nodes[node as usize].node_map.reprogram(&effective);

        // Barrier tree for the rest of the algorithm.
        self.nodes[node as usize].tree = Some(view.bft_tree(st.fabric.design_graph()));
        // Process any barrier joins that raced ahead of us.
        let stashed = std::mem::take(&mut self.nodes[node as usize].stashed_ups);
        for (from, id, ok) in stashed {
            self.on_bar_up(st, node, from, id, ok, sched);
        }

        // Isolation: reprogram the local router (and adjacent dead
        // controllers' ejection ports).
        st.apply_isolation_for(NodeId(node), &view.failed_nodes());
        self.nodes[node as usize].phase = Phase::Isolate;
        sched.after(
            uncached_instr(ISOLATE_INSTR),
            Ev::Ext(RecEv::StepDone {
                node,
                inc,
                step: Step::Isolate,
            }),
        );
    }

    /// Live nodes minus failure units that lost a member (those shut down
    /// at the end of recovery and must not be re-used by survivors).
    pub(super) fn effective_live(&self, view: &View) -> NodeSet {
        let mut live = view.live_nodes();
        if let Some(units) = &self.units {
            let failed = view.failed_nodes();
            for unit in units {
                if unit.intersects(&failed) {
                    live.subtract(unit);
                }
            }
        }
        live
    }

    pub(super) fn start_drain_wait(&mut self, node: u16, sched: Sched<'_, '_>) {
        let rec = &mut self.nodes[node as usize];
        rec.phase = Phase::Drain1Wait;
        rec.drain_attempt += 1;
        rec.vote1_at = None;
        let (inc, attempt) = (rec.inc, rec.drain_attempt);
        self.bump_progress(node, sched);
        sched.immediately(Ev::Ext(RecEv::DrainPoll { node, inc, attempt }));
    }

    pub(super) fn drain_poll(
        &mut self,
        st: &mut St,
        node: u16,
        attempt: u32,
        sched: Sched<'_, '_>,
    ) {
        let rec = &self.nodes[node as usize];
        if rec.phase != Phase::Drain1Wait || rec.drain_attempt != attempt {
            return;
        }
        let last = st.fabric.last_coherence_delivery(NodeId(node));
        let quiet = sched.now().since(last) >= DRAIN_TAU;
        if quiet {
            self.nodes[node as usize].vote1_at = Some(sched.now());
            self.join_barrier(st, node, BarrierId::Drain1, true, sched);
        } else {
            let inc = self.nodes[node as usize].inc;
            sched.after(DRAIN_POLL, Ev::Ext(RecEv::DrainPoll { node, inc, attempt }));
        }
    }

    pub(super) fn compute_and_install_routes(
        &mut self,
        st: &mut St,
        node: u16,
        sched: Sched<'_, '_>,
    ) {
        let view = &self.nodes[node as usize].view;
        let Some(root) = view.root() else { return };
        let n = st.fabric.design_graph().len();
        let routes = Routes::of(&mut self.routes, n, &view.links_up, root);
        // Install our own router's row.
        st.install_router_row(RouterId(node), &routes.tables);
        // The root additionally programs routers not owned by any live node
        // (routers of failed nodes that survived the fault).
        if root == NodeId(node) {
            let live = view.live_nodes();
            for r in 0..n as u16 {
                if routes.alive[r as usize] && !live.contains(NodeId(r)) {
                    st.install_router_row(RouterId(r), &routes.tables);
                }
            }
        }
        self.join_barrier(st, node, BarrierId::Routes, true, sched);
    }

    // ------------------------------------------------------------------
    // Phase 4: coherence-protocol recovery
    // ------------------------------------------------------------------

    pub(super) fn start_flush(&mut self, st: &mut St, node: u16, sched: Sched<'_, '_>) {
        self.phase_done(st, node, 3, sched.now());
        self.report.p4_started_at.get_or_insert(sched.now());
        st.nodes[node as usize].mode = MagicMode::Recovery;
        // With HAL-style end-to-end interconnect reliability the flush step
        // is eliminated (paper, Section 6.3); caches stay warm and the
        // directory is pruned during the scan instead.
        let walk_ns = if self.cfg.reliable_interconnect {
            0
        } else {
            let sent = st.flush_cache_for_recovery(NodeId(node), sched);
            self.report.flush_writebacks += sent as u64;
            st.params.l2_lines() as u64 * FLUSH_PER_LINE_NS
        };
        let inc = self.nodes[node as usize].inc;
        self.nodes[node as usize].phase = Phase::FlushWalk;
        self.bump_progress(node, sched);
        sched.after(
            flash_sim::SimDuration::from_nanos(walk_ns),
            Ev::Ext(RecEv::StepDone {
                node,
                inc,
                step: Step::FlushWalk,
            }),
        );
    }

    pub(super) fn flush_join_poll(&mut self, st: &mut St, node: u16, sched: Sched<'_, '_>) {
        if self.nodes[node as usize].phase != Phase::FlushJoin {
            return;
        }
        let outbox_empty = st.nodes[node as usize].outbox[Lane::Request.index()].is_empty();
        if outbox_empty {
            self.join_barrier(st, node, BarrierId::Flush, true, sched);
        } else {
            let inc = self.nodes[node as usize].inc;
            sched.after(DRAIN_POLL, Ev::Ext(RecEv::FlushJoinPoll { node, inc }));
        }
    }

    pub(super) fn start_scan(&mut self, st: &mut St, node: u16, sched: Sched<'_, '_>) {
        self.report.flush_done_at.get_or_insert(sched.now());
        let marked = if self.cfg.reliable_interconnect {
            let failed = self.nodes[node as usize].view.failed_nodes();
            st.nodes[node as usize].dir.scan_and_prune(&failed)
        } else {
            st.nodes[node as usize].dir.scan_and_reset()
        };
        self.report.lines_marked_incoherent += marked.len() as u64;
        st.counters
            .add(Counter::LinesMarkedIncoherent, marked.len() as u64);
        let scan_ns = st.layout.lines_per_node() * flash_magic::costs::DIR_SCAN_PER_LINE_NS;
        let inc = self.nodes[node as usize].inc;
        self.nodes[node as usize].phase = Phase::Scan;
        self.bump_progress(node, sched);
        sched.after(
            flash_sim::SimDuration::from_nanos(scan_ns),
            Ev::Ext(RecEv::StepDone {
                node,
                inc,
                step: Step::Scan,
            }),
        );
    }

    pub(super) fn complete_recovery(&mut self, st: &mut St, node: u16, sched: Sched<'_, '_>) {
        let doomed = !self
            .effective_live(&self.nodes[node as usize].view)
            .contains(NodeId(node));
        if doomed {
            // Clean shutdown of the whole failure unit (Section 3.3). It
            // comes before `phase_done` (it traces nothing), so the phase
            // times count the node as dead, not as an unfinished survivor.
            self.report.nodes_shut_down += 1;
            self.nodes[node as usize].phase = Phase::Shut;
            st.apply_fault(&FaultSpec::Node(NodeId(node)), sched.now());
        }
        self.phase_done(st, node, 4, sched.now());
        if !doomed {
            self.report.nodes_resumed += 1;
            self.nodes[node as usize].phase = Phase::Idle;
            st.resume_after_recovery(NodeId(node), sched);
        }
        if all_live_in(st, &self.cur.done[3]) {
            self.active = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tables a fresh computation returns for `links` and `root`.
    fn fresh(n: usize, links: &LinkSet, root: u16) -> RoutingTables {
        let mut g = UGraph::new(n);
        let mut alive = vec![false; n];
        for (a, b) in links.iter() {
            g.add_edge(a, b);
            alive[a as usize] = true;
            alive[b as usize] = true;
        }
        alive[root as usize] = true;
        flash_net::up_down_tables(&g, &alive, RouterId(root))
    }

    /// Views that differ in one link, or in their root, miss the memo,
    /// and each gets exactly what a fresh computation returns.
    #[test]
    fn route_memo_misses_on_any_other_view() {
        let n = 6;
        let mut ring = LinkSet::new();
        for k in 0..n as u16 {
            let next = (k + 1) % n as u16;
            ring.insert((k.min(next), k.max(next)));
        }
        let mut cut = ring.clone();
        cut.remove(&(2, 3));
        let mut memo = None;
        let mut tables = |links: &LinkSet, root: u16| {
            let got = Routes::of(&mut memo, n, links, NodeId(root)).tables.clone();
            assert_eq!(got, fresh(n, links, root), "{links:?} from {root}");
            got
        };
        let whole = tables(&ring, 0);
        assert_eq!(tables(&ring, 0), whole, "the same view hits");
        let one_link_less = tables(&cut, 0);
        assert_ne!(one_link_less, whole, "one link changes the tables");
        let other_root = tables(&ring, 3);
        assert_ne!(other_root, whole, "the root changes the tables");
        assert_eq!(tables(&ring, 0), whole);
    }
}
