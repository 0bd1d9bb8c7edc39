//! Phases 3 and 4: interconnect recovery (isolation, τ-drain two-phase
//! agreement, up*/down* route recomputation) and coherence-protocol
//! recovery (cache flush, directory scan, resume) — paper, Sections 4.5
//! and 4.6.

use super::{all_live_in, Phase, RecEv, RecoveryExt, Sched, St, Step};
use crate::msg::{BarrierId, RecMsg};
use crate::view::View;
use flash_coherence::NodeSet;
use flash_machine::{Ev, FaultSpec};
use flash_magic::MagicMode;
use flash_net::{Lane, NodeId, RouterId, UGraph};
use flash_obs::Counter;

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
        if (failed as f64) > self.cfg.shutdown_fraction * total as f64 {
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
            self.cfg.instr(self.cfg.isolate_instr),
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
        let quiet = sched.now().since(last) >= self.cfg.drain_tau;
        if quiet {
            self.nodes[node as usize].vote1_at = Some(sched.now());
            self.join_barrier(st, node, BarrierId::Drain1, true, sched);
        } else {
            let inc = self.nodes[node as usize].inc;
            sched.after(
                self.cfg.drain_poll,
                Ev::Ext(RecEv::DrainPoll { node, inc, attempt }),
            );
        }
    }

    pub(super) fn compute_and_install_routes(
        &mut self,
        st: &mut St,
        node: u16,
        sched: Sched<'_, '_>,
    ) {
        let view = self.nodes[node as usize].view.clone();
        // Router graph from probed-alive links; a dead node's router still
        // routes traffic.
        let n = st.fabric.design_graph().len();
        let mut g = UGraph::new(n);
        let mut alive = vec![false; n];
        for (a, b) in view.links_up.iter() {
            g.add_edge(a, b);
            alive[a as usize] = true;
            alive[b as usize] = true;
        }
        let Some(root) = view.root() else { return };
        alive[root.index()] = true;
        let tables = flash_net::up_down_tables(&g, &alive, RouterId(root.0));
        // Install our own router's row.
        st.install_router_row(RouterId(node), &tables);
        // The root additionally programs routers not owned by any live node
        // (routers of failed nodes that survived the fault).
        if view.root() == Some(NodeId(node)) {
            for r in 0..n as u16 {
                if alive[r as usize] && !view.live_nodes().contains(NodeId(r)) {
                    st.install_router_row(RouterId(r), &tables);
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
            st.params.l2_lines() as u64 * self.cfg.flush_per_line_ns
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
            sched.after(
                self.cfg.drain_poll,
                Ev::Ext(RecEv::FlushJoinPoll { node, inc }),
            );
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
        let scan_ns = st.layout.lines_per_node() * st.params.magic.costs.dir_scan_per_line_ns;
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
