//! The barrier tree: BFT-structured up/down waves over the agreed view,
//! used to synchronize the drain agreement, route installation, cache
//! flush, and directory scan steps (paper, Section 4.4).

use super::{BarState, Phase, RecEv, RecoveryExt, Sched, St, Step};
use crate::msg::{BarrierId, RecMsg};
use flash_machine::Ev;
use flash_net::{Lane, NodeId};
use flash_obs::Counter;

impl RecoveryExt {
    // ------------------------------------------------------------------
    // Barriers
    // ------------------------------------------------------------------

    pub(super) fn join_barrier(
        &mut self,
        st: &mut St,
        node: u16,
        id: BarrierId,
        ok: bool,
        sched: Sched<'_, '_>,
    ) {
        self.nodes[node as usize].phase = Phase::InBarrier(id);
        let bar = self.nodes[node as usize].bar(id);
        if bar.self_joined {
            return;
        }
        bar.self_joined = true;
        bar.ok &= ok;
        self.bump_progress(node, sched);
        self.maybe_send_up(st, node, id, sched);
    }

    pub(super) fn on_bar_up(
        &mut self,
        st: &mut St,
        node: u16,
        from: u16,
        id: BarrierId,
        ok: bool,
        sched: Sched<'_, '_>,
    ) {
        if self.nodes[node as usize].tree.is_none() {
            self.nodes[node as usize].stashed_ups.push((from, id, ok));
            return;
        }
        let bar = self.nodes[node as usize].bar(id);
        bar.ups.insert(NodeId(from));
        bar.ok &= ok;
        self.maybe_send_up(st, node, id, sched);
    }

    pub(super) fn maybe_send_up(
        &mut self,
        st: &mut St,
        node: u16,
        id: BarrierId,
        sched: Sched<'_, '_>,
    ) {
        let rec = &self.nodes[node as usize];
        let Some(tree) = &rec.tree else {
            return;
        };
        let bar = &rec.bars[id as usize];
        let have_all = tree.children[node as usize]
            .iter()
            .all(|&c| bar.ups.contains(c));
        if !bar.self_joined || !have_all || bar.released {
            return;
        }
        let (inc, ok, parent) = (rec.inc, bar.ok, tree.parent[node as usize]);
        if tree.is_root(NodeId(node)) {
            // The flush barrier's root additionally waits for the fabric's
            // coherence lanes to drain — standing in for CrayLink's in-order
            // delivery guarantee that writebacks precede the barrier
            // messages (see DESIGN.md).
            if id == BarrierId::Flush && st.fabric.in_flight_coherence() > 0 {
                sched.after(
                    self.cfg.drain_poll,
                    Ev::Ext(RecEv::RootFlushPoll { node, inc }),
                );
                return;
            }
            self.release_barrier(st, node, id, ok, sched);
        } else if let Some(parent) = parent {
            let msg = RecMsg::BarUp { inc, id, ok };
            self.send(st, node, parent.0, msg, Lane::Recovery1, sched);
        }
    }

    pub(super) fn release_barrier(
        &mut self,
        st: &mut St,
        node: u16,
        id: BarrierId,
        ok: bool,
        sched: Sched<'_, '_>,
    ) {
        // A release that arrives before this node has its tree (before P3)
        // is dropped: P3 starts every barrier fresh.
        let rec = &mut self.nodes[node as usize];
        let Some(tree) = &rec.tree else {
            return;
        };
        let children = tree.children[node as usize].clone();
        let bar = rec.bar(id);
        if bar.released {
            return;
        }
        bar.released = true;
        let inc = rec.inc;
        for c in &children {
            let msg = RecMsg::BarDown { inc, id, ok };
            self.send(st, node, c.0, msg, Lane::Recovery1, sched);
        }
        self.on_barrier_complete(st, node, id, ok, sched);
    }

    pub(super) fn on_bar_down(
        &mut self,
        st: &mut St,
        node: u16,
        id: BarrierId,
        ok: bool,
        sched: Sched<'_, '_>,
    ) {
        self.release_barrier(st, node, id, ok, sched);
    }

    pub(super) fn on_barrier_complete(
        &mut self,
        st: &mut St,
        node: u16,
        id: BarrierId,
        ok: bool,
        sched: Sched<'_, '_>,
    ) {
        st.obs.record(
            flash_obs::Domain::Recovery,
            sched.now(),
            flash_obs::TraceEvent::BarrierRound {
                node,
                barrier: id.label(),
                ok,
            },
        );
        self.bump_progress(node, sched);
        match id {
            BarrierId::Drain1 => {
                // Second vote: still quiet since the first vote?
                let last = st.fabric.last_coherence_delivery(NodeId(node));
                let quiet = self.nodes[node as usize]
                    .vote1_at
                    .map(|v| last <= v)
                    .unwrap_or(false);
                self.join_barrier(st, node, BarrierId::Drain2, quiet, sched);
            }
            BarrierId::Drain2 => {
                if ok {
                    let inc = self.nodes[node as usize].inc;
                    self.nodes[node as usize].phase = Phase::RouteCompute;
                    let n = st.num_nodes() as u64;
                    sched.after(
                        self.cfg.instr(self.cfg.route_per_node_instr * n),
                        Ev::Ext(RecEv::StepDone {
                            node,
                            inc,
                            step: Step::RouteCompute,
                        }),
                    );
                } else {
                    // Stalled traffic was still moving: restart the
                    // agreement (never observed to happen in the paper's
                    // experiments either, but supported).
                    st.counters.incr(Counter::DrainAgreementRestarts);
                    let rec = &mut self.nodes[node as usize];
                    *rec.bar(BarrierId::Drain1) = BarState::default();
                    *rec.bar(BarrierId::Drain2) = BarState::default();
                    self.start_drain_wait(node, sched);
                }
            }
            BarrierId::Routes => self.start_flush(st, node, sched),
            BarrierId::Flush => self.start_scan(st, node, sched),
            BarrierId::Scan => self.complete_recovery(st, node, sched),
        }
    }
}
