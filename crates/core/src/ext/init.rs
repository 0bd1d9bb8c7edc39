//! Phases 1 and 2: recovery initiation (ping-wave spread, vicinity
//! exploration, closest-working-neighbor selection) and round-synchronized
//! information dissemination with the `2h` termination bound (paper,
//! Sections 4.3 and 4.4).

use super::{all_live_in, Incarnation, Phase, PingState, RecEv, RecoveryExt, Sched, St, Step};
use crate::msg::RecMsg;
use flash_machine::Ev;
use flash_net::{Lane, LinkProbe, NodeId, RouterId};
use flash_obs::Counter;

impl RecoveryExt {
    // ------------------------------------------------------------------
    // Phase 1: recovery initiation
    // ------------------------------------------------------------------

    /// Starts (or restarts) recovery on `node` under incarnation `inc`.
    pub(super) fn start(&mut self, st: &mut St, node: u16, inc: u32, sched: Sched<'_, '_>) {
        if !st.nodes[node as usize].is_alive() {
            return;
        }
        if inc > self.cur.inc {
            if self.cur.inc >= 1 {
                self.report.restarts += 1;
                st.obs.record(
                    flash_obs::Domain::Recovery,
                    sched.now(),
                    flash_obs::TraceEvent::RecoveryRestart {
                        node,
                        incarnation: inc,
                    },
                );
            }
            self.cur = Incarnation {
                inc,
                ..Incarnation::default()
            };
        }
        self.cur.entries.p1.get_or_insert(sched.now());
        if !self.active {
            self.active = true;
            // A fresh trigger after an earlier *completed* recovery opens a
            // new episode: `phases` and the three episode timestamps always
            // describe the most recent one. (Restarts within an episode
            // keep `active` and only replace the incarnation record above.)
            if self.report.phases.p4_done.is_some() {
                let r = &mut self.report;
                r.phases = crate::PhaseTimes::default();
                r.wave_complete_at = None;
                r.p4_started_at = None;
                r.flush_done_at = None;
            }
            self.report.phases.triggered_at = Some(sched.now());
        }
        st.counters.incr(Counter::RecoveryStarts);
        st.obs.record(
            flash_obs::Domain::Recovery,
            sched.now(),
            flash_obs::TraceEvent::PhaseEnter {
                node,
                phase: 1,
                incarnation: inc,
            },
        );
        self.cur.started.insert(NodeId(node));
        if self.report.wave_complete_at.is_none() && all_live_in(st, &self.cur.started) {
            self.report.wave_complete_at = Some(sched.now());
        }
        st.enter_recovery_mode(NodeId(node));
        st.drop_processor_into_recovery(NodeId(node));
        self.nodes[node as usize].reset_for(inc);
        self.nodes[node as usize].view.set_node_up(NodeId(node));
        self.bump_progress(node, sched);

        // Speculative pings to immediate neighbors before exploration — the
        // ~5x faster trigger wave of Section 4.2.
        if self.cfg.speculative_pings {
            let own_router = RouterId(node);
            let nbrs: Vec<RouterId> = st
                .fabric
                .neighbors(own_router)
                .iter()
                .map(|n| n.router)
                .collect();
            for nbr in nbrs {
                let ping = RecMsg::Ping {
                    inc,
                    reply_route: vec![own_router],
                };
                st.send_recovery(
                    NodeId(node),
                    NodeId(nbr.0),
                    vec![nbr],
                    Lane::Recovery0,
                    ping,
                    sched,
                );
            }
        }

        self.nodes[node as usize].phase = Phase::DropIn;
        sched.after(
            self.cfg.instr(self.cfg.drop_in_instr),
            Ev::Ext(RecEv::StepDone {
                node,
                inc,
                step: Step::DropIn,
            }),
        );
    }

    /// Expands cwn exploration through router `r` (reached via `route`).
    pub(super) fn expand(
        &mut self,
        st: &mut St,
        node: u16,
        r: RouterId,
        route: Vec<RouterId>,
        sched: Sched<'_, '_>,
    ) {
        let nbrs: Vec<(usize, RouterId)> = st
            .fabric
            .neighbors(r)
            .iter()
            .enumerate()
            .map(|(i, n)| (i, n.router))
            .collect();
        let inc = self.nodes[node as usize].inc;
        for (port, s) in nbrs {
            if self.nodes[node as usize].visited.contains(NodeId(s.0)) {
                continue;
            }
            match st.fabric.probe(r, port) {
                LinkProbe::NoSuchLink => {}
                LinkProbe::LinkDead => {
                    // The far side may still be reachable another way; do
                    // not mark it visited.
                    self.nodes[node as usize].view.set_link_down(r, s);
                }
                LinkProbe::RouterDead => {
                    self.nodes[node as usize].visited.insert(NodeId(s.0));
                    self.nodes[node as usize].view.set_link_down(r, s);
                    self.nodes[node as usize].view.set_node_down(NodeId(s.0));
                }
                LinkProbe::Alive => {
                    self.nodes[node as usize].visited.insert(NodeId(s.0));
                    self.nodes[node as usize].view.set_link_up(r, s);
                    let mut ping_route = route.clone();
                    ping_route.push(s);
                    let mut reply_route: Vec<RouterId> = route.iter().rev().copied().collect();
                    reply_route.push(RouterId(node));
                    let ping = RecMsg::Ping { inc, reply_route };
                    st.send_recovery(
                        NodeId(node),
                        NodeId(s.0),
                        ping_route.clone(),
                        Lane::Recovery0,
                        ping,
                        sched,
                    );
                    self.nodes[node as usize].pending_pings.insert(
                        s.0,
                        PingState {
                            route: ping_route,
                            retries: 0,
                        },
                    );
                    sched.after(
                        self.cfg.ping_timeout,
                        Ev::Ext(RecEv::PingDeadline {
                            node,
                            target: s.0,
                            inc,
                        }),
                    );
                }
            }
        }
    }

    pub(super) fn check_explore_done(&mut self, st: &mut St, node: u16, sched: Sched<'_, '_>) {
        if self.nodes[node as usize].phase != Phase::Explore
            || !self.nodes[node as usize].pending_pings.is_empty()
        {
            return;
        }
        // Exploration complete: enter dissemination round 1.
        self.nodes[node as usize].phase = Phase::Dissem;
        self.nodes[node as usize].round = 1;
        self.phase_done(st, node, 1, sched.now());
        self.bump_progress(node, sched);
        self.send_round_exchanges(st, node, sched);
        self.try_advance_round(st, node, sched);
    }

    // ------------------------------------------------------------------
    // Phase 2: information dissemination
    // ------------------------------------------------------------------

    pub(super) fn send_round_exchanges(&mut self, st: &mut St, node: u16, sched: Sched<'_, '_>) {
        let rec = &self.nodes[node as usize];
        let (inc, round, view, hint) = (rec.inc, rec.round, rec.view.clone(), rec.bound);
        let cwn = rec.cwn.clone();
        let own_router = RouterId(node);
        for m in cwn {
            let fwd = self.nodes[node as usize]
                .routes
                .get(&m)
                .cloned()
                .unwrap_or_default();
            // Reply route: reverse the forward route, replacing the final
            // hop with our own router.
            let mut reply_route: Vec<RouterId> = fwd.iter().rev().skip(1).copied().collect();
            reply_route.push(own_router);
            let msg = RecMsg::Exchange {
                inc,
                round,
                view: Box::new(view.clone()),
                hint,
                reply_route,
            };
            self.send(st, node, m, msg, Lane::Recovery1, sched);
        }
    }

    pub(super) fn try_advance_round(&mut self, st: &mut St, node: u16, sched: Sched<'_, '_>) {
        let rec = &self.nodes[node as usize];
        if rec.phase != Phase::Dissem || rec.computing_round {
            return;
        }
        let round = rec.round;
        let cwn = rec.cwn.clone();
        if !cwn.iter().all(|m| rec.inbox.contains_key(&(*m, round))) {
            return;
        }
        // All round-r vectors in hand: merge, then charge the round cost.
        let inc = rec.inc;
        let mut changed = false;
        let mut hint_seen = None;
        for m in &cwn {
            let removed = self.nodes[node as usize].inbox.remove(&(*m, round));
            let Some((v, hint)) = removed else {
                st.invariant_failure("dissemination inbox entry vanished between check and merge");
            };
            if self.nodes[node as usize].view.merge(&v) {
                changed = true;
            }
            if hint_seen.is_none() {
                hint_seen = hint;
            }
        }
        let n = st.num_nodes() as u64;
        let mut cost =
            self.cfg.merge_base_instr + cwn.len() as u64 * self.cfg.merge_per_node_instr * n;
        // Stabilized and no bound yet: compute it (unless a hint arrived and
        // hints are enabled — the deferred-BFT optimization).
        let rec = &mut self.nodes[node as usize];
        if rec.bound.is_none() {
            if let Some(h) = hint_seen.filter(|_| self.cfg.bft_hints) {
                rec.bound = Some(h);
            } else if !changed && round > 1 {
                // View stable for a full round => complete: compute the
                // round bound (2h, or the tighter center-based estimate).
                let graph = st.fabric.design_graph();
                rec.bound = Some(if self.cfg.center_diameter_bound {
                    // Two sweeps + reverse distances + up to 4 candidate
                    // eccentricities + the 2h fallback: ~8 BFS traversals.
                    cost += 8 * self.cfg.bft_per_node_instr * n;
                    rec.view.round_bound_center(graph)
                } else {
                    cost += self.cfg.bft_per_node_instr * n;
                    rec.view.round_bound(graph)
                });
            }
        }
        self.nodes[node as usize].computing_round = true;
        sched.after(
            self.cfg.instr(cost),
            Ev::Ext(RecEv::StepDone {
                node,
                inc,
                step: Step::Round { round },
            }),
        );
    }

    pub(super) fn finish_round(
        &mut self,
        st: &mut St,
        node: u16,
        round: u32,
        sched: Sched<'_, '_>,
    ) {
        let rec = &mut self.nodes[node as usize];
        if rec.phase != Phase::Dissem || rec.round != round {
            return;
        }
        rec.computing_round = false;
        rec.round += 1;
        self.bump_progress(node, sched);
        let rec = &self.nodes[node as usize];
        if let Some(b) = rec.bound {
            if rec.round > b.max(1) {
                self.enter_p3(st, node, sched);
                return;
            }
        }
        self.send_round_exchanges(st, node, sched);
        self.try_advance_round(st, node, sched);
    }
}
