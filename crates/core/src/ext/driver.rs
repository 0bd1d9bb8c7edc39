//! The [`Extension`] impl: routes hardware triggers (Table 4.1), timed
//! recovery events, and incoming recovery messages into the per-node state
//! machines, enforcing incarnation-number freshness throughout.

use super::{Phase, RecEv, RecoveryExt, St, Step};
use crate::config::{PING_RETRIES, PING_TIMEOUT};
use crate::msg::{BarrierId, RecMsg};
use flash_machine::{Ev, Extension};
use flash_magic::{MagicMode, Trigger};
use flash_net::{Lane, NodeId, RouterId, MAX_SOURCE_HOPS};
use flash_obs::Counter;
use flash_sim::Scheduler;

impl Extension for RecoveryExt {
    type Msg = RecMsg;
    type Ev = RecEv;

    fn on_trigger(
        &mut self,
        st: &mut St,
        node: NodeId,
        trig: Trigger,
        sched: &mut Scheduler<'_, Ev<RecEv>>,
    ) {
        if !st.nodes[node.index()].is_alive() {
            return;
        }
        let rec = &self.nodes[node.index()];
        match rec.phase {
            Phase::Idle => {
                st.counters.incr(Counter::RecoveryTriggers);
                // Concurrent independent triggers (many nodes timing out on
                // the same dead home) join the active incarnation; a fresh
                // fault after a completed recovery starts a new one.
                let inc = if self.active {
                    self.cur.inc.max(1)
                } else {
                    self.cur.inc + 1
                };
                self.start(st, node.0, inc, sched);
            }
            Phase::Shut => {}
            _ => {
                // Already recovering: only evidence of a *new* fault
                // restarts the algorithm.
                if matches!(trig, Trigger::TruncatedPacket | Trigger::AssertionFailure) {
                    st.counters.incr(Counter::RecoveryRestartsTrigger);
                    let inc = self.cur.inc.max(rec.inc) + 1;
                    self.start(st, node.0, inc, sched);
                }
            }
        }
    }

    fn on_event(&mut self, st: &mut St, ev: RecEv, sched: &mut Scheduler<'_, Ev<RecEv>>) {
        // Events belonging to a node that has since died are void — a dead
        // controller runs nothing.
        let owner = match &ev {
            RecEv::PingDeadline { node, .. }
            | RecEv::StepDone { node, .. }
            | RecEv::DrainPoll { node, .. }
            | RecEv::FlushJoinPoll { node, .. }
            | RecEv::RootFlushPoll { node, .. }
            | RecEv::Watchdog { node, .. } => *node,
        };
        if !st.nodes[owner as usize].is_alive() {
            return;
        }
        match ev {
            RecEv::StepDone { node, inc, step } => {
                if self.nodes[node as usize].inc != inc {
                    return;
                }
                match step {
                    Step::DropIn => {
                        if self.nodes[node as usize].phase != Phase::DropIn {
                            return;
                        }
                        self.nodes[node as usize].phase = Phase::Explore;
                        self.nodes[node as usize].visited.insert(NodeId(node));
                        self.expand(st, node, RouterId(node), Vec::new(), sched);
                        self.check_explore_done(st, node, sched);
                    }
                    Step::Round { round } => self.finish_round(st, node, round, sched),
                    Step::Isolate => {
                        if self.nodes[node as usize].phase == Phase::Isolate {
                            self.start_drain_wait(node, sched);
                        }
                    }
                    Step::RouteCompute => {
                        if self.nodes[node as usize].phase == Phase::RouteCompute {
                            self.compute_and_install_routes(st, node, sched);
                        }
                    }
                    Step::FlushWalk => {
                        if self.nodes[node as usize].phase == Phase::FlushWalk {
                            self.nodes[node as usize].phase = Phase::FlushJoin;
                            self.flush_join_poll(st, node, sched);
                        }
                    }
                    Step::Scan => {
                        if self.nodes[node as usize].phase == Phase::Scan {
                            // This home's directory is reset: return to
                            // normal dispatch now, so requests from nodes
                            // released earlier by the final barrier are
                            // serviced rather than silently drained.
                            st.nodes[node as usize].mode = MagicMode::Normal;
                            self.join_barrier(st, node, BarrierId::Scan, true, sched);
                        }
                    }
                }
            }
            RecEv::PingDeadline { node, target, inc } => {
                if self.nodes[node as usize].inc != inc {
                    return;
                }
                let Some(ping) = self.nodes[node as usize]
                    .pending_pings
                    .get(&target)
                    .cloned()
                else {
                    return;
                };
                if ping.retries < PING_RETRIES {
                    // Retry.
                    let route = ping.route.clone();
                    match self.nodes[node as usize].pending_pings.get_mut(&target) {
                        Some(p) => p.retries += 1,
                        None => st.invariant_failure(
                            "ping retry state vanished between check and update",
                        ),
                    }
                    let mut reply_route: Vec<RouterId> =
                        route.iter().rev().skip(1).copied().collect();
                    reply_route.push(RouterId(node));
                    let msg = RecMsg::Ping { inc, reply_route };
                    st.send_recovery(
                        NodeId(node),
                        NodeId(target),
                        route,
                        Lane::Recovery0,
                        msg,
                        sched,
                    );
                    sched.after(
                        PING_TIMEOUT,
                        Ev::Ext(RecEv::PingDeadline { node, target, inc }),
                    );
                } else {
                    // Declared failed: explore through its router.
                    let removed = self.nodes[node as usize].pending_pings.remove(&target);
                    let Some(ping) = removed else {
                        st.invariant_failure("ping state vanished before failure declaration");
                    };
                    self.nodes[node as usize].view.set_node_down(NodeId(target));
                    if ping.route.len() < MAX_SOURCE_HOPS {
                        self.expand(st, node, RouterId(target), ping.route, sched);
                    }
                    self.check_explore_done(st, node, sched);
                }
            }
            RecEv::DrainPoll { node, inc, attempt } => {
                if self.nodes[node as usize].inc == inc {
                    self.drain_poll(st, node, attempt, sched);
                }
            }
            RecEv::FlushJoinPoll { node, inc } => {
                if self.nodes[node as usize].inc == inc {
                    self.flush_join_poll(st, node, sched);
                }
            }
            RecEv::RootFlushPoll { node, inc } => {
                if self.nodes[node as usize].inc == inc {
                    self.maybe_send_up(st, node, BarrierId::Flush, sched);
                }
            }
            RecEv::Watchdog { node, inc, stamp } => {
                let rec = &self.nodes[node as usize];
                if rec.inc != inc || rec.progress != stamp {
                    return;
                }
                if matches!(rec.phase, Phase::Idle | Phase::Shut) {
                    return;
                }
                // No progress for a whole watchdog period: treat as an
                // additional failure and restart.
                st.counters.incr(Counter::RecoveryWatchdogRestarts);
                let new_inc = self.cur.inc.max(inc) + 1;
                self.start(st, node, new_inc, sched);
            }
        }
    }

    fn on_recovery_msg(
        &mut self,
        st: &mut St,
        at: NodeId,
        from: NodeId,
        msg: RecMsg,
        sched: &mut Scheduler<'_, Ev<RecEv>>,
    ) {
        if !st.nodes[at.index()].is_alive() {
            return;
        }
        let my_inc = self.nodes[at.index()].inc;
        let msg_inc = msg.inc();
        // Adopt newer incarnations; drop stale ones (except pings, which get
        // a reply telling the sender our newer incarnation).
        let idle_join = self.nodes[at.index()].phase == Phase::Idle && msg_inc > 0 && self.active;
        if (msg_inc > my_inc || idle_join) && !matches!(self.nodes[at.index()].phase, Phase::Shut) {
            self.start(st, at.0, msg_inc.max(my_inc), sched);
        }
        let my_inc = self.nodes[at.index()].inc;
        match msg {
            RecMsg::Ping { inc, reply_route } => {
                let reply = RecMsg::PingReply {
                    inc: my_inc.max(inc),
                };
                st.send_recovery(at, from, reply_route, Lane::Recovery0, reply, sched);
            }
            RecMsg::PingReply { inc } => {
                if inc > my_inc {
                    self.start(st, at.0, inc, sched);
                    return;
                }
                if inc < my_inc {
                    return;
                }
                let rec = &mut self.nodes[at.index()];
                rec.view.set_node_up(from);
                if let Some(p) = rec.pending_pings.remove(&from.0) {
                    rec.routes.insert(from.0, p.route);
                    if !rec.cwn.contains(&from.0) {
                        rec.cwn.push(from.0);
                    }
                    self.check_explore_done(st, at.0, sched);
                } else if st
                    .fabric
                    .neighbors(RouterId(at.0))
                    .iter()
                    .any(|n| n.router.0 == from.0)
                {
                    // Reply to a speculative ping from a direct neighbor.
                    let rec = &mut self.nodes[at.index()];
                    rec.routes
                        .entry(from.0)
                        .or_insert_with(|| vec![RouterId(from.0)]);
                }
            }
            RecMsg::Exchange {
                inc,
                round,
                view,
                hint,
                reply_route,
            } => {
                if inc != my_inc {
                    return;
                }
                // A node that already finished its dissemination rounds
                // echoes its final (stable) view and round bound: a
                // neighbor with a sparser CWN stabilizes a round later
                // than we do, and without the echo it would wait forever
                // for a round we will never send (its watchdog would then
                // restart the whole episode, deterministically hitting
                // the same deadlock).
                let done_dissem = !matches!(
                    self.nodes[at.index()].phase,
                    Phase::DropIn | Phase::Explore | Phase::Dissem | Phase::Shut
                );
                if done_dissem {
                    let rec = &self.nodes[at.index()];
                    let mut echo_route: Vec<RouterId> =
                        reply_route.iter().rev().skip(1).copied().collect();
                    echo_route.push(RouterId(at.0));
                    let echo = RecMsg::Exchange {
                        inc,
                        round,
                        view: Box::new(rec.view.clone()),
                        hint: rec.bound,
                        reply_route: echo_route,
                    };
                    st.send_recovery(at, from, reply_route, Lane::Recovery1, echo, sched);
                    return;
                }
                let rec = &mut self.nodes[at.index()];
                // An exchange partner we did not discover ourselves (cwn
                // asymmetry): adopt it.
                if !rec.cwn.contains(&from.0) {
                    rec.cwn.push(from.0);
                    rec.routes.insert(from.0, reply_route);
                }
                rec.inbox.insert((from.0, round), (*view, hint));
                self.try_advance_round(st, at.0, sched);
            }
            RecMsg::BarUp { inc, id, ok } => {
                if inc == my_inc {
                    self.on_bar_up(st, at.0, from.0, id, ok, sched);
                }
            }
            RecMsg::BarDown { inc, id, ok } => {
                if inc == my_inc {
                    self.on_bar_down(st, at.0, id, ok, sched);
                }
            }
        }
    }

    fn unnoticed_failure(&self, st: &St, node: NodeId) -> bool {
        // A failure is accounted for once some live node's failure view
        // marks the victim down — the explore phase's ping timeout records
        // exactly that, and views persist after recovery completes until
        // the node joins a new incarnation. A new episode does not always
        // re-discover a still-dead victim: one behind dead routers or links
        // is never pinged, stays unknown in every view, and so still counts
        // as unnoticed after that episode completes.
        !st.nodes
            .iter()
            .any(|n| n.is_alive() && self.nodes[n.id.index()].view.node_down.contains(node))
    }
}
