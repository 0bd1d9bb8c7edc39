//! Coherence-protocol handlers: the home-side directory dispatch and the
//! cache-side completion paths (data grants, NAKs, upgrades, recalls and
//! error replies).

use super::{Ev, MachineState};
use crate::node::{PendingRemote, ProcState};
use crate::workload::OpResult;
use flash_coherence::{CohMsg, LineAddr};
use flash_magic::{costs, BusError, MagicMode, Trigger};
use flash_net::NodeId;
use flash_obs::{Counter, Domain, TraceEvent};
use flash_sim::{Scheduler, SimDuration};

impl<R: Clone + std::fmt::Debug> MachineState<R> {
    /// Services one delivered coherence message on node `n`: home-side
    /// messages go through the directory, cache-side messages complete or
    /// intervene on the local processor's miss.
    pub(super) fn process_coh<E: Clone + std::fmt::Debug>(
        &mut self,
        n: u16,
        from: NodeId,
        msg: CohMsg,
        sched: &mut Scheduler<'_, Ev<E>>,
    ) {
        let st = self;
        let now = sched.now();
        let line = msg.line();
        let home = st.layout.home_of(line);
        let mode = st.nodes[n as usize].mode;

        if msg.to_home() {
            if home.0 != n {
                // Misrouted home message (should not happen).
                st.counters.incr(Counter::MisroutedCoh);
                return;
            }
            match mode {
                MagicMode::Normal => {
                    // Degraded-memory gray fault: accesses into the bad
                    // range cost extra service time, and every fourth one
                    // draws a transient NAK. Only requests are refused —
                    // writebacks and acks always land (refusing a Put would
                    // lose the sole copy of the data).
                    let lpn = st.layout.lines_per_node();
                    let mut degraded_extra = None;
                    if let Some(d) = st.nodes[n as usize].degraded.as_mut() {
                        if line.0 % lpn < d.lines {
                            d.accesses += 1;
                            degraded_extra = Some((d.extra_ns, d.accesses.is_multiple_of(4)));
                        }
                    }
                    if let Some((extra, nak_turn)) = degraded_extra {
                        st.nodes[n as usize]
                            .occupancy
                            .occupy(now, SimDuration::from_nanos(extra));
                        st.counters.incr(Counter::DegradedAccesses);
                        if nak_turn
                            && matches!(
                                msg,
                                CohMsg::Get { .. }
                                    | CohMsg::GetX { .. }
                                    | CohMsg::UpgradeReq { .. }
                            )
                        {
                            st.counters.incr(Counter::DegradedNaks);
                            st.send_coh(NodeId(n), from, CohMsg::Nak { line }, sched);
                            return;
                        }
                    }
                    // Firewall: exclusive fetches need write permission for
                    // the page (adds the ACL-check cost to the handler).
                    if matches!(msg, CohMsg::GetX { .. } | CohMsg::UpgradeReq { .. }) {
                        let fw_cost = if st.nodes[n as usize].firewall.enabled() {
                            costs::FIREWALL_CHECK_NS
                        } else {
                            0
                        };
                        st.nodes[n as usize]
                            .occupancy
                            .occupy(now, SimDuration::from_nanos(costs::GETX_NS + fw_cost));
                        if !st.nodes[n as usize].firewall.may_write(line.page(), from) {
                            st.counters.incr(Counter::FirewallDenials);
                            st.obs.record(
                                Domain::Coherence,
                                now,
                                TraceEvent::CohTransition {
                                    node: n,
                                    line: line.0,
                                    what: "firewall_denied",
                                },
                            );
                            st.send_coh(NodeId(n), from, CohMsg::FirewallErr { line }, sched);
                            return;
                        }
                    } else {
                        let cost = match msg {
                            CohMsg::Get { .. } => costs::GET_NS,
                            CohMsg::Put { .. } => costs::PUT_NS + costs::MEM_ACCESS_NS,
                            CohMsg::InvalAck { .. } => costs::INVAL_ACK_NS,
                            _ => costs::GET_NS,
                        };
                        st.nodes[n as usize]
                            .occupancy
                            .occupy(now, SimDuration::from_nanos(cost));
                    }
                    for (dst, reply) in st.nodes[n as usize].dir.handle(from, msg) {
                        st.send_coh(NodeId(n), dst, reply, sched);
                    }
                }
                MagicMode::RecoveryDrain | MagicMode::Recovery => {
                    // Field the message without generating replies or
                    // invalidations (paper, Section 4.4); writebacks are
                    // absorbed so their data is not lost.
                    st.nodes[n as usize]
                        .occupancy
                        .occupy(now, SimDuration::from_nanos(costs::PUT_NS));
                    if let CohMsg::Put { version, .. } = msg {
                        st.nodes[n as usize].dir.recovery_put(line, version);
                        st.counters.incr(Counter::RecoveryPutsAbsorbed);
                    } else {
                        st.counters.incr(Counter::DrainedRequests);
                    }
                }
                MagicMode::Dead | MagicMode::InfiniteLoop => {
                    st.invariant_failure("coherence message serviced by a dead or looping MAGIC")
                }
            }
            return;
        }

        // Cache-side message: charge the handler, then act on it.
        let cost_ns = match msg {
            CohMsg::Data { .. } => costs::DATA_NS,
            CohMsg::Inval { .. } | CohMsg::Fetch { .. } => costs::INVAL_NS,
            // NAKs, acknowledgments and error replies.
            _ => costs::NAK_NS,
        };
        st.nodes[n as usize]
            .occupancy
            .occupy(now, SimDuration::from_nanos(cost_ns));
        match msg {
            CohMsg::Data {
                line,
                version,
                exclusive,
            } => st.on_data_reply(n, line, version, exclusive, sched),
            CohMsg::Nak { line } => st.on_nak(n, line, sched),
            CohMsg::Inval { line } if mode == MagicMode::Normal => {
                let node = &mut st.nodes[n as usize];
                if node.cache.invalidate(line).is_none() {
                    // Our copy may still be an in-flight grant: buffer the
                    // invalidation so it is honored when the data installs
                    // (otherwise a stale shared copy could linger).
                    if matches!(node.proc, ProcState::WaitMiss { line: l, .. } if l == line) {
                        node.pending_remote.insert(line, PendingRemote::Inval);
                    }
                }
                st.send_coh(NodeId(n), home, CohMsg::InvalAck { line }, sched);
            }
            CohMsg::Fetch { line, for_write } if mode == MagicMode::Normal => {
                let node = &mut st.nodes[n as usize];
                if for_write {
                    if let Some(l) = node.cache.invalidate(line) {
                        // A clean (shared) copy can also answer a recall:
                        // its version equals memory, so the home completes
                        // the recall consistently (this arises when an
                        // upgrade's acknowledgment was lost across a
                        // recovery).
                        let put = CohMsg::Put {
                            line,
                            version: l.version,
                            keep_shared: false,
                        };
                        st.send_coh(NodeId(n), home, put, sched);
                        return;
                    }
                } else if let Some(version) = node.cache.downgrade(line) {
                    let put = CohMsg::Put {
                        line,
                        version,
                        keep_shared: true,
                    };
                    st.send_coh(NodeId(n), home, put, sched);
                    return;
                } else if let Some(l) = node.cache.lookup(line) {
                    // Already shared (downgrade returned None): answer the
                    // read recall from the clean copy we keep.
                    let put = CohMsg::Put {
                        line,
                        version: l.version,
                        keep_shared: true,
                    };
                    st.send_coh(NodeId(n), home, put, sched);
                    return;
                }
                // Absent line: either a voluntary writeback crossed the
                // recall (the home completes the recall from that
                // writeback), or our exclusive grant is still in flight —
                // in that case buffer the recall and honor it at install
                // time, else the home deadlocks in PendingRecall.
                let node = &mut st.nodes[n as usize];
                if matches!(node.proc, ProcState::WaitMiss { line: l, .. } if l == line) {
                    node.pending_remote
                        .insert(line, PendingRemote::Fetch { for_write });
                }
            }
            CohMsg::UpgradeAck { line } => st.on_upgrade_ack(n, line, sched),
            CohMsg::IncoherentErr { line } => {
                st.bus_error_completion(n, line, BusError::Incoherent, sched)
            }
            CohMsg::FirewallErr { line } => {
                st.bus_error_completion(n, line, BusError::FirewallDenied, sched)
            }
            // A writeback ack costs its handler time and nothing more, and
            // a MAGIC in recovery ignores interventions.
            _ => {}
        }
    }

    /// A data reply fills the cache and completes the blocked access.
    fn on_data_reply<E: Clone + std::fmt::Debug>(
        &mut self,
        n: u16,
        line: LineAddr,
        version: flash_coherence::Version,
        exclusive: bool,
        sched: &mut Scheduler<'_, Ev<E>>,
    ) {
        let st = self;
        let home = st.layout.home_of(line);
        let (expecting, write) = match st.nodes[n as usize].proc {
            ProcState::WaitMiss { line: l, write, .. } => (l == line, write),
            _ => (false, false),
        };
        if !expecting || st.nodes[n as usize].mode != MagicMode::Normal {
            st.counters.incr(Counter::StaleDataReplies);
            // The request this reply answers was cancelled (NAK'd at
            // recovery initiation, or bus-errored). An *exclusive* reply
            // carries the only trusted copy — MAGIC returns it to the home
            // as a writeback instead of dropping it, so a false alarm loses
            // no data (paper, §4.1).
            if exclusive {
                let put = CohMsg::Put {
                    line,
                    version,
                    keep_shared: false,
                };
                st.send_coh(NodeId(n), home, put, sched);
            }
            return;
        }
        let node = &mut st.nodes[n as usize];
        // Replace any stale copy, then install.
        node.cache.invalidate(line);
        let evicted = node.cache.insert(line, exclusive, version);
        if let flash_coherence::InsertOutcome::EvictedDirty(victim) = evicted {
            let victim_home = st.layout.home_of(victim.addr);
            // Writebacks to failed homes are dropped (node map check).
            if st.nodes[n as usize].node_map.is_available(victim_home) {
                let put = CohMsg::Put {
                    line: victim.addr,
                    version: victim.version,
                    keep_shared: false,
                };
                st.send_coh(NodeId(n), victim_home, put, sched);
            }
        }
        let speculative = st.nodes[n as usize].current_is_speculative;
        if write && !speculative {
            debug_assert!(exclusive, "store completion requires an exclusive grant");
            let stored = st.nodes[n as usize].cache.store(line);
            let v = st.invariant_some(stored, "data reply: exclusive line must accept the store");
            st.oracle.record_store(line, v);
        }
        // A speculative grant installs exclusive with unmodified data: the
        // processor discarded the wrong-path store, but the node now holds
        // the only trusted copy (Section 3.3's hazard).
        st.counters.add(
            Counter::SpeculativeExclusiveGrants,
            u64::from(write && speculative),
        );
        let now = sched.now();
        st.finish_op(n, now, OpResult::Ok(None));
        let node = &mut st.nodes[n as usize];
        let resume = node.occupancy.busy_until();
        // Honor any intervention that raced with this grant.
        match node.pending_remote.remove(&line) {
            Some(PendingRemote::Inval) if !exclusive => {
                // The ack was already sent when the invalidation arrived. If
                // the grant that just installed is *shared*, the
                // invalidation is for this very copy: drop it (the processor
                // consumed its value, ordered before the writer). If the
                // grant is *exclusive*, the buffered invalidation belongs to
                // an older sharer epoch — the home processed our GetX after
                // that invalidation round — and must be discarded, or it
                // would destroy the freshly committed store.
                node.cache.invalidate(line);
            }
            Some(PendingRemote::Fetch { for_write }) => {
                st.honor_buffered_fetch(n, line, for_write, sched);
            }
            Some(PendingRemote::Inval) | None => {}
        }
        sched.at(resume, Ev::ProcNext(n));
    }

    /// Honors a recall buffered while this node's grant for `line` was in
    /// flight, now that the grant has installed: a write recall returns an
    /// exclusive copy to the home, a read recall downgrades it.
    fn honor_buffered_fetch<E: Clone + std::fmt::Debug>(
        &mut self,
        n: u16,
        line: LineAddr,
        for_write: bool,
        sched: &mut Scheduler<'_, Ev<E>>,
    ) {
        let cache = &mut self.nodes[n as usize].cache;
        let answer = if for_write {
            cache
                .invalidate(line)
                .filter(|l| l.exclusive)
                .map(|l| (l.version, false))
        } else {
            cache.downgrade(line).map(|v| (v, true))
        };
        if let Some((version, keep_shared)) = answer {
            let home = self.layout.home_of(line);
            let put = CohMsg::Put {
                line,
                version,
                keep_shared,
            };
            self.send_coh(NodeId(n), home, put, sched);
        }
    }

    /// A NAK backs the blocked miss off (or overflows into a trigger).
    fn on_nak<E: Clone + std::fmt::Debug>(
        &mut self,
        n: u16,
        line: LineAddr,
        sched: &mut Scheduler<'_, Ev<E>>,
    ) {
        let threshold = self.params.magic.nak_threshold;
        let node = &mut self.nodes[n as usize];
        let epoch = match node.proc {
            ProcState::WaitMiss { line: l, epoch, .. } if l == line => epoch,
            _ => {
                self.counters.incr(Counter::StaleNaks);
                return;
            }
        };
        if node.naks.record_nak(threshold) {
            self.counters.incr(Counter::NakOverflows);
            sched.immediately(Ev::TriggerNow {
                node: n,
                trig: Trigger::NakOverflow { line },
            });
        } else {
            sched.after(
                SimDuration::from_nanos(costs::NAK_RETRY_NS),
                Ev::NakRetry { node: n, epoch },
            );
        }
    }

    /// Completes a blocked store whose held shared copy was upgraded in
    /// place.
    fn on_upgrade_ack<E: Clone + std::fmt::Debug>(
        &mut self,
        n: u16,
        line: LineAddr,
        sched: &mut Scheduler<'_, Ev<E>>,
    ) {
        let st = self;
        let expecting = matches!(
            st.nodes[n as usize].proc,
            ProcState::WaitMiss { line: l, write: true, .. } if l == line
        );
        if !expecting || st.nodes[n as usize].mode != MagicMode::Normal {
            // The upgrade was cancelled (recovery initiation): the home made
            // us the owner, and our clean shared copy is now the only
            // trusted one. Return it as a writeback so no data is ever
            // stranded (mirrors the cancelled exclusive-grant bounce).
            st.counters.incr(Counter::StaleUpgradeAcks);
            let version = st.nodes[n as usize]
                .cache
                .invalidate(line)
                .map(|l| l.version);
            if let Some(version) = version {
                let home = st.layout.home_of(line);
                let put = CohMsg::Put {
                    line,
                    version,
                    keep_shared: false,
                };
                st.send_coh(NodeId(n), home, put, sched);
            }
            return;
        }
        let speculative = st.nodes[n as usize].current_is_speculative;
        match st.nodes[n as usize].cache.upgrade(line) {
            Some(_) => {
                if !speculative {
                    let stored = st.nodes[n as usize].cache.store(line);
                    let v = st.invariant_some(
                        stored,
                        "upgrade ack: line must be exclusive after upgrade",
                    );
                    st.oracle.record_store(line, v);
                }
            }
            None => {
                // Our copy vanished between request and grant (cannot
                // normally happen — the home only acks listed sharers);
                // recover by refetching in full.
                st.counters.incr(Counter::UpgradeAckWithoutCopy);
                let home = st.layout.home_of(line);
                st.send_coh(NodeId(n), home, CohMsg::GetX { line }, sched);
                return;
            }
        }
        let now = sched.now();
        st.finish_op(n, now, OpResult::Ok(None));
        let node = &mut st.nodes[n as usize];
        let resume = node.occupancy.busy_until();
        // Honor an intervention that raced with the upgrade grant: same
        // rules as for exclusive data grants (a buffered Inval is from an
        // older epoch; a buffered Fetch is for our new ownership).
        if let Some(PendingRemote::Fetch { for_write }) = node.pending_remote.remove(&line) {
            st.honor_buffered_fetch(n, line, for_write, sched);
        }
        sched.at(resume, Ev::ProcNext(n));
    }

    /// Completes the blocked access with a bus error (node-map miss,
    /// incoherent line, firewall or range denial).
    fn bus_error_completion<E: Clone + std::fmt::Debug>(
        &mut self,
        n: u16,
        line: LineAddr,
        err: BusError,
        sched: &mut Scheduler<'_, Ev<E>>,
    ) {
        let st = self;
        let node = &st.nodes[n as usize];
        let matches_line = matches!(node.proc, ProcState::WaitMiss { line: l, .. } if l == line);
        if !matches_line {
            st.counters.incr(Counter::StaleErrorReplies);
            return;
        }
        if node.current_is_speculative {
            // Faults on incorrectly speculated references are discarded by
            // the processor (the firewall/error reply did its containment
            // job).
            st.complete_discarded_speculation(n, sched);
            return;
        }
        let now = sched.now();
        st.finish_op(n, now, OpResult::BusError(err));
        st.obs.record(
            Domain::Machine,
            now,
            TraceEvent::BusErrorRaised {
                node: n,
                err: err.kind_str(),
            },
        );
        let resume = st.nodes[n as usize].occupancy.busy_until();
        sched.at(resume, Ev::ProcNext(n));
    }
}
