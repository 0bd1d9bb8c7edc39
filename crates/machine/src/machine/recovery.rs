//! Recovery-support operations driven by the extension: mode switches and
//! oracle snapshots at recovery initiation, the cache flush of the rebuild
//! phase, router reprogramming and isolation for interconnect recovery, and
//! the post-recovery resume (paper, Sections 4.2 and 4.4–4.6).

use super::{Ev, MachineState};
use crate::node::ProcState;
use crate::workload::{OpResult, ProcOp};
use flash_coherence::{CohMsg, LineAddr, NodeSet};
use flash_magic::{BusError, MagicMode};
use flash_net::{NodeId, RouterId};
use flash_sim::Scheduler;

impl<R: Clone + std::fmt::Debug> MachineState<R> {
    /// Switches a node controller into recovery-drain mode and snapshots its
    /// directory for the oracle's may-become-incoherent set: from this
    /// moment the home issues no new grants, so the set is stable (see
    /// `crate::oracle`).
    pub fn enter_recovery_mode(&mut self, node: NodeId) {
        let prev = self.nodes[node.index()].mode;
        if matches!(prev, MagicMode::Normal) {
            self.nodes[node.index()].mode = MagicMode::RecoveryDrain;
        }
        self.snapshot_home_for_oracle(node);
    }

    /// Extends the oracle's may-become-incoherent set with this home's
    /// currently endangered lines: dirty-remote lines whose owner is failed
    /// or no longer holds the copy (grant or writeback in flight). Called at
    /// every recovery (re)start so restarts triggered by additional faults
    /// account for the newly lost owners. Additive and idempotent.
    pub fn snapshot_home_for_oracle(&mut self, node: NodeId) {
        if !self.nodes[node.index()].is_alive() {
            return;
        }
        let entries: Vec<(LineAddr, NodeId)> = self.nodes[node.index()]
            .dir
            .iter_states()
            .filter_map(|(line, state)| Some((line, state.owner()?)))
            .collect();
        for (line, owner) in entries {
            let owner_failed =
                self.failed_nodes.contains(owner) || !self.nodes[owner.index()].is_alive();
            // A shared-flagged copy does not satisfy the flush (only dirty
            // lines are written back), so an owner holding the line merely
            // shared — an upgrade grant still in flight — counts as lacking.
            let owner_lacks = !self.nodes[owner.index()]
                .cache
                .lookup(line)
                .map(|l| l.exclusive)
                .unwrap_or(false);
            if owner_failed || owner_lacks {
                self.oracle.allow_incoherent(line);
            }
        }
    }

    /// Unstalls the processor for recovery: pending cacheable operations are
    /// NAK'd (to be reissued after recovery); a pending uncached read is
    /// terminated but its result is saved for exactly-once emulation
    /// (paper, Section 4.2).
    pub fn drop_processor_into_recovery(&mut self, node: NodeId) {
        let n = &mut self.nodes[node.index()];
        match n.proc {
            ProcState::Dead => return,
            ProcState::WaitMiss { .. } => {
                // The request will be reissued from `current_op` on resume.
                n.proc = ProcState::InRecovery;
            }
            ProcState::WaitUncached { write, .. } => {
                if !write {
                    n.saved_unc_read = n.uncached.on_recovery_initiation();
                }
                n.proc = ProcState::InRecovery;
            }
            ProcState::Ready | ProcState::Halted => {
                if !matches!(n.proc, ProcState::Halted) {
                    n.proc = ProcState::InRecovery;
                }
            }
            ProcState::InRecovery => {}
        }
        n.naks.reset();
        // Any buffered interventions are moot: recovery flushes all caches
        // and resets the directory state.
        n.pending_remote.clear();
    }

    /// The recovery cache flush (paper, Section 4.5): empties the node's
    /// cache and queues writebacks of all dirty lines to their homes, except
    /// lines homed on nodes marked failed in the node map (those are gone
    /// with their homes). Returns the number of writebacks queued.
    pub fn flush_cache_for_recovery<E>(
        &mut self,
        node: NodeId,
        sched: &mut Scheduler<'_, Ev<E>>,
    ) -> usize {
        let dirty = self.nodes[node.index()].cache.flush_all();
        let mut sent = 0;
        for l in dirty {
            let home = self.layout.home_of(l.addr);
            if self.nodes[node.index()].node_map.is_available(home) {
                let put = CohMsg::Put {
                    line: l.addr,
                    version: l.version,
                    keep_shared: false,
                };
                self.send_coh(node, home, put, sched);
                sent += 1;
            }
        }
        sent
    }

    /// Installs one router's row of a freshly computed routing table (each
    /// node reprograms its own router during interconnect recovery).
    pub fn install_router_row(&mut self, router: RouterId, tables: &flash_net::RoutingTables) {
        let n = self.fabric.num_routers();
        for d in 0..n as u16 {
            let hop = tables.hop(router, RouterId(d));
            self.fabric.tables_mut().set(router, RouterId(d), hop);
        }
    }

    /// The isolation step of interconnect recovery, executed by each live
    /// node for its own router: program table entries toward dead
    /// destinations to discard, and make the local ejection port of any
    /// adjacent dead-controller node sink its traffic.
    pub fn apply_isolation_for(&mut self, node: NodeId, dead: &NodeSet) {
        let router = RouterId(node.0);
        let n = self.fabric.num_routers();
        for d in 0..n as u16 {
            if dead.contains(NodeId(d)) {
                self.fabric
                    .tables_mut()
                    .set(router, RouterId(d), flash_net::Hop::Discard);
            }
        }
        // Neighboring dead-controller nodes (router alive, MAGIC dead or
        // spinning): their ejection port is reprogrammed to discard so the
        // congestion tree can drain.
        let nbrs: Vec<NodeId> = self
            .fabric
            .neighbors(router)
            .iter()
            .map(|nb| NodeId(nb.router.0))
            .collect();
        for nb in nbrs {
            if dead.contains(nb) && self.fabric.router_alive(RouterId(nb.0)) {
                self.fabric.set_node_sink(nb, true);
            }
        }
    }

    /// Resumes normal operation on a node after recovery completes: the
    /// controller returns to normal dispatch and the processor re-executes
    /// its interrupted operation (NAK'd cacheable ops are reissued; a saved
    /// uncached read is emulated from its buffer — paper, Section 4.2).
    /// The machine keeps no OS-recovery interrupt flag: the harness runs
    /// the OS's own pass of Section 4.6 (Hive's `os::os_recover`) itself.
    pub fn resume_after_recovery<E>(&mut self, node: NodeId, sched: &mut Scheduler<'_, Ev<E>>) {
        let i = node.index();
        if !self.nodes[i].is_alive() {
            return;
        }
        let now = sched.now();
        self.nodes[i].mode = MagicMode::Normal;
        if !matches!(self.nodes[i].proc, ProcState::InRecovery) {
            return;
        }
        // Saved uncached read emulation.
        if let Some(tag) = self.nodes[i].saved_unc_read.take() {
            let result = match self.nodes[i].uncached.take_saved(tag) {
                Some(flash_magic::SavedRead::Arrived(v)) => OpResult::Ok(Some(v)),
                _ => OpResult::BusError(BusError::UncachedUnresolved),
            };
            self.finish_op(node.0, now, result);
            sched.immediately(Ev::ProcNext(node.0));
            return;
        }
        match self.nodes[i].current_op {
            Some(ProcOp::UncachedWrite { .. }) => {
                // A pending uncached write's ack was lost in recovery; the
                // write is nonidempotent and must not be retried — treat it
                // as completed (see DESIGN.md).
                self.finish_op(node.0, now, OpResult::Ok(None));
            }
            _ => {
                // Cacheable ops (or none): reissue from current_op.
                self.nodes[i].proc = ProcState::Ready;
            }
        }
        sched.immediately(Ev::ProcNext(node.0));
    }
}
