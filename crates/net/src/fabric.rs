//! The interconnect fabric: routers, virtual-lane queues, flow control and
//! failure behaviour.
//!
//! The fabric is an event-driven model of a CrayLink-style network:
//!
//! * **Store-and-forward with reservation** — a packet moves from the head
//!   of one queue to the next only after reserving space downstream, so a
//!   full queue exerts backpressure upstream. A node controller that stops
//!   accepting packets (the "infinite loop" fault) therefore congests the
//!   network exactly as described in Section 3.1 of the paper.
//! * **Virtual lanes** — four lanes with separate queues: coherence requests
//!   and replies plus two lanes dedicated to recovery traffic, so recovery
//!   messages are never stuck behind backed-up coherence traffic.
//! * **Reliability in normal operation** — no packet is ever lost or
//!   corrupted while all components function.
//! * **Failure semantics** — failed links are black holes that silently sink
//!   traffic; a packet caught mid-link at failure time is delivered
//!   *truncated* (header intact, data flits lost); failed routers sink all
//!   buffered and arriving packets; failed (dead) nodes discard deliveries.
//! * **Source routing with stall-discard** — source-routed packets whose
//!   head-of-queue wait exceeds a bound are discarded by the router,
//!   guaranteeing that the recovery lanes cannot clog (Section 4.1).

use crate::graph::UGraph;
use crate::ids::{Lane, LinkId, NodeId, RouterId};
use crate::packet::{Packet, Route};
use crate::routing::{Hop, RoutingTables};
use crate::topology::Topology;
use flash_obs::{Counter, Counters, Domain, Hist, Recorder, TraceEvent};
use flash_sim::{DetRng, SimDuration, SimTime};
use std::collections::VecDeque;

/// How many dropped coherence-lane packets the fabric keeps for the
/// validation oracle; later drops are only counted. Small in this crate's
/// own tests, so they can fill it.
const DROP_LOG_CAP: usize = if cfg!(test) { 4 } else { 1_000_000 };

/// Timing and sizing parameters of the interconnect.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NetParams {
    /// Fixed per-hop router latency, ns.
    pub hop_latency_ns: u64,
    /// Serialization time per 16-byte flit, ns.
    pub flit_ns: u64,
    /// Node-to-router injection latency, ns.
    pub inject_ns: u64,
    /// Polling interval for blocked queue heads, ns.
    pub retry_ns: u64,
    /// Stall bound after which a blocked *source-routed* head packet is
    /// discarded by the router.
    pub stall_timeout_ns: u64,
    /// Capacity of each router output queue, in flits.
    pub out_queue_flits: u32,
    /// Capacity of each node input (ejection) queue, in flits.
    pub node_in_flits: u32,
    /// Capacity of each node output (injection) queue, in flits.
    pub node_out_flits: u32,
}

impl Default for NetParams {
    fn default() -> Self {
        NetParams {
            hop_latency_ns: 40,
            flit_ns: 10,
            inject_ns: 10,
            retry_ns: 100,
            stall_timeout_ns: 4_000,
            out_queue_flits: 64,
            node_in_flits: 256,
            node_out_flits: 64,
        }
    }
}

/// Events internal to the fabric; the embedding machine wraps these in its
/// global event type and feeds them back into [`Fabric::handle`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetEv {
    /// Attempt to move the head packet of a queue.
    TryMove(QueueRef, Lane),
    /// A transit (link crossing or injection) completed.
    Arrived(QueueRef, Lane),
}

/// Identifies one packet queue in the fabric: an opaque index into its
/// queue table. Node `i`'s injection queue is index `i`; each router's
/// output ports follow, router by router, in adjacency order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueueRef(u32);

impl QueueRef {
    #[inline]
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// Where a queue sits: the router buffering it, the router a packet
/// leaving it lands on, and the link it crosses (`None` for a node's
/// injection queue, which its own router buffers and lands on).
#[derive(Clone, Copy, Debug)]
struct Wire {
    at: RouterId,
    to: RouterId,
    link: Option<LinkId>,
}

/// Notification that a packet has been placed into a node's input queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeliveryNote {
    /// Receiving node.
    pub node: NodeId,
    /// Lane the packet arrived on.
    pub lane: Lane,
}

/// Result of a link-level probe issued during recovery initiation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkProbe {
    /// Link and far-end router both respond.
    Alive,
    /// The link itself is dead (no response at the physical layer).
    LinkDead,
    /// The link responds but the far-end router is dead.
    RouterDead,
    /// No such neighbor.
    NoSuchLink,
}

/// Error returned when a packet cannot be accepted for injection.
#[derive(Debug, PartialEq, Eq)]
pub enum SendError<P> {
    /// The node's injection queue is full; the packet is handed back so the
    /// caller can retry later (node controllers stall in this case).
    Full(Packet<P>),
}

impl<P> std::fmt::Display for SendError<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendError::Full(p) => write!(f, "injection queue full for a packet to {}", p.dst),
        }
    }
}

impl<P: std::fmt::Debug> std::error::Error for SendError<P> {}

/// Where a transiting packet will be placed on arrival.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Target {
    /// Into a node's input queue.
    Node(NodeId),
    /// Into a router output queue.
    Queue(QueueRef),
    /// Dropped (counted under the given reason).
    Sink(Counter),
}

/// A neighbor entry in a router's adjacency list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Nbr {
    /// The neighboring router.
    pub router: RouterId,
    /// The connecting link.
    pub link: LinkId,
}

#[derive(Clone, Debug)]
struct Transit {
    send_time: SimTime,
    target: Target,
}

#[derive(Clone, Debug)]
struct OutQueue<P> {
    q: VecDeque<Packet<P>>,
    flits: u32,
    reserved: u32,
    in_transit: Option<Transit>,
    head_since: SimTime,
}

impl<P> OutQueue<P> {
    fn new() -> Self {
        OutQueue {
            q: VecDeque::new(),
            flits: 0,
            reserved: 0,
            in_transit: None,
            head_since: SimTime::ZERO,
        }
    }

    fn has_space(&self, flits: u32, cap: u32) -> bool {
        self.flits + self.reserved + flits <= cap
    }
}

#[derive(Clone, Debug)]
struct InQueue<P> {
    q: VecDeque<Packet<P>>,
    flits: u32,
    reserved: u32,
    sink: bool,
}

impl<P> InQueue<P> {
    fn new() -> Self {
        InQueue {
            q: VecDeque::new(),
            flits: 0,
            reserved: 0,
            sink: false,
        }
    }
}

/// The interconnect fabric. See the module documentation for the model.
///
/// The fabric does not own an event loop; the embedding machine forwards
/// [`NetEv`]s into [`Fabric::handle`] and schedules the `(delay, NetEv)`
/// pairs the fabric pushes into its `out` argument.
///
/// Cloning a `Fabric` (for checkpoint/fork) deep-copies every queue and
/// all failure state, so a clone evolves identically to the original
/// under the same event sequence.
#[derive(Clone, Debug)]
pub struct Fabric<P> {
    params: NetParams,
    adj: Vec<Vec<Nbr>>,
    link_failed: Vec<Option<SimTime>>,
    // Gray-failure state: per-link drop probability in parts per million
    // (0 = reliable), and the dedicated deterministic RNG that decides
    // per-packet drops. The RNG is consulted only when a crossing is over a
    // lossy link, so fault-free runs draw nothing from it.
    link_loss_ppm: Vec<u32>,
    loss_rng: DetRng,
    router_failed: Vec<Option<SimTime>>,
    tables: RoutingTables,
    // Every injection and router output queue, indexed by `QueueRef`, with
    // each queue's wiring; `first_port[r]` is router `r`'s first port.
    queues: Vec<[OutQueue<P>; Lane::COUNT]>,
    wires: Vec<Wire>,
    first_port: Vec<u32>,
    node_in: Vec<[InQueue<P>; Lane::COUNT]>,
    in_flight_coherence: u64,
    last_coherence_delivery: Vec<SimTime>,
    counters: Counters,
    graph: UGraph,
    dropped: Vec<Packet<P>>,
    dropped_unlogged: u64,
}

impl<P: std::fmt::Debug> Fabric<P> {
    /// Builds a fabric over `topo` with the topology's initial routing
    /// tables installed.
    pub fn new(topo: &dyn Topology, params: NetParams) -> Self {
        let n_routers = topo.num_routers();
        let n_nodes = topo.num_nodes();
        let links = topo.links();
        let mut adj: Vec<Vec<Nbr>> = vec![Vec::new(); n_routers];
        for (i, l) in links.iter().enumerate() {
            adj[l.a.index()].push(Nbr {
                router: l.b,
                link: LinkId(i as u32),
            });
            adj[l.b.index()].push(Nbr {
                router: l.a,
                link: LinkId(i as u32),
            });
        }
        for list in &mut adj {
            list.sort_by_key(|n| n.router);
        }
        let mut wires: Vec<Wire> = (0..n_nodes as u16)
            .map(|i| Wire {
                at: RouterId(i),
                to: RouterId(i),
                link: None,
            })
            .collect();
        let mut first_port = Vec::with_capacity(n_routers);
        for (r, nbrs) in adj.iter().enumerate() {
            first_port.push(wires.len() as u32);
            wires.extend(nbrs.iter().map(|n| Wire {
                at: RouterId(r as u16),
                to: n.router,
                link: Some(n.link),
            }));
        }
        let graph = UGraph::from_edges(n_routers, links.iter().map(|l| (l.a.0, l.b.0)));
        Fabric {
            params,
            adj,
            link_failed: vec![None; links.len()],
            link_loss_ppm: vec![0; links.len()],
            loss_rng: DetRng::new(0xF055_11AE),
            router_failed: vec![None; n_routers],
            tables: topo.initial_tables(),
            queues: wires
                .iter()
                .map(|_| std::array::from_fn(|_| OutQueue::new()))
                .collect(),
            wires,
            first_port,
            node_in: (0..n_nodes)
                .map(|_| std::array::from_fn(|_| InQueue::new()))
                .collect(),
            in_flight_coherence: 0,
            last_coherence_delivery: vec![SimTime::ZERO; n_nodes],
            counters: Counters::new(),
            graph,
            dropped: Vec::new(),
            dropped_unlogged: 0,
        }
    }

    /// The network parameters.
    pub fn params(&self) -> &NetParams {
        &self.params
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.node_in.len()
    }

    /// Number of routers.
    pub fn num_routers(&self) -> usize {
        self.adj.len()
    }

    /// The full (design-time) connectivity graph, failures ignored.
    pub fn design_graph(&self) -> &UGraph {
        &self.graph
    }

    /// The neighbor list of a router (ports in ascending neighbor order).
    pub fn neighbors(&self, r: RouterId) -> &[Nbr] {
        &self.adj[r.index()]
    }

    /// Injects a packet.
    ///
    /// # Errors
    ///
    /// Returns [`SendError::Full`] (handing the packet back) if the node's
    /// injection queue has no space; the caller should retry later.
    pub fn try_send(
        &mut self,
        node: NodeId,
        pkt: Packet<P>,
        now: SimTime,
        out: &mut Vec<(SimDuration, NetEv)>,
        obs: &mut Recorder,
    ) -> Result<(), SendError<P>> {
        let (lane, inj) = (pkt.lane, QueueRef(u32::from(node.0)));
        let q = &self.queues[inj.index()][lane.index()];
        if !q.has_space(pkt.flits, self.params.node_out_flits) {
            self.counters.incr(Counter::InjectFull);
            return Err(SendError::Full(pkt));
        }
        if lane.is_coherence() {
            self.in_flight_coherence += 1;
        }
        self.counters.incr(Counter::PacketsSent);
        obs.record(
            Domain::Net,
            now,
            TraceEvent::PacketSent {
                src: node.0,
                dst: pkt.dst.0,
                lane: lane.index() as u8,
                flits: pkt.flits,
            },
        );
        self.enqueue(inj, pkt, now, out);
        Ok(())
    }

    /// Handles one fabric event, pushing follow-up events into `out` and
    /// node-delivery notifications into `delivered`.
    pub fn handle(
        &mut self,
        ev: NetEv,
        now: SimTime,
        out: &mut Vec<(SimDuration, NetEv)>,
        delivered: &mut Vec<DeliveryNote>,
        obs: &mut Recorder,
    ) {
        match ev {
            NetEv::TryMove(qr, lane) => self.try_move(qr, lane, now, out, obs),
            NetEv::Arrived(qr, lane) => self.arrived(qr, lane, now, out, delivered, obs),
        }
    }

    /// Pops the next input packet for a node on the given lane, freeing
    /// ejection-queue space. Returns `None` when the queue is empty.
    pub fn pop_input(&mut self, node: NodeId, lane: Lane) -> Option<Packet<P>> {
        let q = &mut self.node_in[node.index()][lane.index()];
        let pkt = q.q.pop_front()?;
        q.flits -= pkt.flits;
        Some(pkt)
    }

    /// Number of packets waiting in a node's input queue on `lane`.
    pub fn input_len(&self, node: NodeId, lane: Lane) -> usize {
        self.node_in[node.index()][lane.index()].q.len()
    }

    /// Pops the next input packet in `prio` order (one pass over the node's
    /// lanes), also reporting whether any input remains afterwards on *any*
    /// lane. Equivalent to a [`Fabric::pop_input`] scan followed by
    /// [`Fabric::input_len`] checks, in a single walk of the lane array.
    pub fn pop_input_prio(&mut self, node: NodeId, prio: &[Lane]) -> (Option<Packet<P>>, bool) {
        let lanes = &mut self.node_in[node.index()];
        let mut pkt = None;
        for &lane in prio {
            let q = &mut lanes[lane.index()];
            if let Some(p) = q.q.pop_front() {
                q.flits -= p.flits;
                pkt = Some(p);
                break;
            }
        }
        let more = lanes.iter().any(|q| !q.q.is_empty());
        (pkt, more)
    }

    /// Marks the link between two routers failed (black hole). Returns
    /// `false` if the routers are not adjacent.
    pub fn fail_link_between(&mut self, a: RouterId, b: RouterId, now: SimTime) -> bool {
        let Some(l) = self.link_between(a, b) else {
            return false;
        };
        self.link_failed[l.index()].get_or_insert(now);
        true
    }

    /// Marks the link between two adjacent routers *lossy* (gray failure):
    /// each packet that crosses it is dropped with probability `drop_ppm`
    /// per million, decided by the fabric's deterministic loss RNG.
    /// `drop_ppm == 0` restores reliability. Returns `false` if the routers
    /// are not adjacent.
    pub fn set_link_loss_between(&mut self, a: RouterId, b: RouterId, drop_ppm: u32) -> bool {
        let Some(l) = self.link_between(a, b) else {
            return false;
        };
        self.link_loss_ppm[l.index()] = drop_ppm;
        true
    }

    /// The armed loss rate (ppm) of the link between two routers; 0 for
    /// reliable links and non-adjacent pairs.
    pub fn link_loss_between(&self, a: RouterId, b: RouterId) -> u32 {
        self.link_between(a, b)
            .map_or(0, |l| self.link_loss_ppm[l.index()])
    }

    /// Seeds the deterministic RNG that decides per-packet drops on lossy
    /// links. The stream is part of checkpoint/fork state (the fabric is
    /// cloned wholesale), so forked runs replay drops bit-identically.
    pub fn seed_loss_rng(&mut self, rng: DetRng) {
        self.loss_rng = rng;
    }

    /// Marks a router failed: buffered and arriving packets are sunk.
    pub fn fail_router(&mut self, r: RouterId, now: SimTime) {
        self.router_failed[r.index()].get_or_insert(now);
    }

    /// Marks a node dead (`sink == true`): packets delivered to it are
    /// discarded, modeling "packets sent to the failed node are discarded".
    /// Already-queued input is dropped.
    pub fn set_node_sink(&mut self, node: NodeId, sink: bool) {
        for lane in Lane::ALL {
            let q = &mut self.node_in[node.index()][lane.index()];
            q.sink = sink;
            if sink {
                q.q.clear();
                q.flits = 0;
            }
        }
    }

    /// Whether a router is alive (ground truth; used by probes, the fault
    /// injector and the oracle — never consulted directly by the distributed
    /// recovery algorithm).
    pub fn router_alive(&self, r: RouterId) -> bool {
        self.router_failed[r.index()].is_none()
    }

    /// Whether the link between two adjacent routers is alive. Returns
    /// `false` for non-adjacent pairs.
    pub fn link_alive_between(&self, a: RouterId, b: RouterId) -> bool {
        self.link_between(a, b)
            .is_some_and(|l| self.link_failed[l.index()].is_none())
    }

    /// Link-level probe from `from` across its `nbr`-th port: the physical
    /// interrogation used during recovery initiation (the *time* cost of the
    /// probe is charged by the caller).
    pub fn probe(&self, from: RouterId, nbr: usize) -> LinkProbe {
        let Some(n) = self.adj[from.index()].get(nbr) else {
            return LinkProbe::NoSuchLink;
        };
        if self.link_failed[n.link.index()].is_some() {
            LinkProbe::LinkDead
        } else if self.router_failed[n.router.index()].is_some() {
            LinkProbe::RouterDead
        } else {
            LinkProbe::Alive
        }
    }

    /// Read access to the installed routing tables.
    pub fn tables(&self) -> &RoutingTables {
        &self.tables
    }

    /// Mutable access to the installed routing tables (used to program
    /// per-destination discards when isolating failed regions).
    pub fn tables_mut(&mut self) -> &mut RoutingTables {
        &mut self.tables
    }

    /// Number of coherence-lane packets inside the fabric (injection queues,
    /// router queues and transits) — an oracle-level drain check.
    pub fn in_flight_coherence(&self) -> u64 {
        self.in_flight_coherence
    }

    /// The time of the most recent coherence-lane delivery to `node`
    /// (`SimTime::ZERO` if none). The drain-agreement protocol compares this
    /// against vote times.
    pub fn last_coherence_delivery(&self, node: NodeId) -> SimTime {
        self.last_coherence_delivery[node.index()]
    }

    /// Fabric-level statistics.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// All coherence-lane packets dropped so far (black holes, dead
    /// routers, discards). Consulted by the validation oracle to identify
    /// lines whose only valid copy was lost in transit.
    pub fn dropped_packets(&self) -> &[Packet<P>] {
        &self.dropped
    }

    /// Coherence-lane packets dropped after the drop log
    /// ([`Fabric::dropped_packets`]) filled, which it therefore lacks.
    pub fn dropped_unlogged(&self) -> u64 {
        self.dropped_unlogged
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Decides where a packet will be placed after landing on `at`.
    /// `consumes_hop` is true when the move crosses a router-to-router link
    /// (source routes consume one hop per link crossing).
    fn decide(&self, at: RouterId, dst: NodeId, route: Route, consumes_hop: bool) -> Target {
        match route {
            Route::Table => match self.tables.hop(at, RouterId(dst.0)) {
                Hop::Local => {
                    if dst.0 == at.0 {
                        Target::Node(dst)
                    } else {
                        Target::Sink(Counter::DropMisroute)
                    }
                }
                Hop::Toward(v) => self
                    .port(at, v)
                    .map_or(Target::Sink(Counter::DropMisroute), Target::Queue),
                Hop::Discard => Target::Sink(Counter::DropDiscard),
                Hop::Unreachable => Target::Sink(Counter::DropUnreachable),
            },
            Route::Source { hops, consumed } => {
                let idx = usize::from(consumed) + usize::from(consumes_hop);
                if idx >= hops.len() {
                    Target::Node(NodeId(at.0))
                } else {
                    self.port(at, hops[idx])
                        .map_or(Target::Sink(Counter::DropBadSourceRoute), Target::Queue)
                }
            }
        }
    }

    /// The link joining two routers, if they are adjacent.
    fn link_between(&self, a: RouterId, b: RouterId) -> Option<LinkId> {
        self.adj[a.index()]
            .iter()
            .find(|n| n.router == b)
            .map(|n| n.link)
    }

    /// Router `at`'s output queue toward its neighbor `to`, if adjacent.
    fn port(&self, at: RouterId, to: RouterId) -> Option<QueueRef> {
        let j = self.adj[at.index()].iter().position(|n| n.router == to)?;
        Some(QueueRef(self.first_port[at.index()] + j as u32))
    }

    /// The reserved-flit count of `target`'s queue on `lane`, and whether
    /// `flits` more fit into it; `None` for a sink. A dead node's input
    /// queue always has room: it discards what arrives.
    fn reservation(&mut self, target: Target, lane: Lane, flits: u32) -> Option<(&mut u32, bool)> {
        match target {
            Target::Node(nd) => {
                let q = &mut self.node_in[nd.index()][lane.index()];
                let room = q.sink || q.flits + q.reserved + flits <= self.params.node_in_flits;
                Some((&mut q.reserved, room))
            }
            Target::Queue(qr) => {
                let q = &mut self.queues[qr.index()][lane.index()];
                let room = q.has_space(flits, self.params.out_queue_flits);
                Some((&mut q.reserved, room))
            }
            Target::Sink(_) => None,
        }
    }

    fn drop_packet(&mut self, pkt: Packet<P>, reason: Counter, now: SimTime, obs: &mut Recorder) {
        self.counters
            .add(Counter::LinksCrossed, u64::from(pkt.links_crossed));
        if pkt.lane.is_coherence() {
            coherence_left(&mut self.in_flight_coherence);
        }
        self.counters.incr(reason);
        self.counters.incr(Counter::PacketsDropped);
        obs.record(
            Domain::Net,
            now,
            TraceEvent::PacketDropped {
                reason: reason.name(),
            },
        );
        // Keep a bounded log of dropped packets: the incoherence oracle
        // inspects it for lost sole-copy writebacks and grants, and learns
        // from the count how many it cannot inspect.
        if pkt.lane.is_coherence() {
            if self.dropped.len() < DROP_LOG_CAP {
                self.dropped.push(pkt);
            } else {
                self.dropped_unlogged += 1;
            }
        }
    }

    /// Appends `pkt` to queue `qr` on its lane. Only an idle queue needs a
    /// kick: a non-empty one already has an event chain (an in-transit
    /// Arrived or a blocked-head retry poll) in flight that will reach it.
    fn enqueue(
        &mut self,
        qr: QueueRef,
        pkt: Packet<P>,
        now: SimTime,
        out: &mut Vec<(SimDuration, NetEv)>,
    ) {
        let lane = pkt.lane;
        let q = &mut self.queues[qr.index()][lane.index()];
        q.flits += pkt.flits;
        let newly_head = q.q.is_empty();
        q.q.push_back(pkt);
        if newly_head {
            self.counters.incr(Counter::NetTrymoveKicks);
            q.head_since = now;
            out.push((SimDuration::ZERO, NetEv::TryMove(qr, lane)));
        } else {
            self.counters.incr(Counter::NetTrymoveCoalesced);
        }
    }

    /// Drops the head packet of queue `qr` on `lane`, then kicks the queue
    /// again if another packet waits behind it. The one discard action of
    /// a router: black holes, stall discards, sinks and lossy links.
    fn drop_head(
        &mut self,
        qr: QueueRef,
        lane: Lane,
        reason: Counter,
        now: SimTime,
        out: &mut Vec<(SimDuration, NetEv)>,
        obs: &mut Recorder,
    ) {
        let q = &mut self.queues[qr.index()][lane.index()];
        let pkt = q.q.pop_front().expect("head checked");
        q.flits -= pkt.flits;
        q.head_since = now;
        let more = !q.q.is_empty();
        self.drop_packet(pkt, reason, now, obs);
        if more {
            out.push((SimDuration::ZERO, NetEv::TryMove(qr, lane)));
        }
    }

    fn try_move(
        &mut self,
        qr: QueueRef,
        lane: Lane,
        now: SimTime,
        out: &mut Vec<(SimDuration, NetEv)>,
        obs: &mut Recorder,
    ) {
        let wire = self.wires[qr.index()];
        let q = &mut self.queues[qr.index()][lane.index()];
        // A dead router's buffers are lost, and a node attached to a dead
        // router cannot inject: drain everything.
        if self.router_failed[wire.at.index()].is_some() {
            q.in_transit = None;
            q.flits = 0;
            for pkt in std::mem::take(&mut q.q) {
                self.drop_packet(pkt, Counter::DropDeadRouterBuffer, now, obs);
            }
            return;
        }
        if q.in_transit.is_some() {
            return;
        }
        // `Route` is `Copy` (inline source-route hops), so inspecting the
        // head costs no allocation.
        let Some(head) = q.q.front() else {
            return;
        };
        let (dst, route, flits) = (head.dst, head.route, head.flits);
        let waited = now.since(q.head_since);
        match self.next_target(wire, lane, dst, route, flits, waited) {
            None => out.push((
                SimDuration::from_nanos(self.params.retry_ns),
                NetEv::TryMove(qr, lane),
            )),
            Some(Target::Sink(reason)) => self.drop_head(qr, lane, reason, now, out, obs),
            Some(target) => {
                // Reserve downstream space and start the transit.
                if let Some((reserved, _)) = self.reservation(target, lane, flits) {
                    *reserved += flits;
                }
                let base = if wire.link.is_some() {
                    self.params.hop_latency_ns
                } else {
                    self.params.inject_ns
                };
                let latency = base + self.params.flit_ns * u64::from(flits);
                self.queues[qr.index()][lane.index()].in_transit = Some(Transit {
                    send_time: now,
                    target,
                });
                out.push((SimDuration::from_nanos(latency), NetEv::Arrived(qr, lane)));
            }
        }
    }

    /// Where the head packet of a queue wired as `wire` goes next: a target
    /// with room for it, a sink that drops it now, or `None` to poll again
    /// after `retry_ns`. `waited` is how long it has been the head.
    fn next_target(
        &mut self,
        wire: Wire,
        lane: Lane,
        dst: NodeId,
        route: Route,
        flits: u32,
        waited: SimDuration,
    ) -> Option<Target> {
        // Black-hole semantics: a dead link or dead landing router sinks the
        // packet at forwarding time.
        if wire
            .link
            .is_some_and(|l| self.link_failed[l.index()].is_some())
        {
            return Some(Target::Sink(Counter::DropBlackholeLink));
        }
        if self.router_failed[wire.to.index()].is_some() {
            return Some(Target::Sink(Counter::DropDeadRouter));
        }
        let target = self.decide(wire.to, dst, route, wire.link.is_some());
        // Immediate sinks need no transit.
        let Some((_, room)) = self.reservation(target, lane, flits) else {
            return Some(target);
        };
        if !room {
            // Blocked. Source-routed packets are stall-discarded; others poll.
            let stalled = matches!(route, Route::Source { .. })
                && waited.as_nanos() > self.params.stall_timeout_ns;
            return stalled.then_some(Target::Sink(Counter::DropStallDiscard));
        }
        // Lossy-link gray failure: the crossing is committed, so roll the
        // loss RNG exactly once per packet actually traversing the link
        // (injection legs have no router-router link and are never lossy).
        // Recovery-lane traffic is exempt: the recovery protocol rides the
        // hardware's acknowledged transfer service (the paper's reliable
        // dying-gasp discipline), so a lossy link slows recovery down but
        // cannot make it livelock on lost dissemination rounds.
        if let Some(l) = wire.link {
            let ppm = self.link_loss_ppm[l.index()];
            if lane.is_coherence() && ppm > 0 && self.loss_rng.below(1_000_000) < u64::from(ppm) {
                return Some(Target::Sink(Counter::DropLossyLink));
            }
        }
        Some(target)
    }

    fn arrived(
        &mut self,
        qr: QueueRef,
        lane: Lane,
        now: SimTime,
        out: &mut Vec<(SimDuration, NetEv)>,
        delivered: &mut Vec<DeliveryNote>,
        obs: &mut Recorder,
    ) {
        let q = &mut self.queues[qr.index()][lane.index()];
        let Some(transit) = q.in_transit.take() else {
            // The queue was drained (e.g. router died mid-transit).
            return;
        };
        let Some(mut pkt) = q.q.pop_front() else {
            return;
        };
        q.flits -= pkt.flits;
        q.head_since = now;
        // The vacated queue may move its next head. An emptied queue needs no
        // event: the next enqueue into it schedules its own TryMove.
        if !q.q.is_empty() {
            out.push((SimDuration::ZERO, NetEv::TryMove(qr, lane)));
        }
        if let Some((reserved, _)) = self.reservation(transit.target, lane, 0) {
            *reserved = reserved.saturating_sub(pkt.flits);
        }
        if let Some(l) = self.wires[qr.index()].link {
            // Truncation: the link failed while the packet was on the wire.
            if self.link_failed[l.index()].is_some_and(|at| at > transit.send_time) {
                pkt.truncated = true;
                pkt.flits = 1; // Header only; data flits were lost.
                self.counters.incr(Counter::PacketsTruncated);
            }
            // Source routes consume a hop per link crossing.
            if let Route::Source { consumed, .. } = &mut pkt.route {
                *consumed += 1;
            }
            pkt.links_crossed += 1;
        }
        self.place(pkt, lane, transit.target, now, out, delivered, obs);
    }

    /// Places a packet that has completed a transit into its target: a node
    /// input queue, a downstream router queue, or a sink.
    #[allow(clippy::too_many_arguments)]
    fn place(
        &mut self,
        pkt: Packet<P>,
        lane: Lane,
        target: Target,
        now: SimTime,
        out: &mut Vec<(SimDuration, NetEv)>,
        delivered: &mut Vec<DeliveryNote>,
        obs: &mut Recorder,
    ) {
        match target {
            Target::Node(nd) => {
                let q = &mut self.node_in[nd.index()][lane.index()];
                if q.sink {
                    self.drop_packet(pkt, Counter::DropDeadNode, now, obs);
                    return;
                }
                self.counters
                    .add(Counter::LinksCrossed, u64::from(pkt.links_crossed));
                let hops = pkt.links_crossed.min(u32::from(u8::MAX)) as u8;
                if lane.is_coherence() {
                    coherence_left(&mut self.in_flight_coherence);
                    self.last_coherence_delivery[nd.index()] = now;
                }
                q.flits += pkt.flits;
                let truncated = pkt.truncated;
                q.q.push_back(pkt);
                self.counters.incr(Counter::PacketsDelivered);
                obs.record(
                    Domain::Net,
                    now,
                    TraceEvent::PacketDelivered {
                        node: nd.0,
                        lane: lane.index() as u8,
                        hops,
                        truncated,
                    },
                );
                obs.metrics
                    .observe_count(Hist::NetPacketHops, u64::from(hops));
                delivered.push(DeliveryNote { node: nd, lane });
            }
            Target::Queue(qr) => {
                if self.router_failed[self.wires[qr.index()].at.index()].is_some() {
                    self.drop_packet(pkt, Counter::DropDeadRouter, now, obs);
                    return;
                }
                self.enqueue(qr, pkt, now, out);
            }
            Target::Sink(reason) => {
                self.drop_packet(pkt, reason, now, obs);
            }
        }
    }
}

/// Counts one coherence-lane packet out of the fabric (delivered or
/// dropped).
///
/// # Panics
///
/// Panics if no coherence packet is in flight: every packet leaves the
/// fabric once, so an underflow means one was counted out twice, and a
/// count clamped at zero would report a drained fabric early.
fn coherence_left(in_flight: &mut u64) {
    *in_flight = in_flight
        .checked_sub(1)
        .expect("coherence packet conservation: a packet left the fabric twice");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Mesh2D;
    use flash_sim::{Engine, Scheduler, World};

    /// Minimal world driving a fabric alone.
    struct NetWorld {
        fabric: Fabric<u32>,
        obs: Recorder,
        notes: Vec<(u64, DeliveryNote)>,
    }

    impl World for NetWorld {
        type Ev = NetEv;
        fn dispatch(&mut self, ev: NetEv, sched: &mut Scheduler<'_, NetEv>) {
            let mut out = Vec::new();
            let mut del = Vec::new();
            self.fabric
                .handle(ev, sched.now(), &mut out, &mut del, &mut self.obs);
            for d in del {
                self.notes.push((sched.now().as_nanos(), d));
            }
            for (delay, e) in out {
                sched.after(delay, e);
            }
        }
    }

    fn net(w: usize, h: usize) -> (NetWorld, Engine<NetEv>) {
        let fabric = Fabric::new(&Mesh2D::new(w, h), NetParams::default());
        (
            NetWorld {
                fabric,
                obs: Recorder::disabled(),
                notes: Vec::new(),
            },
            Engine::new(),
        )
    }

    /// Offers `pkt` to `node`'s injection queue and schedules the events
    /// the fabric asks for.
    fn offer(
        world: &mut NetWorld,
        engine: &mut Engine<NetEv>,
        pkt: Packet<u32>,
        node: NodeId,
    ) -> Result<(), SendError<u32>> {
        let mut out = Vec::new();
        let sent = world
            .fabric
            .try_send(node, pkt, engine.now(), &mut out, &mut world.obs);
        for (delay, e) in out {
            engine.schedule_after(delay, e);
        }
        sent
    }

    fn send(world: &mut NetWorld, engine: &mut Engine<NetEv>, pkt: Packet<u32>, node: NodeId) {
        offer(world, engine, pkt, node).expect("send ok");
    }

    fn conservation_ok(f: &Fabric<u32>) -> bool {
        let c = f.counters();
        c.get("packets_sent") >= c.get("packets_delivered") + c.get("packets_dropped")
    }

    #[test]
    fn delivers_across_mesh() {
        let (mut w, mut engine) = net(4, 4);
        let pkt = Packet::table_routed(NodeId(0), NodeId(15), Lane::Request, 9, 0xBEEF);
        send(&mut w, &mut engine, pkt, NodeId(0));
        engine.run(&mut w, SimTime::MAX);
        assert_eq!(w.notes.len(), 1);
        assert_eq!(w.notes[0].1.node, NodeId(15));
        assert!(w.notes[0].0 > 0, "delivery takes time");
        let got = w.fabric.pop_input(NodeId(15), Lane::Request).unwrap();
        assert_eq!(got.payload, 0xBEEF);
        assert!(!got.truncated);
        assert_eq!(w.fabric.in_flight_coherence(), 0);
        assert!(conservation_ok(&w.fabric));
    }

    #[test]
    fn loopback_to_self_is_delivered() {
        let (mut w, mut engine) = net(2, 2);
        let pkt = Packet::table_routed(NodeId(1), NodeId(1), Lane::Reply, 2, 7);
        send(&mut w, &mut engine, pkt, NodeId(1));
        engine.run(&mut w, SimTime::MAX);
        assert_eq!(w.notes.len(), 1);
        assert_eq!(
            w.fabric.pop_input(NodeId(1), Lane::Reply).unwrap().payload,
            7
        );
    }

    #[test]
    fn dead_link_black_holes_table_traffic() {
        let (mut w, mut engine) = net(2, 1);
        w.fabric
            .fail_link_between(RouterId(0), RouterId(1), SimTime::ZERO);
        let pkt = Packet::table_routed(NodeId(0), NodeId(1), Lane::Request, 9, 1);
        send(&mut w, &mut engine, pkt, NodeId(0));
        engine.run(&mut w, SimTime::MAX);
        assert!(w.notes.is_empty());
        assert_eq!(w.fabric.counters().get("drop_blackhole_link"), 1);
        assert_eq!(w.fabric.in_flight_coherence(), 0);
    }

    #[test]
    fn lossy_link_drops_probabilistically_and_conserves_packets() {
        // drop_ppm = 1_000_000: every crossing is dropped.
        let (mut w, mut engine) = net(2, 1);
        assert!(w
            .fabric
            .set_link_loss_between(RouterId(0), RouterId(1), 1_000_000));
        assert_eq!(
            w.fabric.link_loss_between(RouterId(1), RouterId(0)),
            1_000_000,
            "loss is a property of the shared link, both directions"
        );
        let pkt = Packet::table_routed(NodeId(0), NodeId(1), Lane::Request, 9, 1);
        send(&mut w, &mut engine, pkt, NodeId(0));
        engine.run(&mut w, SimTime::MAX);
        assert!(w.notes.is_empty());
        assert_eq!(w.fabric.counters().get("drop_lossy_link"), 1);
        assert_eq!(w.fabric.in_flight_coherence(), 0);
        assert!(conservation_ok(&w.fabric));

        // drop_ppm = 0 after clearing: reliable again.
        assert!(w.fabric.set_link_loss_between(RouterId(0), RouterId(1), 0));
        let pkt = Packet::table_routed(NodeId(0), NodeId(1), Lane::Request, 9, 2);
        send(&mut w, &mut engine, pkt, NodeId(0));
        engine.run(&mut w, SimTime::MAX);
        assert_eq!(w.notes.len(), 1);

        // Half rate: the seeded stream drops a plausible fraction of 100
        // packets, deterministically.
        let (mut w, mut engine) = net(2, 1);
        w.fabric.seed_loss_rng(DetRng::new(77));
        assert!(w
            .fabric
            .set_link_loss_between(RouterId(0), RouterId(1), 500_000));
        for i in 0..100 {
            let pkt = Packet::table_routed(NodeId(0), NodeId(1), Lane::Request, 2, i);
            send(&mut w, &mut engine, pkt, NodeId(0));
            engine.run(&mut w, SimTime::MAX);
            let _ = w.fabric.pop_input(NodeId(1), Lane::Request);
        }
        let dropped = w.fabric.counters().get("drop_lossy_link");
        assert!((25..=75).contains(&dropped), "dropped {dropped} of 100");
        assert!(conservation_ok(&w.fabric));
        // Non-adjacent pairs are rejected.
        assert!(!w
            .fabric
            .set_link_loss_between(RouterId(0), RouterId(0), 1_000));
    }

    #[test]
    fn mid_transit_link_failure_truncates() {
        let (mut w, mut engine) = net(2, 1);
        let pkt = Packet::table_routed(NodeId(0), NodeId(1), Lane::Request, 9, 42);
        send(&mut w, &mut engine, pkt, NodeId(0));
        // Injection completes at 10 + 9*10 = 100ns; the link transit runs
        // from 100 to 100 + 40 + 90 = 230ns. Fail the link at 150ns.
        engine.run(&mut w, SimTime::from_nanos(150));
        w.fabric
            .fail_link_between(RouterId(0), RouterId(1), engine.now());
        engine.run(&mut w, SimTime::MAX);
        assert_eq!(w.notes.len(), 1, "truncated packet is still delivered");
        let got = w.fabric.pop_input(NodeId(1), Lane::Request).unwrap();
        assert!(got.truncated);
        assert_eq!(got.flits, 1);
        assert_eq!(w.fabric.counters().get("packets_truncated"), 1);
    }

    #[test]
    fn dead_router_sinks_traffic() {
        let (mut w, mut engine) = net(3, 1);
        w.fabric.fail_router(RouterId(1), SimTime::ZERO);
        let pkt = Packet::table_routed(NodeId(0), NodeId(2), Lane::Request, 9, 1);
        send(&mut w, &mut engine, pkt, NodeId(0));
        engine.run(&mut w, SimTime::MAX);
        assert!(w.notes.is_empty());
        assert!(w.fabric.counters().get("drop_dead_router") >= 1);
    }

    #[test]
    fn drops_past_the_log_cap_are_counted() {
        let (mut w, mut engine) = net(2, 1);
        w.fabric
            .fail_link_between(RouterId(0), RouterId(1), SimTime::ZERO);
        for i in 0..DROP_LOG_CAP as u32 + 3 {
            let pkt = Packet::table_routed(NodeId(0), NodeId(1), Lane::Request, 9, i);
            send(&mut w, &mut engine, pkt, NodeId(0));
            engine.run(&mut w, SimTime::MAX);
        }
        // Recovery-lane drops are neither logged nor counted.
        let pkt = Packet::table_routed(NodeId(0), NodeId(1), Lane::Recovery1, 9, 99);
        send(&mut w, &mut engine, pkt, NodeId(0));
        engine.run(&mut w, SimTime::MAX);
        assert_eq!(
            w.fabric.counters().get("packets_dropped"),
            DROP_LOG_CAP as u64 + 4
        );
        let logged: Vec<u32> = w
            .fabric
            .dropped_packets()
            .iter()
            .map(|p| p.payload)
            .collect();
        assert_eq!(logged, (0..DROP_LOG_CAP as u32).collect::<Vec<_>>());
        assert_eq!(w.fabric.dropped_unlogged(), 3);
    }

    #[test]
    fn dead_node_discards_deliveries() {
        let (mut w, mut engine) = net(2, 1);
        w.fabric.set_node_sink(NodeId(1), true);
        let pkt = Packet::table_routed(NodeId(0), NodeId(1), Lane::Request, 9, 1);
        send(&mut w, &mut engine, pkt, NodeId(0));
        engine.run(&mut w, SimTime::MAX);
        assert!(w.notes.is_empty());
        assert_eq!(w.fabric.counters().get("drop_dead_node"), 1);
        assert_eq!(w.fabric.in_flight_coherence(), 0);
    }

    #[test]
    fn source_route_detours_around_failed_link() {
        // 2x2 mesh: table route 0 -> 3 goes X-first through router 1.
        let (mut w, mut engine) = net(2, 2);
        w.fabric
            .fail_link_between(RouterId(0), RouterId(1), SimTime::ZERO);
        // Table-routed packet dies in the black hole.
        let pkt = Packet::table_routed(NodeId(0), NodeId(3), Lane::Request, 9, 1);
        send(&mut w, &mut engine, pkt, NodeId(0));
        engine.run(&mut w, SimTime::MAX);
        assert!(w.notes.is_empty());
        // Source-routed packet detours 0 -> 2 -> 3.
        let pkt = Packet::source_routed(
            NodeId(0),
            NodeId(3),
            vec![RouterId(2), RouterId(3)],
            Lane::Recovery0,
            1,
            2,
        );
        send(&mut w, &mut engine, pkt, NodeId(0));
        engine.run(&mut w, SimTime::MAX);
        assert_eq!(w.notes.len(), 1);
        assert_eq!(w.notes[0].1.node, NodeId(3));
        assert_eq!(w.notes[0].1.lane, Lane::Recovery0);
    }

    #[test]
    fn backpressure_fills_and_drains() {
        let (mut w, mut engine) = net(2, 1);
        // node_in capacity 256 flits = 28 packets of 9 flits; out queue 64
        // flits = 7 packets; inject queue 64 flits = 7 packets. Send 14.
        let mut sent = 0;
        for i in 0..14 {
            let pkt = Packet::table_routed(NodeId(0), NodeId(1), Lane::Request, 9, i);
            if offer(&mut w, &mut engine, pkt, NodeId(0)).is_ok() {
                sent += 1;
            }
            // Let the fabric drain the injection queue between sends
            // (injection serialization takes 100ns per 9-flit packet).
            let h = engine.now() + SimDuration::from_nanos(200);
            engine.run(&mut w, h);
        }
        engine.run(&mut w, SimTime::MAX);
        assert_eq!(sent, 14);
        assert_eq!(w.notes.len(), 14, "all packets eventually delivered");
        assert_eq!(w.fabric.input_len(NodeId(1), Lane::Request), 14);
        // Drain.
        for _ in 0..14 {
            assert!(w.fabric.pop_input(NodeId(1), Lane::Request).is_some());
        }
        assert!(w.fabric.pop_input(NodeId(1), Lane::Request).is_none());
    }

    #[test]
    fn full_ejection_queue_blocks_then_recovers() {
        let (mut w, mut engine) = net(2, 1);
        // 29 packets of 9 flits exceed the 256-flit ejection queue (28 fit).
        for i in 0..29 {
            let pkt = Packet::table_routed(NodeId(0), NodeId(1), Lane::Request, 9, i);
            let _ = offer(&mut w, &mut engine, pkt, NodeId(0));
            let h = engine.now() + SimDuration::from_nanos(200);
            engine.run(&mut w, h);
        }
        // Run for a while: 28 packets delivered, 1 blocked in the network.
        let h = engine.now() + SimDuration::from_micros(50);
        engine.run(&mut w, h);
        assert_eq!(w.fabric.input_len(NodeId(1), Lane::Request), 28);
        assert_eq!(w.fabric.in_flight_coherence(), 1);
        // Popping one frees space; the blocked packet gets through.
        w.fabric.pop_input(NodeId(1), Lane::Request).unwrap();
        let h = engine.now() + SimDuration::from_micros(50);
        engine.run(&mut w, h);
        assert_eq!(w.fabric.input_len(NodeId(1), Lane::Request), 28);
        assert_eq!(w.fabric.in_flight_coherence(), 0);
    }

    #[test]
    fn stall_discard_protects_recovery_lanes() {
        let (mut w, mut engine) = net(2, 1);
        // Fill node 1's Recovery0 ejection queue (256 flits / 1 flit each).
        for i in 0..256 {
            let pkt = Packet::table_routed(NodeId(0), NodeId(1), Lane::Recovery0, 1, i);
            let _ = offer(&mut w, &mut engine, pkt, NodeId(0));
            let h = engine.now() + SimDuration::from_nanos(100);
            engine.run(&mut w, h);
        }
        engine.run(&mut w, engine.now() + SimDuration::from_micros(100));
        assert_eq!(w.fabric.input_len(NodeId(1), Lane::Recovery0), 256);
        // A source-routed packet now blocks at the head, and is discarded
        // after the stall timeout instead of clogging the lane forever.
        let pkt = Packet::source_routed(
            NodeId(0),
            NodeId(1),
            vec![RouterId(1)],
            Lane::Recovery0,
            1,
            9999,
        );
        send(&mut w, &mut engine, pkt, NodeId(0));
        engine.run(&mut w, engine.now() + SimDuration::from_micros(100));
        assert!(w.fabric.counters().get("drop_stall_discard") >= 1);
    }

    #[test]
    fn probe_reports_component_health() {
        let (mut w, _) = net(3, 1);
        assert_eq!(w.fabric.probe(RouterId(0), 0), LinkProbe::Alive);
        w.fabric.fail_router(RouterId(1), SimTime::ZERO);
        assert_eq!(w.fabric.probe(RouterId(0), 0), LinkProbe::RouterDead);
        w.fabric
            .fail_link_between(RouterId(0), RouterId(1), SimTime::ZERO);
        assert_eq!(w.fabric.probe(RouterId(0), 0), LinkProbe::LinkDead);
        assert_eq!(w.fabric.probe(RouterId(0), 5), LinkProbe::NoSuchLink);
    }

    #[test]
    fn inject_queue_full_returns_packet() {
        let (mut w, mut engine) = net(2, 1);
        // Inject queue holds 64 flits = 7 packets of 9; do not run events.
        let mut rejected = None;
        for i in 0..8 {
            let pkt = Packet::table_routed(NodeId(0), NodeId(1), Lane::Request, 9, i);
            if let Err(e) = offer(&mut w, &mut engine, pkt, NodeId(0)) {
                assert_eq!(e.to_string(), "injection queue full for a packet to n1");
                let SendError::Full(p) = e;
                rejected = Some(p);
            }
        }
        let p = rejected.expect("eighth packet rejected");
        assert_eq!(p.payload, 7);
        assert_eq!(w.fabric.counters().get("inject_full"), 1);
    }

    #[test]
    fn discard_table_entries_drop_at_first_router() {
        let (mut w, mut engine) = net(3, 1);
        w.fabric.tables_mut().discard_destination(RouterId(2));
        let pkt = Packet::table_routed(NodeId(0), NodeId(2), Lane::Request, 9, 1);
        send(&mut w, &mut engine, pkt, NodeId(0));
        engine.run(&mut w, SimTime::MAX);
        assert!(w.notes.is_empty());
        assert_eq!(w.fabric.counters().get("drop_discard"), 1);
    }

    #[test]
    fn lanes_are_independent() {
        let (mut w, mut engine) = net(2, 1);
        // Fill the Request ejection queue.
        for i in 0..28 {
            let pkt = Packet::table_routed(NodeId(0), NodeId(1), Lane::Request, 9, i);
            let _ = offer(&mut w, &mut engine, pkt, NodeId(0));
            engine.run(&mut w, engine.now() + SimDuration::from_nanos(200));
        }
        engine.run(&mut w, engine.now() + SimDuration::from_micros(20));
        // Recovery-lane traffic still flows.
        let pkt = Packet::source_routed(
            NodeId(0),
            NodeId(1),
            vec![RouterId(1)],
            Lane::Recovery1,
            1,
            1234,
        );
        send(&mut w, &mut engine, pkt, NodeId(0));
        engine.run(&mut w, engine.now() + SimDuration::from_micros(20));
        assert_eq!(w.fabric.input_len(NodeId(1), Lane::Recovery1), 1);
        assert_eq!(
            w.fabric
                .pop_input(NodeId(1), Lane::Recovery1)
                .unwrap()
                .payload,
            1234
        );
    }

    /// The 48 cases' merged trace hashes, folded in case order.
    const CONSERVATION_TRACE_PIN: u64 = 0xdf2d_0f80_207f_2ca6;

    /// Packet conservation under random traffic and random failures:
    /// every injected packet is eventually delivered or dropped —
    /// nothing duplicates and nothing lingers once the event queue
    /// drains and receivers consume their input. Seeded-random cases
    /// stand in for the original property-based formulation.
    #[test]
    fn packets_are_conserved() {
        let mut folded = 0u64;
        for case in 0..48u64 {
            let mut rng = DetRng::new(0xC017_5EED ^ case);
            let n_sends = 1 + rng.index(79);
            let sends: Vec<(u16, u16)> = (0..n_sends)
                .map(|_| (rng.below(12) as u16, rng.below(12) as u16))
                .collect();
            let dead_router = rng.chance(0.5).then(|| rng.below(12) as u16);
            let dead_link = rng.chance(0.5).then(|| rng.index(17));
            let fail_after = rng.below(30);

            let links = Mesh2D::new(4, 3).links();
            let (mut w, mut engine) = net(4, 3);
            // Trace the net domain here too: the instrumented path must
            // uphold conservation under random failures, and the complete
            // trace pins every send, drop and delivery.
            w.obs = Recorder::with_capacity(1 << 12);
            w.obs.set_domain_enabled(Domain::Net, true);
            engine.set_event_budget(5_000_000);
            let mut sent = 0u64;
            for (i, (src, dst)) in sends.iter().enumerate() {
                // Inject failures part-way through the send sequence.
                if i as u64 == fail_after {
                    if let Some(r) = dead_router {
                        w.fabric.fail_router(RouterId(r), engine.now());
                    }
                    if let Some(l) = dead_link {
                        let spec = links[l];
                        w.fabric.fail_link_between(spec.a, spec.b, engine.now());
                    }
                }
                let lane = Lane::from_index(rng.index(2)); // coherence lanes
                let pkt = Packet::table_routed(NodeId(*src), NodeId(*dst), lane, 9, i as u32);
                if offer(&mut w, &mut engine, pkt, NodeId(*src)).is_ok() {
                    sent += 1;
                }
                // Drain receivers as we go so ejection queues don't fill.
                engine.run(&mut w, engine.now() + SimDuration::from_micros(5));
                for n in 0..12u16 {
                    while w.fabric.pop_input(NodeId(n), Lane::Request).is_some() {}
                    while w.fabric.pop_input(NodeId(n), Lane::Reply).is_some() {}
                }
            }
            // Let everything settle (blocked heads toward dead regions sink).
            engine.run(&mut w, SimTime::MAX);
            for n in 0..12u16 {
                while w.fabric.pop_input(NodeId(n), Lane::Request).is_some() {}
                while w.fabric.pop_input(NodeId(n), Lane::Reply).is_some() {}
            }
            let c = w.fabric.counters();
            assert_eq!(c.get("packets_sent"), sent, "case {case}");
            assert_eq!(
                c.get("packets_delivered") + c.get("packets_dropped"),
                sent,
                "case {case}: delivered {} + dropped {} must equal sent {}",
                c.get("packets_delivered"),
                c.get("packets_dropped"),
                sent
            );
            assert_eq!(w.fabric.in_flight_coherence(), 0, "case {case}");
            assert_eq!(w.obs.dropped_total(), 0, "case {case}: trace incomplete");
            folded = (folded ^ w.obs.merged_hash()).wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(
            folded, CONSERVATION_TRACE_PIN,
            "conservation traces moved: {folded:#018x}"
        );
    }
}
