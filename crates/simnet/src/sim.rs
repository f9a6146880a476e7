//! The discrete-event simulation engine and the application [`Ctx`] API.

use std::collections::VecDeque;

use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::addr::{Addr, SocketAddr};
use crate::api::{App, AppEvent, AppId, IntoChunks, PacketTunnel, TcpHandle, UdpHandle};
use crate::faults::{Fault, FaultPlan, FlapState};
use crate::hash::FixedMap;
use crate::link::{Link, LinkConfig, LinkId, LinkOutcome, NodeId};
use crate::middlebox::{MbCtx, Middlebox, Verdict};
use crate::node::Node;
use crate::packet::{L4, Packet};
use crate::queue::EventQueue;
use crate::stats::{DropReason, SimStats};
use sc_obs::prof::{self, Subsystem};
use crate::tcp::{Effects, TcpLayer, TcpTimer};
use crate::time::{SimDuration, SimTime};

#[derive(Debug)]
enum Event {
    Arrival { node: NodeId, packet: Packet },
    TcpTimer { node: NodeId, timer: TcpTimer },
    AppTimer { node: NodeId, app: AppId, token: u64 },
    Start { node: NodeId, app: AppId },
    Fault(Fault),
    FlapToggle { flap: usize },
    /// Administrative power transition (elastic instance spawn/retire).
    /// Unlike `Fault::NodeCrash`, this is a *planned* control-plane
    /// action: it is delivered even to a node that is already down.
    Lifecycle { node: NodeId, up: bool },
}

/// The simulator: topology, clock, event queue, and statistics.
///
/// # Examples
///
/// Build a two-host network and run it:
///
/// ```
/// use sc_simnet::prelude::*;
///
/// let mut sim = Sim::new(42);
/// let a = sim.add_node("a", Addr::new(10, 0, 0, 1));
/// let b = sim.add_node("b", Addr::new(99, 0, 0, 1));
/// sim.add_link(a, b, LinkConfig::with_delay(SimDuration::from_millis(20)));
/// sim.compute_routes();
/// sim.run_for(SimDuration::from_secs(1));
/// assert_eq!(sim.now().as_secs_f64(), 1.0);
/// ```
pub struct Sim {
    now: SimTime,
    queue: EventQueue<Event>,
    /// The one TCP side-effect scratch; see [`Sim::with_tcp`].
    fx: Effects,
    nodes: Vec<Node>,
    links: Vec<Link>,
    addr_map: FixedMap<Addr, NodeId>,
    rng: SmallRng,
    /// Active partitions: traffic hopping from one side to the other is
    /// dropped (installed by [`Fault::Partition`]).
    partitions: Vec<(Vec<NodeId>, Vec<NodeId>)>,
    /// In-progress link flaps.
    flaps: Vec<FlapState>,
    /// Packet accounting.
    pub stats: SimStats,
}

impl core::fmt::Debug for Sim {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.now)
            .field("nodes", &self.nodes.len())
            .field("links", &self.links.len())
            .field("queued", &self.queue.len())
            .finish()
    }
}

impl Sim {
    /// Creates an empty simulation with a deterministic RNG seed.
    pub fn new(seed: u64) -> Self {
        Sim {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            fx: Effects::default(),
            nodes: Vec::new(),
            links: Vec::new(),
            addr_map: FixedMap::default(),
            rng: SmallRng::seed_from_u64(seed),
            partitions: Vec::new(),
            flaps: Vec::new(),
            stats: SimStats::default(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Adds a node with a unique address.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is already assigned.
    pub fn add_node(&mut self, name: impl Into<String>, addr: Addr) -> NodeId {
        assert!(
            !self.addr_map.contains_key(&addr),
            "address {addr} already assigned"
        );
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node::new(name, addr));
        self.addr_map.insert(addr, id);
        self.stats.add_node(addr);
        id
    }

    /// Adds a bidirectional link between two nodes.
    pub fn add_link(&mut self, a: NodeId, b: NodeId, config: LinkConfig) -> LinkId {
        let id = LinkId(self.links.len());
        self.links.push(Link::new(a, b, config));
        self.nodes[a.0].links.push(id);
        self.nodes[b.0].links.push(id);
        id
    }

    /// Computes shortest-path (hop count) routes for every node via BFS.
    /// Call after the topology is complete and before running. Each
    /// node's table is dense — one entry per destination node — so the
    /// per-packet lookup is an address-to-node resolution and an index.
    pub fn compute_routes(&mut self) {
        let n = self.nodes.len();
        // One scratch pair for all the searches; only a node's table is
        // its own allocation.
        let mut visited = vec![false; n];
        let mut q = VecDeque::new();
        for start in 0..n {
            let mut first_link: Vec<Option<LinkId>> = vec![None; n];
            visited.fill(false);
            visited[start] = true;
            q.push_back(start);
            while let Some(u) = q.pop_front() {
                for &lid in &self.nodes[u].links {
                    let link = &self.links[lid.0];
                    let Some(v) = link.other_end(NodeId(u)) else { continue };
                    if visited[v.0] {
                        continue;
                    }
                    visited[v.0] = true;
                    // The first hop out of `start` toward v.
                    first_link[v.0] = if u == start { Some(lid) } else { first_link[u] };
                    q.push_back(v.0);
                }
            }
            self.nodes[start].routes = first_link;
        }
    }

    /// Installs an application on a node; its `on_start` runs at the
    /// current simulation time (when the event loop next runs).
    pub fn install_app(&mut self, node: NodeId, app: Box<dyn App>) -> AppId {
        let id = AppId(self.nodes[node.0].apps.len());
        self.nodes[node.0].apps.push(Some(app));
        self.schedule(SimDuration::ZERO, Event::Start { node, app: id });
        id
    }

    /// Attaches a middlebox to a node's forwarding path.
    pub fn set_middlebox(&mut self, node: NodeId, mb: Box<dyn Middlebox>) {
        self.nodes[node.0].middlebox = Some(mb);
    }

    /// Installs (or replaces) a packet tunnel on a node.
    pub fn set_tunnel(&mut self, node: NodeId, tunnel: Box<dyn PacketTunnel>) {
        self.nodes[node.0].tunnel = Some(tunnel);
    }

    /// The node id owning `addr`.
    pub fn node_by_addr(&self, addr: Addr) -> Option<NodeId> {
        self.addr_map.get(&addr).copied()
    }

    /// The address of `node`.
    pub fn addr_of(&self, node: NodeId) -> Addr {
        self.nodes[node.0].addr
    }

    /// Immutable access to a node (diagnostics/tests).
    pub fn node(&self, node: NodeId) -> &Node {
        &self.nodes[node.0]
    }

    /// Installs a timed fault plan: each entry fires as an ordinary
    /// queue event at its declared sim time (entries already in the past
    /// fire immediately). May be called repeatedly; plans accumulate.
    ///
    /// Determinism contract: faults are applied at queue positions fixed
    /// by `(time, seq)`, and any randomized fault behaviour (flap
    /// intervals) draws from the simulation RNG — so two runs with the
    /// same seed and the same plan are byte-identical, traces included.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        for (at, fault) in plan.entries {
            let delay = at.saturating_since(self.now);
            self.schedule(delay, Event::Fault(fault));
        }
    }

    /// Whether a link is administratively up (fault-injection state).
    pub fn link_is_up(&self, link: LinkId) -> bool {
        self.links[link.0].up
    }

    /// Whether a node is live (fault-injection state).
    pub fn node_is_up(&self, node: NodeId) -> bool {
        self.nodes[node.0].up
    }

    /// Schedules an administrative power transition for `node` after
    /// `delay` — the deterministic spawn/retire primitive the elastic
    /// remote tier is built on. Powering down clears pending app events
    /// (like a crash); powering up restores delivery. The transition
    /// fires at a fixed `(time, seq)` queue position, so same-seed runs
    /// flip power identically. Unlike installing a `Fault::NodeCrash`
    /// plan, scheduling can happen mid-run from app code via
    /// [`Ctx::node_power`].
    pub fn schedule_lifecycle(&mut self, node: NodeId, up: bool, delay: SimDuration) {
        self.schedule(delay, Event::Lifecycle { node, up });
    }

    fn schedule(&mut self, delay: SimDuration, ev: Event) {
        self.queue.push(self.now + delay, ev);
        let depth = self.queue.len() as u64;
        if depth > self.stats.queue_depth_hwm {
            self.stats.queue_depth_hwm = depth;
        }
    }

    /// Runs until the queue is exhausted or `deadline` is reached.
    ///
    /// Each time the clock advances, [`sc_obs::tick`] is driven so the
    /// observability layer can close time-series windows and evaluate
    /// SLOs *during* the run (alert events carry the sim time at which
    /// the offending window closed, not the end of the run).
    pub fn run_until(&mut self, deadline: SimTime) {
        // Wall-clock attribution only; nothing below reads the guard.
        // One scope per run, not one per event: the dequeue belongs to
        // the loop's row too, and per-event scopes were more than half of
        // all scopes, which is to say of the profiler's own cost.
        let _prof = prof::scope(Subsystem::EventLoop);
        while let Some((at, ev)) = self.queue.pop_due(deadline) {
            if at > self.now {
                sc_obs::tick(at.as_micros());
            }
            self.now = at;
            self.handle(ev);
        }
        if self.now < deadline {
            self.now = deadline;
            sc_obs::tick(deadline.as_micros());
        }
    }

    /// Runs for `d` of simulated time.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.now + d;
        self.run_until(deadline);
    }

    /// Runs until no events remain (beware apps that re-arm timers forever).
    pub fn run_until_idle(&mut self) {
        let _prof = prof::scope(Subsystem::EventLoop);
        while let Some((at, ev)) = self.queue.pop() {
            if at > self.now {
                sc_obs::tick(at.as_micros());
            }
            self.now = at;
            self.handle(ev);
        }
    }

    fn handle(&mut self, ev: Event) {
        self.stats.events_processed += 1;
        // A crashed node neither receives nor forwards; its timers are
        // swallowed while down (transport state goes stale on purpose).
        match &ev {
            Event::Arrival { node, packet } if !self.nodes[node.0].up => {
                self.stats
                    .record_drop(packet.src, packet.dst, DropReason::NodeDown);
                self.trace_drop(packet, "node_down");
                return;
            }
            Event::TcpTimer { node, .. }
            | Event::AppTimer { node, .. }
            | Event::Start { node, .. }
                if !self.nodes[node.0].up =>
            {
                return;
            }
            _ => {}
        }
        match ev {
            Event::Start { node, app } => {
                if let Some(mut a) = self.nodes[node.0].apps[app.0].take() {
                    let mut ctx = Ctx { sim: self, node, app };
                    a.on_start(&mut ctx);
                    self.nodes[node.0].apps[app.0] = Some(a);
                }
                self.drain_pending(node);
            }
            Event::AppTimer { node, app, token } => {
                self.stats.timers_fired += 1;
                self.nodes[node.0]
                    .pending
                    .push_back((app, AppEvent::TimerFired(token)));
                self.drain_pending(node);
            }
            Event::TcpTimer { node, timer } => {
                self.stats.timers_fired += 1;
                self.with_tcp(node, |tcp, now, fx| {
                    let _prof = prof::scope(Subsystem::Tcp);
                    tcp.on_timer(timer, now, fx);
                });
                self.drain_pending(node);
            }
            Event::Arrival { node, packet } => {
                self.on_arrival(node, packet);
                self.drain_pending(node);
            }
            Event::Fault(fault) => self.apply_fault(fault),
            Event::FlapToggle { flap } => self.flap_toggle(flap),
            Event::Lifecycle { node, up } => self.apply_lifecycle(node, up),
        }
    }

    /// Applies a planned power transition. Semantics match crash/restart
    /// (transport state survives, pending app events are dropped on the
    /// way down) but the trace records it as a lifecycle action, not a
    /// fault — analyzers must not count elastic scale-in as an outage.
    fn apply_lifecycle(&mut self, node: NodeId, up: bool) {
        self.nodes[node.0].up = up;
        if !up {
            self.nodes[node.0].pending.clear();
        }
        sc_obs::counter_add("simnet.lifecycle_transitions", 1);
        sc_obs::event(
            self.now.as_micros(),
            sc_obs::Level::Info,
            "simnet",
            "lifecycle",
            if up { "power_up" } else { "power_down" },
            |f| {
                f.field("node", &self.nodes[node.0].name);
            },
        );
    }

    fn apply_fault(&mut self, mut fault: Fault) {
        let name = fault.name();
        let detail = match &mut fault {
            Fault::LinkDown(l) => {
                self.links[l.0].up = false;
                format!("link={}", l.0)
            }
            Fault::LinkUp(l) => {
                self.links[l.0].up = true;
                format!("link={}", l.0)
            }
            Fault::LinkLoss(l, loss) => {
                assert!((0.0..=1.0).contains(loss), "loss must be in [0,1]");
                self.links[l.0].config.loss = *loss;
                format!("link={} loss={loss}", l.0)
            }
            Fault::LinkDelay(l, delay) => {
                self.links[l.0].config.delay = *delay;
                format!("link={} delay_us={}", l.0, delay.as_micros())
            }
            Fault::LinkFlap { link, mean_down, mean_up, until } => {
                let idx = self.flaps.len();
                self.flaps.push(FlapState {
                    link: *link,
                    mean_down: *mean_down,
                    mean_up: *mean_up,
                    until: *until,
                    down: true,
                });
                self.links[link.0].up = false;
                let first = jittered(*mean_down, self.rng.gen::<f64>());
                self.schedule(first, Event::FlapToggle { flap: idx });
                format!("link={} until_us={}", link.0, until.as_micros())
            }
            Fault::Partition { left, right } => {
                let detail = format!("left={} right={}", left.len(), right.len());
                self.partitions
                    .push((std::mem::take(left), std::mem::take(right)));
                detail
            }
            Fault::HealPartitions => {
                let n = self.partitions.len();
                self.partitions.clear();
                format!("healed={n}")
            }
            Fault::NodeCrash(n) => {
                self.nodes[n.0].up = false;
                self.nodes[n.0].pending.clear();
                format!("node={}", self.nodes[n.0].name)
            }
            Fault::NodeRestart(n) => {
                self.nodes[n.0].up = true;
                format!("node={}", self.nodes[n.0].name)
            }
            Fault::Callback { apply, .. } => {
                apply(self.now);
                String::new()
            }
            Fault::FlashCrowd { clients, ramp, trigger } => {
                trigger(self.now);
                format!("clients={clients} ramp_us={}", ramp.as_micros())
            }
        };
        sc_obs::counter_add("simnet.faults_applied", 1);
        sc_obs::ts_bump(self.now.as_micros(), "simnet.faults", 1);
        sc_obs::event(self.now.as_micros(), sc_obs::Level::Info, "simnet", "fault", name, |f| {
            f.field("detail", detail);
        });
    }

    fn flap_toggle(&mut self, flap: usize) {
        let (link, until, down) = {
            let st = &self.flaps[flap];
            (st.link, st.until, st.down)
        };
        if self.now >= until {
            // Flap window over: leave the link up.
            self.links[link.0].up = true;
            self.flaps[flap].down = false;
            return;
        }
        let now_down = !down;
        self.flaps[flap].down = now_down;
        self.links[link.0].up = !now_down;
        let mean = if now_down { self.flaps[flap].mean_down } else { self.flaps[flap].mean_up };
        let next = jittered(mean, self.rng.gen::<f64>());
        self.schedule(next, Event::FlapToggle { flap });
    }

    /// Whether `a` and `b` are on opposite sides of any active partition.
    fn partitioned(&self, a: NodeId, b: NodeId) -> bool {
        self.partitions.iter().any(|(l, r)| {
            (l.contains(&a) && r.contains(&b)) || (l.contains(&b) && r.contains(&a))
        })
    }

    fn on_arrival(&mut self, node: NodeId, mut packet: Packet) {
        let local_addr = self.nodes[node.0].addr;
        let transit = packet.dst != local_addr;

        // Middlebox inspection of transit traffic.
        if transit && self.nodes[node.0].middlebox.is_some() {
            let mut mb = self.nodes[node.0].middlebox.take().expect("checked");
            let mut mctx = MbCtx { now: self.now, rng: &mut self.rng, inject: Vec::new() };
            let verdict = {
                let _prof = prof::scope(Subsystem::GfwClassify);
                mb.process(&packet, &mut mctx)
            };
            let injected = std::mem::take(&mut mctx.inject);
            self.nodes[node.0].middlebox = Some(mb);
            for p in injected {
                self.send_from(node, p, false);
            }
            if let Verdict::Drop(label) = verdict {
                self.stats
                    .record_drop(packet.src, packet.dst, DropReason::Censor(label));
                sc_obs::counter_add("simnet.censor_drops", 1);
                sc_obs::ts_bump(self.now.as_micros(), "simnet.censor_drops", 1);
                sc_obs::event(
                    self.now.as_micros(),
                    sc_obs::Level::Info,
                    "simnet",
                    "packet",
                    "censor_drop",
                    |f| {
                        f.field("rule", label).field("src", packet.src).field("dst", packet.dst);
                    },
                );
                return;
            }
        }

        if !transit {
            // Loopback traffic (browser ↔ local proxy on one machine)
            // never touches a wire; keep it out of the traffic stats.
            if packet.src != packet.dst {
                self.stats.record_delivered(node, packet.wire_len());
                sc_obs::counter_add("simnet.packets_delivered", 1);
            }
            self.deliver_local(node, packet);
            return;
        }

        // Forward.
        if packet.ttl <= 1 {
            self.stats
                .record_drop(packet.src, packet.dst, DropReason::TtlExpired);
            return;
        }
        packet.ttl -= 1;
        self.route_out(node, packet);
    }

    fn deliver_local(&mut self, node: NodeId, packet: Packet) {
        let src = packet.src;
        let dst = packet.dst;
        // Port taps (NAT): intercept before transport demux.
        if let Some(dst_port) = packet.dst_socket().map(|s| s.port) {
            let tap = self.nodes[node.0]
                .port_taps
                .iter()
                .find(|(lo, hi, _)| (*lo..=*hi).contains(&dst_port))
                .map(|(_, _, app)| *app);
            if let Some(app) = tap {
                self.nodes[node.0]
                    .pending
                    .push_back((app, AppEvent::RawPacket(packet)));
                return;
            }
        }
        match packet.l4 {
            L4::Tcp(seg) => self.with_tcp(node, |tcp, now, fx| {
                let _prof = prof::scope(Subsystem::Tcp);
                tcp.on_segment(src, dst, seg, now, fx);
            }),
            L4::Udp(dgram) => {
                let app = self.nodes[node.0].udp.lookup(dgram.dst_port);
                if let Some(app) = app {
                    let ev = AppEvent::Udp {
                        socket: UdpHandle(dgram.dst_port),
                        from: SocketAddr::new(src, dgram.src_port),
                        payload: dgram.payload,
                    };
                    self.nodes[node.0].pending.push_back((app, ev));
                }
                // Unbound ports silently drop (no ICMP in this simulation).
            }
            L4::Raw { protocol, payload } => {
                let app = self.nodes[node.0].raw_handlers.get(&protocol).copied();
                if let Some(app) = app {
                    let pkt = Packet { src, dst, ttl: 0, l4: L4::Raw { protocol, payload } };
                    self.nodes[node.0]
                        .pending
                        .push_back((app, AppEvent::RawPacket(pkt)));
                }
            }
        }
    }

    /// Sends a packet originating at `node` (applying the node's tunnel
    /// unless `bypass_tunnel`).
    fn send_from(&mut self, node: NodeId, packet: Packet, bypass_tunnel: bool) {
        if bypass_tunnel || self.nodes[node.0].tunnel.is_none() {
            self.originate(node, packet);
            return;
        }
        let mut tun = self.nodes[node.0].tunnel.take().expect("checked");
        let wrapped = tun.wrap(packet, self.now);
        self.nodes[node.0].tunnel = Some(tun);
        for pkt in wrapped {
            self.originate(node, pkt);
        }
    }

    /// Puts one packet on the wire from `node`, or loops it back.
    fn originate(&mut self, node: NodeId, packet: Packet) {
        if packet.dst == self.nodes[node.0].addr {
            // Loopback: deliver after a negligible delay.
            self.schedule(SimDuration::from_micros(10), Event::Arrival { node, packet });
            return;
        }
        self.route_out(node, packet);
    }

    fn route_out(&mut self, node: NodeId, packet: Packet) {
        let next_hop = self
            .addr_map
            .get(&packet.dst)
            .and_then(|dst| self.nodes[node.0].routes.get(dst.0).copied().flatten());
        let Some(lid) = next_hop else {
            self.stats
                .record_drop(packet.src, packet.dst, DropReason::NoRoute);
            self.trace_drop(&packet, "no_route");
            return;
        };
        let wire_len = packet.wire_len();
        // Origination accounting: "sent" counts once per packet (at the
        // node owning the source address), so loss rates are end-to-end
        // rather than per-hop.
        if self.nodes[node.0].addr == packet.src {
            self.stats.record_sent(node, wire_len);
            sc_obs::counter_add("simnet.packets_sent", 1);
            sc_obs::counter_add("simnet.bytes_sent", wire_len as u64);
        }
        let link = &mut self.links[lid.0];
        let dest_node = link.other_end(NodeId(node.0)).expect("link endpoint");
        // Injected faults, checked before the loss draw so a blackholed
        // link or a partition never consumes RNG state.
        if !link.up {
            self.stats
                .record_drop(packet.src, packet.dst, DropReason::LinkDown);
            self.trace_drop(&packet, "link_down");
            return;
        }
        if !self.partitions.is_empty() && self.partitioned(NodeId(node.0), dest_node) {
            self.stats
                .record_drop(packet.src, packet.dst, DropReason::Partitioned);
            self.trace_drop(&packet, "partitioned");
            return;
        }
        let link = &mut self.links[lid.0];
        // Background loss.
        if link.config.loss > 0.0 && self.rng.gen::<f64>() < link.config.loss {
            self.stats
                .record_drop(packet.src, packet.dst, DropReason::LinkLoss);
            self.trace_drop(&packet, "link_loss");
            return;
        }
        match link.transmit(NodeId(node.0), wire_len, self.now) {
            LinkOutcome::QueueDrop => {
                self.stats
                    .record_drop(packet.src, packet.dst, DropReason::QueueOverflow);
                self.trace_drop(&packet, "queue_overflow");
            }
            LinkOutcome::Deliver(at) => {
                let delay = at - self.now;
                // Serialization backlog ahead of this packet = queueing
                // delay beyond pure propagation; exported as a depth
                // histogram so congested links stand out in reports.
                let queued_us = delay
                    .as_micros()
                    .saturating_sub(link.config.delay.as_micros());
                sc_obs::observe("simnet.link_queue_us", queued_us);
                self.schedule(delay, Event::Arrival { node: dest_node, packet });
            }
        }
    }

    /// Emits a non-censor drop event (censor drops carry the rule label
    /// and are emitted at their verdict site instead).
    fn trace_drop(&self, packet: &Packet, reason: &'static str) {
        sc_obs::counter_add("simnet.packets_dropped", 1);
        sc_obs::event(self.now.as_micros(), sc_obs::Level::Debug, "simnet", "packet", "drop", |f| {
            f.field("reason", reason).field("src", packet.src).field("dst", packet.dst);
        });
    }

    /// Runs one step of `node`'s TCP layer and carries out its side
    /// effects: packets out, timers into the queue, app events onto the
    /// node's pending list.
    ///
    /// The step writes into the simulator's one [`Effects`] scratch,
    /// which is *taken* for the duration and handed back drained, with
    /// its capacity — so a segment costs no `Vec` allocation. Taken, not
    /// borrowed: every step ends before the app events it queued are
    /// dispatched, and an app that calls `Ctx::tcp_send` from `on_event`
    /// starts a step of its own, which must find the scratch empty.
    /// Should a step ever start inside another, it finds a fresh, empty
    /// `Effects` where the scratch was — slower, never wrong.
    fn with_tcp<R>(
        &mut self,
        node: NodeId,
        step: impl FnOnce(&mut TcpLayer, SimTime, &mut Effects) -> R,
    ) -> R {
        let mut fx = std::mem::take(&mut self.fx);
        let result = step(&mut self.nodes[node.0].tcp, self.now, &mut fx);
        for pkt in fx.out.drain(..) {
            self.send_from(node, pkt, false);
        }
        for (delay, timer) in fx.timers.drain(..) {
            self.schedule(delay, Event::TcpTimer { node, timer });
        }
        self.nodes[node.0].pending.extend(fx.app_events.drain(..));
        self.fx = fx;
        result
    }

    fn drain_pending(&mut self, node: NodeId) {
        loop {
            let Some((app, ev)) = self.nodes[node.0].pending.pop_front() else {
                break;
            };
            let Some(mut a) = self.nodes[node.0].apps.get_mut(app.0).and_then(Option::take) else {
                // App slot missing (shouldn't happen at top level) — drop.
                continue;
            };
            let mut ctx = Ctx { sim: self, node, app };
            a.on_event(ev, &mut ctx);
            self.nodes[node.0].apps[app.0] = Some(a);
        }
    }
}

/// A duration uniformly jittered to `[0.5, 1.5) × mean`, from a single
/// RNG draw in `[0, 1)` (used for flap intervals).
fn jittered(mean: SimDuration, draw: f64) -> SimDuration {
    SimDuration::from_secs_f64(mean.as_secs_f64() * (0.5 + draw))
}

/// The API surface an [`App`] uses to interact with the network.
pub struct Ctx<'a> {
    sim: &'a mut Sim,
    /// The node this app runs on.
    pub node: NodeId,
    /// This app's id.
    pub app: AppId,
}

impl<'a> Ctx<'a> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now
    }

    /// This node's address.
    pub fn addr(&self) -> Addr {
        self.sim.nodes[self.node.0].addr
    }

    /// Deterministic RNG shared by the simulation.
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.sim.rng
    }

    /// Schedules [`AppEvent::TimerFired`] with `token` after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        let node = self.node;
        let app = self.app;
        self.sim.schedule(delay, Event::AppTimer { node, app, token });
    }

    /// Opens a TCP connection to `remote`.
    pub fn tcp_connect(&mut self, remote: SocketAddr) -> TcpHandle {
        let (app, local) = (self.app, self.addr());
        self.sim
            .with_tcp(self.node, |tcp, _, fx| tcp.connect(app, local, remote, fx))
    }

    /// Listens for TCP connections on `port`. Returns `false` if taken.
    pub fn tcp_listen(&mut self, port: u16) -> bool {
        self.sim.nodes[self.node.0].tcp.listen(port, self.app)
    }

    /// Sends a copy of `data` on a connection. Returns bytes accepted, or
    /// `None` if the connection cannot send. A caller that owns its buffer
    /// hands it to [`tcp_send_bytes`](Self::tcp_send_bytes) instead.
    pub fn tcp_send(&mut self, h: TcpHandle, data: &[u8]) -> Option<usize> {
        self.tcp_send_bytes(h, Bytes::copy_from_slice(data))
    }

    /// Sends `data` on a connection without copying it: each buffer is
    /// queued as one chunk, segments are views of it, and the receiving
    /// app reads those views. Several buffers (`[head, body]`) go out as
    /// the one stream they make. Returns bytes accepted, or `None` if the
    /// connection cannot send.
    pub fn tcp_send_bytes(&mut self, h: TcpHandle, data: impl IntoChunks) -> Option<usize> {
        self.sim
            .with_tcp(self.node, |tcp, now, fx| tcp.send(h, data.into_chunks(), now, fx))
    }

    /// Drains up to `max` received bytes.
    pub fn tcp_recv(&mut self, h: TcpHandle, max: usize) -> Bytes {
        self.sim.nodes[self.node.0].tcp.recv(h, max)
    }

    /// Drains everything currently buffered.
    pub fn tcp_recv_all(&mut self, h: TcpHandle) -> Bytes {
        self.tcp_recv(h, usize::MAX)
    }

    /// Begins a graceful close.
    pub fn tcp_close(&mut self, h: TcpHandle) {
        self.sim
            .with_tcp(self.node, |tcp, now, fx| tcp.close(h, now, fx));
    }

    /// Aborts with RST.
    pub fn tcp_abort(&mut self, h: TcpHandle) {
        self.sim.with_tcp(self.node, |tcp, _, fx| tcp.abort(h, fx));
    }

    /// The peer address of a connection.
    pub fn tcp_peer(&self, h: TcpHandle) -> Option<SocketAddr> {
        self.sim.nodes[self.node.0].tcp.peer(h)
    }

    /// The local address of a connection.
    pub fn tcp_local(&self, h: TcpHandle) -> Option<SocketAddr> {
        self.sim.nodes[self.node.0].tcp.local(h)
    }

    /// Binds a UDP port (0 = ephemeral). Returns `None` if taken.
    pub fn udp_bind(&mut self, port: u16) -> Option<UdpHandle> {
        self.sim.nodes[self.node.0]
            .udp
            .bind(port, self.app)
            .map(UdpHandle)
    }

    /// Sends a UDP datagram from a bound socket.
    pub fn udp_send(&mut self, socket: UdpHandle, to: SocketAddr, payload: Bytes) {
        let from = SocketAddr::new(self.addr(), socket.0);
        let pkt = Packet::udp(from, to, payload);
        self.sim.send_from(self.node, pkt, false);
    }

    /// Registers this app to receive all packets whose destination port is
    /// in `[lo, hi]`, bypassing the transport stack (NAT port ranges).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn register_port_tap(&mut self, lo: u16, hi: u16) {
        assert!(lo <= hi, "invalid port range");
        let app = self.app;
        self.sim.nodes[self.node.0].port_taps.push((lo, hi, app));
    }

    /// Registers this app as the handler for a raw IP protocol number.
    pub fn register_raw(&mut self, protocol: u8) {
        self.sim.nodes[self.node.0]
            .raw_handlers
            .insert(protocol, self.app);
    }

    /// Sends a raw-protocol packet.
    pub fn raw_send(&mut self, dst: Addr, protocol: u8, payload: Bytes) {
        let src = self.addr();
        let pkt = Packet::raw(src, dst, protocol, payload);
        self.sim.send_from(self.node, pkt, false);
    }

    /// Injects an arbitrary packet from this node (router/NAT behaviour:
    /// the source address need not be the node's own).
    pub fn send_packet(&mut self, pkt: Packet) {
        self.sim.send_from(self.node, pkt, false);
    }

    /// Injects a packet bypassing the node's tunnel (used by tunnel control
    /// planes that must not capture their own handshake).
    pub fn send_packet_untunneled(&mut self, pkt: Packet) {
        self.sim.send_from(self.node, pkt, true);
    }

    /// Installs a packet tunnel on this node.
    pub fn install_tunnel(&mut self, tunnel: Box<dyn PacketTunnel>) {
        self.sim.set_tunnel(self.node, tunnel);
    }

    /// Requests a power transition for the node owning `addr` (elastic
    /// control plane: an autoscaler app spins sibling instances up and
    /// down). The transition is scheduled as an ordinary queue event at
    /// the current time — it takes effect after the in-flight event
    /// completes, at a deterministic `(time, seq)` position. Returns
    /// `false` if no node owns `addr`.
    pub fn node_power(&mut self, addr: Addr, up: bool) -> bool {
        let Some(node) = self.sim.node_by_addr(addr) else { return false };
        self.sim.schedule_lifecycle(node, up, SimDuration::ZERO);
        true
    }

    /// Whether the node owning `addr` is currently powered (lifecycle /
    /// fault state). Unknown addresses read as down.
    pub fn node_is_up(&self, addr: Addr) -> bool {
        self.sim
            .node_by_addr(addr)
            .map_or(false, |n| self.sim.nodes[n.0].up)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::TcpEvent;
    use crate::link::LinkConfig;
    use std::cell::RefCell;
    use std::rc::Rc;

    const CLIENT: Addr = Addr::new(10, 0, 0, 1);
    const SERVER: Addr = Addr::new(99, 0, 0, 1);

    /// Writes every TCP segment crossing the router as one line.
    struct WireLog(Rc<RefCell<Vec<String>>>);

    impl Middlebox for WireLog {
        fn process(&mut self, pkt: &Packet, ctx: &mut MbCtx<'_>) -> Verdict {
            if let L4::Tcp(seg) = &pkt.l4 {
                let f = seg.flags;
                let flags: String = [(f.syn, 'S'), (f.ack, 'A'), (f.fin, 'F'), (f.rst, 'R')]
                    .iter()
                    .filter_map(|&(set, c)| set.then_some(c))
                    .collect();
                self.0.borrow_mut().push(format!(
                    "{} {}>{} {flags} {}:{} +{}",
                    ctx.now.as_micros(),
                    seg.src_port,
                    seg.dst_port,
                    seg.seq,
                    seg.ack,
                    seg.payload.len()
                ));
            }
            Verdict::Forward
        }
    }

    /// Echoes on ports 80 and 81; closes when the peer does.
    struct Echo;

    impl App for Echo {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            assert!(ctx.tcp_listen(80) && ctx.tcp_listen(81));
        }
        fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx<'_>) {
            match ev {
                AppEvent::Tcp(h, TcpEvent::DataReceived) => {
                    let data = ctx.tcp_recv_all(h);
                    ctx.tcp_send(h, &data);
                }
                AppEvent::Tcp(h, TcpEvent::PeerClosed) => ctx.tcp_close(h),
                _ => {}
            }
        }
    }

    /// Every TCP step it takes is taken from inside `on_event`, while the
    /// events of the step before are still being dispatched: it sends on
    /// connect; when the echo is complete it closes and opens a second
    /// connection in one handler; on that one it sends and closes in one
    /// handler.
    struct Chatter {
        first: Option<TcpHandle>,
        second: Option<TcpHandle>,
        echoed: usize,
    }

    impl App for Chatter {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.first = Some(ctx.tcp_connect(SocketAddr::new(SERVER, 80)));
        }
        fn on_event(&mut self, ev: AppEvent, ctx: &mut Ctx<'_>) {
            match ev {
                AppEvent::Tcp(h, TcpEvent::Connected) if Some(h) == self.first => {
                    assert_eq!(ctx.tcp_send(h, &[0x5a; 2000]), Some(2000));
                }
                AppEvent::Tcp(h, TcpEvent::DataReceived) if Some(h) == self.first => {
                    self.echoed += ctx.tcp_recv_all(h).len();
                    if self.echoed == 2000 {
                        ctx.tcp_close(h);
                        self.second = Some(ctx.tcp_connect(SocketAddr::new(SERVER, 81)));
                    }
                }
                AppEvent::Tcp(h, TcpEvent::Connected) if Some(h) == self.second => {
                    assert_eq!(ctx.tcp_send(h, b"one more"), Some(8));
                    ctx.tcp_close(h);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn destinations_without_a_route_are_dropped_and_counted() {
        struct Stray(Addr);
        impl App for Stray {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.raw_send(self.0, 47, Bytes::from_static(b"x"));
            }
            fn on_event(&mut self, _: AppEvent, _: &mut Ctx<'_>) {}
        }
        let mut sim = Sim::new(1);
        let a = sim.add_node("a", CLIENT);
        let b = sim.add_node("b", SERVER);
        sim.add_link(a, b, LinkConfig::with_delay(SimDuration::from_millis(1)));
        sim.compute_routes();
        // An address no node owns, and a node the routes were computed
        // without: both are lookups that must miss, not index past the table.
        let nowhere = Addr::new(203, 0, 113, 9);
        let late = Addr::new(99, 0, 0, 2);
        sim.add_node("late", late);
        sim.install_app(a, Box::new(Stray(nowhere)));
        sim.install_app(a, Box::new(Stray(late)));
        sim.run_until_idle();
        assert_eq!(sim.stats.drops[&DropReason::NoRoute], 2);
        assert_eq!(sim.stats.packets_sent, 0);
        assert_eq!(sim.stats.by_addr(CLIENT).dropped, 2);
        assert_eq!(sim.stats.by_addr(nowhere).dropped, 1);
        assert_eq!(sim.stats.by_addr(late).dropped, 1);
    }

    #[test]
    fn tcp_steps_taken_from_inside_on_event_put_the_same_segments_on_the_wire() {
        let mut sim = Sim::new(5);
        let a = sim.add_node("client", CLIENT);
        let r = sim.add_node("router", Addr::new(10, 0, 0, 254));
        let b = sim.add_node("server", SERVER);
        sim.add_link(a, r, LinkConfig::with_delay(SimDuration::from_millis(5)));
        sim.add_link(r, b, LinkConfig::with_delay(SimDuration::from_millis(5)));
        sim.compute_routes();
        let wire = Rc::new(RefCell::new(Vec::new()));
        sim.set_middlebox(r, Box::new(WireLog(wire.clone())));
        sim.install_app(b, Box::new(Echo));
        sim.install_app(a, Box::new(Chatter { first: None, second: None, echoed: 0 }));
        sim.run_until_idle();
        // What the router saw when every step built and dropped an
        // `Effects` of its own (recorded from that implementation).
        let expected = [
            "5003 40000>80 S 1000:0 +0",
            "15009 80>40000 SA 1000:1001 +0",
            "25015 40000>80 A 1001:1001 +0",
            "25130 40000>80 A 1001:1001 +1400",
            "25181 40000>80 A 2401:1001 +600",
            "35248 80>40000 A 1001:2401 +0",
            "35363 80>40000 A 1001:2401 +1400",
            "35366 80>40000 A 2401:3001 +0",
            "35417 80>40000 A 2401:3001 +600",
            "45481 40000>80 A 3001:2401 +0",
            "45535 40000>80 A 3001:3001 +0",
            "45538 40000>80 AF 3001:3001 +0",
            "45541 40001>81 S 101000:0 +0",
            "55544 80>40000 A 3001:3002 +0",
            "55547 80>40000 AF 3001:3002 +0",
            "55550 81>40001 SA 101000:101001 +0",
            "65553 40000>80 A 3002:3002 +0",
            "65556 40001>81 A 101001:101001 +0",
            "65560 40001>81 A 101001:101001 +8",
            "65563 40001>81 AF 101009:101001 +0",
            "75567 81>40001 A 101001:101009 +0",
            "75571 81>40001 A 101001:101009 +8",
            "75574 81>40001 A 101009:101010 +0",
            "75577 81>40001 AF 101009:101010 +0",
            "85578 40001>81 A 101010:101009 +0",
            "85584 40001>81 A 101010:101010 +0",
        ];
        assert_eq!(*wire.borrow(), expected);
        // The last event is a TIME_WAIT expiry, a second after the close.
        assert_eq!(sim.now().as_micros(), 1_080_581);
        assert_eq!((sim.stats.packets_sent, sim.stats.packets_delivered), (26, 26));
        assert_eq!((sim.stats.events_processed, sim.stats.timers_fired), (70, 16));
        assert_eq!(sim.stats.queue_depth_hwm, 17);
        // Every step handed the scratch back, drained and still grown.
        assert!(sim.fx.out.is_empty() && sim.fx.timers.is_empty() && sim.fx.app_events.is_empty());
        assert!(sim.fx.out.capacity() > 0 && sim.fx.timers.capacity() > 0);
        assert!(sim.fx.app_events.capacity() > 0);
    }
}
