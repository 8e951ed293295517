//! Connection-level simulation over a topology.
//!
//! Opening a connection walks the route's crossbars, paying the route-byte
//! decode at each hop (plus link serialisation of the header) and claiming
//! the output ports; transfers then stream at link rate, cut-through, with
//! per-segment propagation added once (wormhole pipelining); `close`
//! releases the ports.

use crate::crossbar::Crossbar;
use crate::fault::LinkRef;
use crate::outcome::TransferOutcome;
use crate::stopwire::{self, StallWindows, StopWireConfig, StopWireEngine, StopWireStats};
use crate::topology::{LinkKey, LinkKind, NodeId, Route, Topology};
use crate::transceiver::TransceiverConfig;
use crate::wire::WireConfig;
use pm_sim::time::{Duration, Time};
use std::collections::HashSet;

/// Why a connection could not be opened.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RouteError {
    /// No path exists between the nodes on the requested plane(s), even
    /// with every link healthy.
    NoPath,
    /// A path exists in the topology, but every candidate crosses a dead
    /// link — the fault plan partitioned the requested plane(s).
    NoHealthyPath,
    /// A healthy path exists, but one of its crossbar outputs is held by
    /// a connection that is still open. The open claimed *nothing* —
    /// retry after the blocking connection closes. Before this variant,
    /// a held output mid-route panicked after earlier hops had already
    /// been claimed, leaking those claims.
    PortHeld,
}

impl core::fmt::Display for RouteError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RouteError::NoPath => f.write_str("no path between the nodes on this plane"),
            RouteError::NoHealthyPath => {
                f.write_str("every path between the nodes crosses a dead link")
            }
            RouteError::PortHeld => {
                f.write_str("a crossbar output on the route is held by an open connection")
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// How [`Network::open_with_failover`] satisfied an open.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FailoverOutcome {
    /// The plane the connection actually uses.
    pub plane: u32,
    /// Whether the preferred plane was abandoned for the other one
    /// (tier-2 recovery: the duplicated network absorbed the fault,
    /// degrading aggregate bandwidth 240→120 MB/s).
    pub failed_over: bool,
    /// Whether the chosen plane's naive shortest route crosses a dead
    /// link, so the connection runs on a detour within the plane.
    pub rerouted: bool,
}

/// A topology plus live crossbar state.
///
/// # Examples
///
/// ```
/// use pm_net::network::Network;
/// use pm_net::topology::Topology;
/// use pm_sim::time::Time;
///
/// let mut net = Network::new(Topology::two_nodes());
/// let mut conn = net.open(0, 1, 0, Time::ZERO).expect("path exists");
/// let outcome = conn.transfer(conn.ready_at(), 256);
/// conn.close(&mut net, outcome.finished);
/// ```
#[derive(Clone, Debug)]
pub struct Network {
    topology: Topology,
    crossbars: Vec<Crossbar>,
    /// Canonical keys of permanently failed links. Routing never
    /// crosses them; [`Network::open_with_failover`] falls back to the
    /// other plane when they partition the preferred one.
    dead_links: HashSet<LinkKey>,
}

/// How a backpressured transfer maps route segments onto stop wires.
///
/// Every segment of the route gets a stop-wire state: synchronous
/// backplane segments use [`RouteBackpressure::sync_stop`], asynchronous
/// transceiver segments (inter-cabinet, deep 2-KB FIFO with skid-byte
/// lag) use [`RouteBackpressure::async_stop`]. The destination NI's
/// inability to accept bytes is expressed as stall windows on the
/// shared link-tick timeline; the stop chain carries them hop by hop
/// back to the source.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouteBackpressure {
    /// Engine that computes every per-segment stream.
    pub engine: StopWireEngine,
    /// Stop-wire geometry of clock-synchronous backplane segments.
    pub sync_stop: StopWireConfig,
    /// Stop-wire geometry of asynchronous transceiver segments.
    pub async_stop: StopWireConfig,
    /// Absolute link ticks during which the destination NI cannot
    /// accept bytes (sorted, disjoint, half-open), on the same timeline
    /// as [`crate::flitsim::Backpressure`] windows: tick k covers
    /// `[k * byte_time, (k + 1) * byte_time)`.
    pub dst_windows: StallWindows,
}

impl RouteBackpressure {
    /// PowerMANNA hardware: batched engine, the backplane link's
    /// 256-byte FIFO geometry on synchronous segments and the 30 m
    /// transceiver's 2-KB FIFO on asynchronous ones.
    pub fn powermanna(dst_windows: StallWindows) -> Self {
        RouteBackpressure {
            engine: StopWireEngine::Batched,
            sync_stop: StopWireConfig::powermanna(),
            async_stop: TransceiverConfig::default().stop_wire(),
            dst_windows,
        }
    }
}

/// An open wormhole connection.
#[derive(Clone, Debug)]
pub struct Connection {
    route: Route,
    ready_at: Time,
    /// Sum of per-segment propagation + per-hop pass-through delays: the
    /// time the *first* byte needs from source NI to destination NI.
    head_latency: Duration,
    byte_time: Duration,
    closed: bool,
    bytes: u64,
}

impl Network {
    /// Creates a network with all crossbars idle.
    pub fn new(topology: Topology) -> Self {
        let crossbars = (0..topology.crossbars())
            .map(|x| Crossbar::new(topology.crossbar_config(x)))
            .collect();
        Network {
            topology,
            crossbars,
            dead_links: HashSet::new(),
        }
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Live crossbar state (for conflict statistics).
    pub fn crossbar(&self, id: usize) -> &Crossbar {
        &self.crossbars[id]
    }

    /// Resolves a fault-plan [`LinkRef`] to the canonical key of the
    /// physical link it names, or `None` if no such link exists.
    pub fn link_key(&self, link: LinkRef) -> Option<LinkKey> {
        match link {
            LinkRef::NodeLink { node, plane } => self.topology.node_link_key(node, plane),
            LinkRef::XbarPort { xbar, port } => self.topology.canonical_link_key(xbar, port),
        }
    }

    /// Marks a link permanently dead. Routing immediately stops using
    /// it; connections already open keep their (now fictional) claim
    /// until closed — the caller decides whether in-flight worms were
    /// severed. Returns the canonical key, or `None` if the reference
    /// names no connected link.
    pub fn fail_link(&mut self, link: LinkRef) -> Option<LinkKey> {
        let key = self.link_key(link)?;
        self.dead_links.insert(key);
        Some(key)
    }

    /// Number of dead links.
    pub fn dead_links(&self) -> usize {
        self.dead_links.len()
    }

    /// Whether the link with canonical key `key` is dead.
    pub fn is_link_dead(&self, key: LinkKey) -> bool {
        self.dead_links.contains(&key)
    }

    /// Publishes crossbar route/conflict counters and the dead-link
    /// count under `prefix`: `{prefix}/dead_links` plus one
    /// `{prefix}/xbar{i}/...` subtree per crossbar (see
    /// [`Crossbar::publish_metrics`]).
    pub fn publish_metrics(&self, reg: &mut pm_sim::metrics::MetricRegistry, prefix: &str) {
        reg.count(
            &format!("{prefix}/dead_links"),
            self.dead_links.len() as u64,
        );
        for (i, xb) in self.crossbars.iter().enumerate() {
            xb.publish_metrics(reg, &format!("{prefix}/xbar{i}"));
        }
    }

    /// Whether every link on `route` is healthy.
    pub fn route_is_healthy(&self, route: &Route) -> bool {
        self.dead_links.is_empty()
            || self
                .topology
                .route_link_keys(route)
                .iter()
                .all(|k| !self.dead_links.contains(k))
    }

    /// Opens a wormhole connection from `src` to `dst` on `plane` at `t`.
    ///
    /// The message header carries one route byte per crossbar; each hop
    /// consumes its byte (serialised over the incoming segment) and
    /// arbitrates for the output. The returned connection is ready for
    /// payload at [`Connection::ready_at`].
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::NoPath`] if the nodes are not connected on
    /// the plane, [`RouteError::NoHealthyPath`] if they are but every
    /// path crosses a link a fault plan has killed
    /// ([`Network::fail_link`]), or [`RouteError::PortHeld`] if the
    /// route exists but a crossbar output on it is still held by an
    /// open connection (nothing is claimed in that case).
    pub fn open(
        &mut self,
        src: NodeId,
        dst: NodeId,
        plane: u32,
        t: Time,
    ) -> Result<Connection, RouteError> {
        match self
            .topology
            .route_avoiding(src, dst, plane, &self.dead_links)
        {
            Some(route) => self.try_establish(route, t),
            None if self.topology.route(src, dst, plane).is_some() => {
                Err(RouteError::NoHealthyPath)
            }
            None => Err(RouteError::NoPath),
        }
    }

    /// Opens a connection on `preferred_plane` if it still has a healthy
    /// route, otherwise on the other plane — the duplicated network's
    /// whole reason to exist. The returned [`FailoverOutcome`] says
    /// which plane served the open and whether the route detoured.
    ///
    /// # Errors
    ///
    /// [`RouteError::NoHealthyPath`] if both planes are partitioned by
    /// dead links; [`RouteError::NoPath`] if no path exists even on a
    /// fault-free topology, or if `preferred_plane` is neither 0 nor 1
    /// (as [`Network::open`] reports for a plane the topology lacks);
    /// [`RouteError::PortHeld`] if a healthy route exists but every
    /// plane's candidate is blocked by a held crossbar output (a held
    /// preferred plane fails over to the other plane just like a dead
    /// one).
    pub fn open_with_failover(
        &mut self,
        src: NodeId,
        dst: NodeId,
        preferred_plane: u32,
        t: Time,
    ) -> Result<(Connection, FailoverOutcome), RouteError> {
        if preferred_plane > 1 {
            return Err(RouteError::NoPath);
        }
        let mut saw_unhealthy = false;
        let mut saw_held = false;
        for (i, plane) in [preferred_plane, 1 - preferred_plane]
            .into_iter()
            .enumerate()
        {
            match self
                .topology
                .route_avoiding(src, dst, plane, &self.dead_links)
            {
                Some(route) => {
                    let rerouted = !self.dead_links.is_empty()
                        && self
                            .topology
                            .route(src, dst, plane)
                            .is_some_and(|naive| !self.route_is_healthy(&naive));
                    let outcome = FailoverOutcome {
                        plane,
                        failed_over: i == 1,
                        rerouted,
                    };
                    match self.try_establish(route, t) {
                        Ok(conn) => return Ok((conn, outcome)),
                        Err(_) => saw_held = true,
                    }
                }
                None => {
                    saw_unhealthy |= self.topology.route(src, dst, plane).is_some();
                }
            }
        }
        Err(if saw_held {
            RouteError::PortHeld
        } else if saw_unhealthy {
            RouteError::NoHealthyPath
        } else {
            RouteError::NoPath
        })
    }

    /// Claims every crossbar output on `route` and builds the
    /// connection (the shared tail of every `open` flavour). The claim
    /// is all-or-nothing: outputs are checked *before* any hop routes,
    /// so a held output mid-route returns [`RouteError::PortHeld`]
    /// having claimed nothing — no partially-opened route ever leaks
    /// port claims for a later open to trip over.
    fn try_establish(&mut self, route: Route, t: Time) -> Result<Connection, RouteError> {
        if route
            .hops
            .iter()
            .any(|h| self.crossbars[h.xbar].is_held(h.out_port))
        {
            return Err(RouteError::PortHeld);
        }
        let byte_time = WireConfig::synchronous().byte_time;

        let mut head_latency = Duration::ZERO;
        for kind in &route.segments {
            head_latency += segment_latency(*kind);
        }

        // Route bytes: one per hop, decoded in sequence.
        let mut cursor = t;
        for hop in &route.hops {
            // The route byte must be serialised over the incoming segment
            // before the crossbar can decode it.
            cursor += byte_time;
            let grant = self.crossbars[hop.xbar].route(hop.in_port, hop.out_port, cursor);
            cursor = grant.established;
        }
        // The connection is usable as soon as the last hop is
        // established: the source NI can start pushing payload the
        // moment the final route byte is decoded. Path propagation is
        // charged exactly once, per transfer, as `head_latency` — NOT
        // here, or a transfer right after open would pay it twice.
        // Pinned by `open_then_immediate_transfer_charges_propagation_once`.
        let ready_at = cursor;

        Ok(Connection {
            route,
            ready_at,
            head_latency,
            byte_time,
            closed: false,
            bytes: 0,
        })
    }
}

impl Connection {
    /// When the connection became usable for payload.
    pub fn ready_at(&self) -> Time {
        self.ready_at
    }

    /// The route this connection holds.
    pub fn route(&self) -> &Route {
        &self.route
    }

    /// Latency of the first byte from source NI to destination NI.
    pub fn head_latency(&self) -> Duration {
        self.head_latency
    }

    /// Streams `bytes` of payload into the connection starting at `start`
    /// (not before the connection is ready); the returned
    /// [`TransferOutcome::finished`] is when the last byte arrives at
    /// the destination NI.
    ///
    /// Wormhole cut-through: the stream pays the head latency once and
    /// then flows at link rate.
    ///
    /// # Panics
    ///
    /// Panics if the connection is closed.
    pub fn transfer(&mut self, start: Time, bytes: u64) -> TransferOutcome {
        assert!(!self.closed, "transfer on closed connection");
        let begin = start.max(self.ready_at);
        self.bytes += bytes;
        let source_released = begin + self.byte_time * bytes;
        TransferOutcome::streamed(
            source_released + self.head_latency,
            source_released,
            bytes,
            self.route.plane,
        )
    }

    /// Streams `bytes` of payload under end-to-end stop-wire flow
    /// control: every route segment gets a stop-wire state per
    /// `bp`, and the destination's stall windows backpressure the whole
    /// worm hop by hop. With no stall windows this degenerates to
    /// [`Connection::transfer`] timing (modulo quantisation of the
    /// start to the next link tick — the tick model is byte-clocked).
    ///
    /// The start is clamped to [`Connection::ready_at`] and mapped to
    /// the link-tick timeline exactly like
    /// [`crate::flitsim::FlitSim::run_with_backpressure`] does, so a
    /// single-crossbar route is byte-identical to
    /// [`stopwire::stream_per_flit`] (pinned in `tests/parity.rs`).
    ///
    /// # Panics
    ///
    /// Panics if the connection is closed, or if the route has multiple
    /// segments whose stop-wire configs violate the composition
    /// condition (see [`stopwire::stream_route`]).
    pub fn transfer_backpressured(
        &mut self,
        start: Time,
        bytes: u64,
        bp: &RouteBackpressure,
    ) -> TransferOutcome {
        assert!(!self.closed, "transfer on closed connection");
        let begin = start.max(self.ready_at);
        self.bytes += bytes;
        if bytes == 0 {
            let mut outcome =
                TransferOutcome::streamed(begin + self.head_latency, begin, 0, self.route.plane);
            outcome.per_segment = vec![StopWireStats::default(); self.route.segments.len()];
            return outcome;
        }
        let bt = self.byte_time.as_ps();
        let start_tick = begin.as_ps().div_ceil(bt);
        let configs = self.route.stop_configs(bp.sync_stop, bp.async_stop);
        let flow = stopwire::stream_route(bp.engine, &configs, start_tick, bytes, &bp.dst_windows);
        // Tick k's byte is on the wire until (k + 1) * byte_time;
        // the head latency is charged once, as in `transfer`.
        let mut outcome = TransferOutcome::streamed(
            Time::from_ps((flow.finish_tick + 1) * bt) + self.head_latency,
            Time::from_ps((flow.source_finish_tick + 1) * bt),
            bytes,
            self.route.plane,
        );
        outcome.stop_transitions = flow.stop_transitions;
        outcome.stalled_ticks = flow.stalled_ticks;
        outcome.per_segment = flow.per_segment;
        outcome
    }

    /// Sends the close command at `t`, releasing every crossbar output on
    /// the route.
    ///
    /// # Panics
    ///
    /// Panics if already closed.
    pub fn close(&mut self, net: &mut Network, t: Time) {
        assert!(!self.closed, "double close");
        self.closed = true;
        // The close byte trails the payload through each hop.
        let mut cursor = t + self.byte_time;
        for hop in &self.route.hops {
            net.crossbars[hop.xbar].close(hop.out_port, cursor);
            cursor += self.byte_time;
        }
    }

    /// Total payload bytes sent over this connection.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Whether close has been recorded.
    pub fn is_closed(&self) -> bool {
        self.closed
    }
}

/// Propagation of one link segment by kind.
fn segment_latency(kind: LinkKind) -> Duration {
    match kind {
        LinkKind::Synchronous => WireConfig::synchronous().latency,
        LinkKind::Asynchronous => WireConfig::asynchronous().latency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    #[test]
    fn one_hop_setup_is_route_time_plus_header() {
        let mut net = Network::new(Topology::two_nodes());
        let conn = net.open(0, 1, 0, Time::ZERO).unwrap();
        // One route byte (16.7 ns) + 0.2 us decode.
        let us = conn.ready_at().as_us_f64();
        assert!(
            (0.2..0.25).contains(&us),
            "setup {us:.3} us should be ~0.217"
        );
    }

    #[test]
    fn three_hop_setup_scales_with_crossbars() {
        let mut net = Network::new(Topology::system256());
        let conn = net.open(0, 127, 0, Time::ZERO).unwrap();
        assert_eq!(conn.route().crossbars(), 3);
        let us = conn.ready_at().as_us_f64();
        assert!(
            (0.6..0.75).contains(&us),
            "3-hop setup {us:.3} us should be ~0.65"
        );
    }

    #[test]
    fn transfer_streams_at_link_rate() {
        let mut net = Network::new(Topology::two_nodes());
        let mut conn = net.open(0, 1, 0, Time::ZERO).unwrap();
        let start = conn.ready_at();
        let done = conn.transfer(start, 60_000).finished;
        // 60 KB at 60 MB/s = 1 ms, plus small latencies.
        let ms = done.since(start).as_secs_f64() * 1e3;
        assert!((0.99..1.05).contains(&ms), "60 KB took {ms:.3} ms");
    }

    #[test]
    fn close_releases_ports_for_new_connections() {
        let mut net = Network::new(Topology::two_nodes());
        let mut c1 = net.open(0, 1, 0, Time::ZERO).unwrap();
        let done = c1.transfer(c1.ready_at(), 100).finished;
        c1.close(&mut net, done);
        // A second connection from the other node to the same destination
        // port must wait for the close.
        let c2 = net
            .open(0, 1, 0, Time::ZERO)
            .unwrap_or_else(|e| panic!("{e}"));
        assert!(c2.ready_at() >= done);
        assert!(net.crossbar(0).conflicts() >= 1);
    }

    #[test]
    fn planes_give_independent_bandwidth() {
        let mut net = Network::new(Topology::two_nodes());
        let mut a = net.open(0, 1, 0, Time::ZERO).unwrap();
        let mut b = net.open(0, 1, 1, Time::ZERO).unwrap();
        let ta = a.transfer(a.ready_at(), 6_000);
        let tb = b.transfer(b.ready_at(), 6_000);
        // Both streams complete in parallel — the duplicated network
        // doubles aggregate bandwidth (240 MB/s total claim of §1).
        assert_eq!(ta.finished, tb.finished);
        // The outcome carries the plane that served each stream.
        assert_eq!(ta.plane, 0);
        assert_eq!(tb.plane, 1);
    }

    #[test]
    fn no_path_is_an_error() {
        let mut net = Network::new(Topology::two_nodes());
        assert_eq!(
            net.open(0, 0, 0, Time::ZERO).unwrap_err(),
            RouteError::NoPath
        );
        // A plane the duplicated network does not have is no path on
        // either entry point, not a panic in the failover arithmetic.
        for plane in [2, u32::MAX] {
            assert_eq!(
                net.open(0, 1, plane, Time::ZERO).unwrap_err(),
                RouteError::NoPath
            );
            assert_eq!(
                net.open_with_failover(0, 1, plane, Time::ZERO).unwrap_err(),
                RouteError::NoPath
            );
        }
        assert_eq!(net.crossbar(0).routes(), 0, "nothing was claimed");
    }

    #[test]
    #[should_panic(expected = "double close")]
    fn double_close_panics() {
        let mut net = Network::new(Topology::two_nodes());
        let mut c = net.open(0, 1, 0, Time::ZERO).unwrap();
        c.close(&mut net, c.ready_at());
        let t = c.ready_at() + Duration::from_us(1);
        c.close(&mut net, t);
    }

    #[test]
    fn open_then_immediate_transfer_charges_propagation_once() {
        // Regression for the open()/ready_at contradiction: ready_at is
        // when the last hop is established (no propagation), and the
        // transfer charges head_latency exactly once.
        let mut net = Network::new(Topology::two_nodes());
        let mut conn = net.open(0, 1, 0, Time::ZERO).unwrap();
        // One route byte serialised (16.667 ns) + one 0.2 us decode,
        // with no propagation folded in.
        assert_eq!(conn.ready_at().as_ps(), 16_667 + 200_000);
        let start = conn.ready_at();
        let o = conn.transfer(start, 1);
        let expected = start + conn.head_latency() + WireConfig::synchronous().byte_time;
        assert_eq!(o.finished, expected, "head latency must be charged once");
        assert_eq!(
            o.source_released,
            start + WireConfig::synchronous().byte_time,
            "the tail leaves the source one byte slot in"
        );
        // Two back-to-back transfers pay it twice in total, not thrice:
        // each stream's head pays the pipeline fill.
        let done2 = conn.transfer(o.finished, 1).finished;
        assert_eq!(
            done2,
            o.finished + conn.head_latency() + WireConfig::synchronous().byte_time
        );
    }

    #[test]
    fn unobstructed_backpressured_transfer_matches_plain_transfer() {
        let mut net = Network::new(Topology::two_nodes());
        let mut conn = net.open(0, 1, 0, Time::ZERO).unwrap();
        let start = conn.ready_at();
        let plain = conn.transfer(start, 4096).finished;
        let bp = RouteBackpressure::powermanna(Vec::new());
        let stats = conn.transfer_backpressured(start, 4096, &bp);
        // Start quantises up to the next link tick; otherwise identical.
        let bt = WireConfig::synchronous().byte_time.as_ps();
        let slack = bt - start.as_ps() % bt;
        assert_eq!(stats.finished.as_ps(), plain.as_ps() + slack % bt);
        assert_eq!(stats.stalled_ticks, 0);
        assert_eq!(stats.stop_transitions, 0);
    }

    #[test]
    fn blocked_destination_backpressures_transfer_end_to_end() {
        let mut net = Network::new(Topology::system256());
        let mut conn = net.open(8, 127, 0, Time::ZERO).unwrap();
        assert_eq!(conn.route().crossbars(), 3, "inter-cluster route");
        let start = conn.ready_at();
        let bt = WireConfig::synchronous().byte_time.as_ps();
        let t0 = start.as_ps().div_ceil(bt);
        // Destination blocked for 6000 ticks from the transfer start.
        let bp = RouteBackpressure::powermanna(vec![(t0, t0 + 6000)]);
        let free = conn.transfer(start, 8192).finished;
        let stats = conn.transfer_backpressured(start, 8192, &bp);
        assert!(stats.finished > free, "the block must delay the tail");
        assert!(stats.stalled_ticks > 0, "the source must feel it");
        assert!(stats.stop_transitions >= 1);
        assert_eq!(stats.per_segment.len(), conn.route().segments.len());
        for s in &stats.per_segment {
            assert_eq!(s.delivered, 8192, "lossless on every segment");
        }
        assert!(
            stats.source_released < stats.finished,
            "downstream FIFOs hold the tail after the source link frees"
        );
    }

    #[test]
    fn zero_byte_backpressured_transfer_is_head_latency_only() {
        let mut net = Network::new(Topology::two_nodes());
        let mut conn = net.open(0, 1, 0, Time::ZERO).unwrap();
        let bp = RouteBackpressure::powermanna(vec![(0, 1_000_000)]);
        let stats = conn.transfer_backpressured(conn.ready_at(), 0, &bp);
        assert_eq!(stats.finished, conn.ready_at() + conn.head_latency());
        assert_eq!(stats.stalled_ticks, 0);
    }

    #[test]
    fn network_metrics_expose_per_port_conflicts() {
        let mut net = Network::new(Topology::two_nodes());
        let mut c1 = net.open(0, 1, 0, Time::ZERO).unwrap();
        let done = c1.transfer(c1.ready_at(), 100).finished;
        c1.close(&mut net, done);
        let _c2 = net.open(0, 1, 0, Time::ZERO).unwrap();
        let mut reg = pm_sim::metrics::MetricRegistry::new();
        net.publish_metrics(&mut reg, "net");
        assert_eq!(reg.counter_value("net/xbar0/routes"), Some(2));
        assert_eq!(reg.counter_value("net/xbar0/conflicts"), Some(1));
        // Both opens targeted the same output port; its per-port counter
        // carries the whole story.
        let port_conflicts: u64 = (0..16)
            .filter_map(|p| reg.counter_value(&format!("net/xbar0/port{p}/conflicts")))
            .sum();
        assert_eq!(port_conflicts, 1);
        assert_eq!(reg.counter_value("net/dead_links"), Some(0));
    }

    #[test]
    fn dead_node_link_fails_over_to_the_other_plane() {
        let mut net = Network::new(Topology::two_nodes());
        net.fail_link(LinkRef::NodeLink { node: 0, plane: 0 });
        // Plain open on the dead plane is a typed error, distinct from
        // a topology with no path at all.
        assert_eq!(
            net.open(0, 1, 0, Time::ZERO).unwrap_err(),
            RouteError::NoHealthyPath
        );
        // Failover serves the open on plane 1.
        let (conn, outcome) = net.open_with_failover(0, 1, 0, Time::ZERO).unwrap();
        assert_eq!(outcome.plane, 1);
        assert!(outcome.failed_over);
        assert!(!outcome.rerouted);
        assert_eq!(conn.route().plane, 1);
    }

    #[test]
    fn healthy_preferred_plane_is_not_failed_over() {
        let mut net = Network::new(Topology::two_nodes());
        let (_, outcome) = net.open_with_failover(0, 1, 1, Time::ZERO).unwrap();
        assert_eq!(
            outcome,
            FailoverOutcome {
                plane: 1,
                failed_over: false,
                rerouted: false
            }
        );
    }

    #[test]
    fn dead_middle_link_reroutes_within_the_plane() {
        let mut net = Network::new(Topology::system256());
        let naive = net.topology().route(8, 127, 0).unwrap();
        let key = net
            .topology()
            .canonical_link_key(naive.hops[0].xbar, naive.hops[0].out_port)
            .unwrap();
        net.fail_link(LinkRef::XbarPort {
            xbar: key.0,
            port: key.1,
        });
        let (conn, outcome) = net.open_with_failover(8, 127, 0, Time::ZERO).unwrap();
        assert_eq!(outcome.plane, 0, "8 middle crossbars: no failover needed");
        assert!(!outcome.failed_over);
        assert!(outcome.rerouted);
        assert!(net.route_is_healthy(conn.route()));
    }

    #[test]
    fn both_planes_dead_is_no_healthy_path() {
        let mut net = Network::new(Topology::two_nodes());
        net.fail_link(LinkRef::NodeLink { node: 1, plane: 0 });
        net.fail_link(LinkRef::NodeLink { node: 1, plane: 1 });
        assert_eq!(
            net.open_with_failover(0, 1, 0, Time::ZERO).unwrap_err(),
            RouteError::NoHealthyPath
        );
        // A genuinely disconnected pair still reports NoPath.
        assert_eq!(
            net.open_with_failover(0, 0, 0, Time::ZERO).unwrap_err(),
            RouteError::NoPath
        );
    }

    #[test]
    fn fail_link_on_a_missing_link_is_none() {
        let mut net = Network::new(Topology::two_nodes());
        assert!(net
            .fail_link(LinkRef::NodeLink { node: 99, plane: 0 })
            .is_none());
        assert!(net
            .fail_link(LinkRef::XbarPort { xbar: 0, port: 15 })
            .is_none());
        assert_eq!(net.dead_links(), 0);
    }

    #[test]
    fn held_output_mid_route_fails_cleanly_without_leaking_claims() {
        // Regression: a held output on hop 2 of a 3-crossbar route used
        // to panic *after* hop 1 had already been claimed, leaking the
        // claim. The open must now claim nothing and report PortHeld.
        let mut net = Network::new(Topology::system256());
        let a = net.open(0, 127, 0, Time::ZERO).unwrap();
        let routes_before: u64 = (0..net.topology().crossbars())
            .map(|x| net.crossbar(x).routes())
            .sum();
        // Node 1 shares node 0's cluster crossbar; the oblivious route
        // to 126 wants the same first uplink and middle crossbar.
        let blocked = net.open(1, 126, 0, Time::ZERO);
        assert_eq!(blocked.unwrap_err(), RouteError::PortHeld);
        let routes_after: u64 = (0..net.topology().crossbars())
            .map(|x| net.crossbar(x).routes())
            .sum();
        assert_eq!(routes_before, routes_after, "failed open claimed a port");
        // Only the first connection's three outputs are held.
        let held: usize = (0..net.topology().crossbars())
            .map(|x| {
                let ports = net.topology().crossbar_config(x).ports;
                (0..ports).filter(|&p| net.crossbar(x).is_held(p)).count()
            })
            .sum();
        assert_eq!(held, a.route().crossbars());
        // Once the blocker closes, the same open succeeds.
        let mut a = a;
        a.close(&mut net, Time::ZERO + Duration::from_us(1));
        net.open(1, 126, 0, Time::ZERO).expect("route freed");
    }

    #[test]
    fn held_preferred_plane_fails_over_like_a_dead_one() {
        let mut net = Network::new(Topology::two_nodes());
        let _a = net.open(0, 1, 0, Time::ZERO).unwrap();
        let (b, outcome) = net.open_with_failover(0, 1, 0, Time::ZERO).unwrap();
        assert!(outcome.failed_over);
        assert_eq!(outcome.plane, 1);
        assert_eq!(b.route().plane, 1);
        // With both planes held, the error is PortHeld — not a panic,
        // and not misreported as a partition.
        assert_eq!(
            net.open_with_failover(0, 1, 0, Time::ZERO).unwrap_err(),
            RouteError::PortHeld
        );
    }

    #[test]
    fn async_segments_add_latency() {
        let mut local = Network::new(Topology::system256());
        let near = local.open(0, 7, 0, Time::ZERO).unwrap(); // same cluster
        let far = local.open(8, 127, 0, Time::ZERO).unwrap(); // across middle stage
        assert!(far.head_latency() > near.head_latency());
    }
}
