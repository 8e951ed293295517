//! Connection-level simulation over a topology.
//!
//! Opening a connection walks the route's crossbars, paying the route-byte
//! decode at each hop (plus link serialisation of the header) and claiming
//! the output ports; transfers then stream at link rate, cut-through, with
//! per-segment propagation added once (wormhole pipelining); `close`
//! releases the ports.
//!
//! The same model runs the mesh side of §3's blocking argument: "Less
//! expensive mesh topologies, however, as used in the PARAGON or Cray
//! T3E systems, exhibit a poor blocking behavior." [`Network::mesh`]
//! builds a 2-D mesh from the same parts — one five-port router per
//! node, 0.2 µs decode, 60 MB/s links — and routes it XY, so a mesh
//! connection holds the router output of *every* link on its path until
//! close, which is why long mesh paths block each other so much more
//! than single-stage crossbar routes do. Experiment X6 runs the same
//! traffic through both.
//!
//! The model has no faults: every link is alive, and each open takes
//! [`Topology::route`], or on a mesh its XY route. X12's scenario
//! engine (`pm_core::traffic`) applies a fault plan's link deaths
//! itself by choosing the plane it opens on.

use crate::crossbar::{Crossbar, CrossbarConfig};
use crate::outcome::TransferOutcome;
use crate::stopwire::{self, StallWindows, StopWireConfig, StopWireStats};
use crate::topology::{Hop, LinkKind, NodeId, Route, Topology};
use crate::transceiver::TransceiverConfig;
use crate::wire::WireConfig;
use pm_sim::time::{Duration, Time};
use std::cmp::Ordering;

/// Why a connection could not be opened.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RouteError {
    /// No path exists between the nodes on the requested plane.
    NoPath,
    /// A path exists, but one of its crossbar outputs is held by
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
            RouteError::PortHeld => {
                f.write_str("a crossbar output on the route is held by an open connection")
            }
        }
    }
}

impl std::error::Error for RouteError {}

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
    /// Row length of a [`Network::mesh`], whose opens route XY; `None`
    /// routes by [`Topology::route`].
    mesh_width: Option<u32>,
}

/// Mesh router output ports, in [`Network::mesh`]'s order: one per
/// direction, then the node's own. Opposite directions differ in the
/// lowest bit.
const EAST: u32 = 0;
const WEST: u32 = 1;
const SOUTH: u32 = 2;
const NORTH: u32 = 3;
const LOCAL: u32 = 4;

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
    /// Stop-wire geometry of clock-synchronous backplane segments.
    pub sync_stop: StopWireConfig,
    /// Stop-wire geometry of asynchronous transceiver segments.
    pub async_stop: StopWireConfig,
    /// Absolute link ticks during which the destination NI cannot
    /// accept bytes (sorted, disjoint, half-open), on the same timeline
    /// as [`crate::routesim::Backpressure`] windows: tick k covers
    /// `[k * byte_time, (k + 1) * byte_time)`.
    pub dst_windows: StallWindows,
}

impl RouteBackpressure {
    /// PowerMANNA hardware: the backplane link's 256-byte FIFO geometry
    /// on synchronous segments and the 30 m transceiver's 2-KB FIFO on
    /// asynchronous ones.
    pub fn powermanna(dst_windows: StallWindows) -> Self {
        RouteBackpressure {
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
            mesh_width: None,
        }
    }

    /// A `width` x `height` 2-D mesh from PowerMANNA-era parts: node `n`
    /// sits at column `n % width`, row `n / width`, inside its own
    /// five-port router with [`CrossbarConfig::powermanna`] timing
    /// (outputs east, west, south, north, then the node's link
    /// interface on plane 0) and 60 MB/s synchronous links between
    /// neighbours. The mesh has one plane. Opens route XY
    /// (dimension-ordered: along the row, then the column); each hop
    /// claims the router output of one inter-router link, and the
    /// route's segments are those links. [`Topology::route`] on the
    /// mesh's topology is not that route: it stops at
    /// [`MAX_ROUTE_CROSSBARS`](crate::topology::MAX_ROUTE_CROSSBARS).
    ///
    /// # Examples
    ///
    /// ```
    /// use pm_net::network::Network;
    /// use pm_sim::time::Time;
    ///
    /// let mut mesh = Network::mesh(4, 4);
    /// let mut conn = mesh.open(0, 15, 0, Time::ZERO).expect("idle mesh");
    /// assert_eq!(conn.route().crossbars(), 6, "corner to corner");
    /// let outcome = conn.transfer(conn.ready_at(), 1024);
    /// conn.close(&mut mesh, outcome.finished);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn mesh(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "mesh needs positive dimensions");
        let nodes = width * height;
        let router = CrossbarConfig {
            ports: 5,
            ..CrossbarConfig::powermanna()
        };
        let mut topology = Topology::with_nodes(nodes as usize);
        for n in 0..nodes as usize {
            let r = topology.add_crossbar(router);
            topology.connect_node(n, 0, r, LOCAL, LinkKind::Synchronous);
        }
        for n in 0..nodes {
            let r = n as usize;
            if n % width + 1 < width {
                topology.connect_xbars(r, EAST, r + 1, WEST, LinkKind::Synchronous);
            }
            if n + width < nodes {
                let below = (n + width) as usize;
                topology.connect_xbars(r, SOUTH, below, NORTH, LinkKind::Synchronous);
            }
        }
        Network {
            mesh_width: Some(width),
            ..Network::new(topology)
        }
    }

    /// The XY route of a [`Network::mesh`] with rows of `width`:
    /// `None` for an out-of-range node, `src == dst` or a plane other
    /// than 0.
    fn xy_route(&self, width: u32, src: NodeId, dst: NodeId, plane: u32) -> Option<Route> {
        let nodes = self.topology.nodes();
        if src >= nodes || dst >= nodes || src == dst || plane != 0 {
            return None;
        }
        let w = width as usize;
        let (mut x, mut y) = (src % w, src / w);
        let (dx, dy) = (dst % w, dst / w);
        let mut hops = Vec::new();
        let mut in_port = LOCAL;
        while (x, y) != (dx, dy) {
            let out_port = match (x.cmp(&dx), y.cmp(&dy)) {
                (Ordering::Less, _) => EAST,
                (Ordering::Greater, _) => WEST,
                (_, Ordering::Less) => SOUTH,
                _ => NORTH,
            };
            hops.push(Hop {
                xbar: y * w + x,
                in_port,
                out_port,
            });
            match out_port {
                EAST => x += 1,
                WEST => x -= 1,
                SOUTH => y += 1,
                _ => y -= 1,
            }
            // The worm enters the next router on the port facing back.
            in_port = out_port ^ 1;
        }
        Some(Route {
            src,
            dst,
            plane,
            segments: vec![LinkKind::Synchronous; hops.len()],
            hops,
        })
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Live crossbar state (for conflict statistics).
    pub fn crossbar(&self, id: usize) -> &Crossbar {
        &self.crossbars[id]
    }

    /// Publishes crossbar route/conflict counters under `prefix`: one
    /// `{prefix}/xbar{i}/...` subtree per crossbar that routed anything
    /// (see [`Crossbar::publish_metrics`]).
    pub fn publish_metrics(&self, reg: &mut pm_sim::metrics::MetricRegistry, prefix: &str) {
        for (i, xb) in self.crossbars.iter().enumerate() {
            xb.publish_metrics(reg, &format!("{prefix}/xbar{i}"));
        }
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
    /// the plane, or [`RouteError::PortHeld`] if the route exists but a
    /// crossbar output on it is still held by an open connection. The
    /// claim is all-or-nothing: outputs are checked *before* any hop
    /// routes, so a held output mid-route claims nothing and leaks no
    /// port claim for a later open to trip over.
    pub fn open(
        &mut self,
        src: NodeId,
        dst: NodeId,
        plane: u32,
        t: Time,
    ) -> Result<Connection, RouteError> {
        let route = match self.mesh_width {
            Some(width) => self.xy_route(width, src, dst, plane),
            None => self.topology.route(src, dst, plane),
        }
        .ok_or(RouteError::NoPath)?;
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
    /// [`crate::routesim::RouteSim::run_with_backpressure`] does, so a
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
        let flow = stopwire::stream_route(&configs, start_tick, bytes, &bp.dst_windows);
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
        // A plane the duplicated network does not have is no path, not
        // a panic.
        for plane in [2, u32::MAX] {
            assert_eq!(
                net.open(0, 1, plane, Time::ZERO).unwrap_err(),
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

    /// Arbitration conflicts summed over every crossbar of `net`.
    fn mesh_conflicts(net: &Network) -> u64 {
        (0..net.topology().crossbars())
            .map(|x| net.crossbar(x).conflicts())
            .sum()
    }

    #[test]
    fn mesh_routes_xy_one_segment_per_link() {
        for (src, dst, hops) in [(0, 3, 3), (0, 12, 3), (0, 15, 6), (5, 6, 1)] {
            let c = Network::mesh(4, 4).open(src, dst, 0, Time::ZERO).unwrap();
            assert_eq!(c.route().crossbars(), hops, "{src}->{dst}");
            assert_eq!(c.route().segments.len(), hops, "{src}->{dst}");
        }
        // 0 -> 15 goes east along row 0, then south down column 3.
        let far = Network::mesh(4, 4).open(0, 15, 0, Time::ZERO).unwrap();
        let ports: Vec<_> = far
            .route()
            .hops
            .iter()
            .map(|h| (h.xbar, h.out_port))
            .collect();
        assert_eq!(ports, [(0, 0), (1, 0), (2, 0), (3, 2), (7, 2), (11, 2)]);
        let near = Network::mesh(4, 4).open(0, 1, 0, Time::ZERO).unwrap();
        assert!(far.ready_at().as_ps() > near.ready_at().as_ps() * 5);
    }

    #[test]
    fn mesh_rejects_bad_nodes_and_planes_without_claiming() {
        let mut m = Network::mesh(4, 4);
        for (src, dst, plane) in [(3, 3, 0), (0, 16, 0), (16, 0, 0), (0, 1, 1)] {
            assert_eq!(
                m.open(src, dst, plane, Time::ZERO).unwrap_err(),
                RouteError::NoPath
            );
        }
        assert_eq!(mesh_conflicts(&m), 0);
        assert!((0..16).all(|x| m.crossbar(x).routes() == 0));
    }

    #[test]
    fn crossing_mesh_connections_block_and_disjoint_ones_do_not() {
        let mut m = Network::mesh(4, 4);
        let a = m.open(0, 1, 0, Time::ZERO).unwrap();
        let b = m.open(14, 15, 0, Time::ZERO).unwrap();
        assert_eq!(a.ready_at(), b.ready_at());
        assert_eq!(mesh_conflicts(&m), 0);
        // Two row-wise connections sharing the link 1 -> 2.
        let mut m = Network::mesh(4, 4);
        let mut a = m.open(0, 3, 0, Time::ZERO).unwrap();
        let done = a.transfer(a.ready_at(), 4096).finished;
        a.close(&mut m, done);
        let b = m.open(1, 2, 0, Time::ZERO).unwrap();
        assert!(b.ready_at() >= done, "b must wait for a's worm to clear");
        assert_eq!(mesh_conflicts(&m), 1);
    }

    #[test]
    fn held_mesh_link_is_port_held_and_claims_nothing() {
        let mut m = Network::mesh(4, 4);
        // `held` holds 2 -> 3 and never closes; 0 -> 3 needs that link
        // after two free ones.
        let _held = m.open(2, 3, 0, Time::ZERO).unwrap();
        assert_eq!(
            m.open(0, 3, 0, Time::ZERO).unwrap_err(),
            RouteError::PortHeld
        );
        // 0 -> 1 -> 2 was left free, and a disjoint path still opens.
        assert_eq!(m.open(0, 2, 0, Time::ZERO).unwrap().route().crossbars(), 2);
        m.open(4, 7, 0, Time::ZERO).unwrap();
    }

    #[test]
    fn backpressured_mesh_transfer_stalls_the_source() {
        let mut m = Network::mesh(4, 4);
        let mut conn = m.open(0, 15, 0, Time::ZERO).unwrap();
        let free = conn.transfer(conn.ready_at(), 4096).finished;
        let t0 = conn
            .ready_at()
            .as_ps()
            .div_ceil(WireConfig::synchronous().byte_time.as_ps());
        let bp = RouteBackpressure::powermanna(vec![(t0, t0 + 3000)]);
        let stats = conn.transfer_backpressured(conn.ready_at(), 4096, &bp);
        assert_eq!(stats.per_segment.len(), 6, "one stop wire per link");
        assert!(stats.finished > free);
        assert!(stats.stalled_ticks > 0);
        assert_eq!(conn.bytes(), 8192, "both transfers counted");
        for s in &stats.per_segment {
            assert_eq!(s.delivered, 4096);
            assert!(s.max_occupancy <= bp.sync_stop.headroom_needed());
        }
    }

    #[test]
    fn mesh_blocks_more_than_crossbar_on_same_traffic() {
        // The §3 claim, measured: 16 random pairs opened, streamed and
        // closed in turn through a 4x4 mesh and through one 16x16
        // crossbar; the mesh waits more often and finishes later.
        let mut rng = pm_sim::rng::SimRng::seed_from(99);
        let mut pairs = Vec::new();
        while pairs.len() < 16 {
            let a = rng.gen_range(0, 16) as usize;
            let b = rng.gen_range(0, 16) as usize;
            if a != b {
                pairs.push((a, b));
            }
        }
        let mut topo = Topology::with_nodes(16);
        let xb = topo.add_crossbar(CrossbarConfig::powermanna());
        for nid in 0..16 {
            topo.connect_node(nid, 0, xb, nid as u32, LinkKind::Synchronous);
        }
        let makespan = |net: &mut Network| {
            let mut finish = Time::ZERO;
            for &(a, b) in &pairs {
                let mut c = net.open(a, b, 0, Time::ZERO).expect("closed in order");
                let done = c.transfer(c.ready_at(), 2048).finished;
                c.close(net, done);
                finish = finish.max(done);
            }
            finish
        };
        let (mut mesh, mut xbar) = (Network::mesh(4, 4), Network::new(topo));
        let (mesh_finish, xb_finish) = (makespan(&mut mesh), makespan(&mut xbar));
        assert!(
            mesh_conflicts(&mesh) > xbar.crossbar(0).conflicts(),
            "mesh {} conflicts should exceed crossbar {}",
            mesh_conflicts(&mesh),
            xbar.crossbar(0).conflicts()
        );
        assert!(
            mesh_finish > xb_finish,
            "mesh makespan {mesh_finish} should exceed crossbar {xb_finish}"
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
