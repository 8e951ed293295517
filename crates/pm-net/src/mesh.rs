//! A 2-D mesh interconnect, for the paper's blocking-behaviour argument.
//!
//! §3: "Less expensive mesh topologies, however, as used in the PARAGON
//! or Cray T3E systems, exhibit a poor blocking behavior. Communication
//! networks based on crossbars are able to provide the favorable
//! blocking behavior of the hypercube at much lower cost…"
//!
//! This module models the mesh side of that comparison at the same
//! connection level as [`crate::network`]: dimension-ordered (XY)
//! wormhole routing, with an established connection holding *every*
//! directed link on its path until close — which is exactly why long
//! mesh paths block each other so much more than single-stage crossbar
//! routes do. Experiment X6 runs the same traffic through both.

use crate::network::RouteBackpressure;
use crate::outcome::TransferOutcome;
use crate::stopwire::{self, StopWireStats};
use crate::wire::WireConfig;
use pm_sim::metrics::MetricRegistry;
use pm_sim::time::{Duration, Time};

/// Mesh geometry and timing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MeshConfig {
    /// Nodes per row.
    pub width: u32,
    /// Nodes per column.
    pub height: u32,
    /// Per-hop router pass-through latency (route decode per dimension
    /// step; same silicon class as the crossbar's 0.2 µs).
    pub hop_time: Duration,
    /// Link clocking (same 60 MB/s technology for a fair comparison).
    pub wire: WireConfig,
}

impl MeshConfig {
    /// A mesh built from PowerMANNA-era parts: 60 MB/s links, 0.2 µs
    /// router hops.
    pub fn powermanna_parts(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "mesh needs positive dimensions");
        MeshConfig {
            width,
            height,
            hop_time: Duration::from_ns(200),
            wire: WireConfig::synchronous(),
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> u32 {
        self.width * self.height
    }
}

/// Why a mesh connection could not be opened. The mesh mirrors
/// [`crate::network::RouteError`]: callers get a typed error instead of
/// a panic, so X6-style experiments can handle contention races.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MeshError {
    /// A node id is outside the mesh.
    NodeOutOfRange {
        /// The offending node id.
        node: u32,
        /// Number of nodes in the mesh.
        nodes: u32,
    },
    /// `src == dst` — a connection needs two distinct nodes.
    SelfConnection {
        /// The node named on both ends.
        node: u32,
    },
    /// A link on the XY path is held by a connection whose close has
    /// not been recorded, so no finite wait clears it.
    LinkHeld {
        /// Upstream node of the held directed link.
        from: u32,
        /// Downstream node of the held directed link.
        to: u32,
    },
}

impl core::fmt::Display for MeshError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MeshError::NodeOutOfRange { node, nodes } => {
                write!(f, "node {node} out of range for a {nodes}-node mesh")
            }
            MeshError::SelfConnection { node } => {
                write!(f, "connection needs two distinct nodes, got {node} twice")
            }
            MeshError::LinkHeld { from, to } => {
                write!(
                    f,
                    "link {from}->{to} held by an open connection; record its close first"
                )
            }
        }
    }
}

impl std::error::Error for MeshError {}

/// A directed mesh link between adjacent nodes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
struct LinkId {
    from: u32,
    to: u32,
}

/// An open mesh connection.
#[derive(Clone, Debug)]
pub struct MeshConnection {
    path: Vec<LinkId>,
    ready_at: Time,
    byte_time: Duration,
    head_latency: Duration,
    closed: bool,
    bytes: u64,
}

/// The mesh with live link state.
///
/// # Examples
///
/// ```
/// use pm_net::mesh::{Mesh, MeshConfig};
/// use pm_sim::time::Time;
///
/// let mut mesh = Mesh::new(MeshConfig::powermanna_parts(4, 4));
/// let mut conn = mesh.open(0, 15, Time::ZERO).expect("links free");
/// let outcome = conn.transfer(conn.ready_at(), 1024);
/// conn.close(&mut mesh, outcome.finished);
/// ```
#[derive(Clone, Debug)]
pub struct Mesh {
    config: MeshConfig,
    /// Per directed link: the instant it frees (Time::MAX while held).
    /// Dense: `node * 4 + direction` (E, W, S, N), so the X6 inner loop
    /// never hashes and iteration order cannot leak into a
    /// deterministic simulation.
    free_at: Vec<Time>,
    conflicts: u64,
    opens: u64,
}

impl Mesh {
    /// Creates an idle mesh.
    pub fn new(config: MeshConfig) -> Self {
        Mesh {
            free_at: vec![Time::ZERO; config.nodes() as usize * 4],
            config,
            conflicts: 0,
            opens: 0,
        }
    }

    /// Dense index of a directed link: 4 slots per upstream node, one
    /// per direction.
    fn link_index(&self, link: LinkId) -> usize {
        let w = self.config.width;
        let dir = if link.to == link.from + 1 {
            0 // east
        } else if link.to + 1 == link.from {
            1 // west
        } else if link.to == link.from + w {
            2 // south
        } else {
            debug_assert_eq!(link.to + w, link.from, "non-adjacent link {link:?}");
            3 // north
        };
        link.from as usize * 4 + dir
    }

    /// The configuration.
    pub fn config(&self) -> MeshConfig {
        self.config
    }

    /// The XY (dimension-ordered) path between two nodes, as directed
    /// links.
    fn xy_path(&self, src: u32, dst: u32) -> Vec<LinkId> {
        let w = self.config.width;
        let (mut x, mut y) = (src % w, src / w);
        let (dx, dy) = (dst % w, dst / w);
        let mut path = Vec::new();
        let mut cur = src;
        while x != dx {
            x = if x < dx { x + 1 } else { x - 1 };
            let next = y * w + x;
            path.push(LinkId {
                from: cur,
                to: next,
            });
            cur = next;
        }
        while y != dy {
            y = if y < dy { y + 1 } else { y - 1 };
            let next = y * w + x;
            path.push(LinkId {
                from: cur,
                to: next,
            });
            cur = next;
        }
        path
    }

    /// Number of hops between two nodes under XY routing.
    pub fn hops(&self, src: u32, dst: u32) -> u32 {
        self.xy_path(src, dst).len() as u32
    }

    /// Opens a wormhole connection at `t`, claiming every link on the XY
    /// path (in order — the worm advances hop by hop, waiting at each
    /// held link until its recorded release).
    ///
    /// # Errors
    ///
    /// Returns [`MeshError`] when a node id is out of range, when
    /// `src == dst`, or when a link on the path is held by a connection
    /// whose close has not been recorded (no finite wait clears it).
    pub fn open(&mut self, src: u32, dst: u32, t: Time) -> Result<MeshConnection, MeshError> {
        let nodes = self.config.nodes();
        for node in [src, dst] {
            if node >= nodes {
                return Err(MeshError::NodeOutOfRange { node, nodes });
            }
        }
        if src == dst {
            return Err(MeshError::SelfConnection { node: src });
        }
        let path = self.xy_path(src, dst);
        let mut cursor = t;
        let mut claimed: Vec<(usize, Time)> = Vec::with_capacity(path.len());
        for link in &path {
            // Route flit decode at this hop.
            cursor += self.config.wire.byte_time + self.config.hop_time;
            let idx = self.link_index(*link);
            let free = self.free_at[idx];
            if free == Time::MAX {
                // Restore the links this open already claimed; the
                // caller decides how to handle the un-closed holder.
                for (i, orig) in claimed {
                    self.free_at[i] = orig;
                }
                return Err(MeshError::LinkHeld {
                    from: link.from,
                    to: link.to,
                });
            }
            if free > cursor {
                self.conflicts += 1;
                cursor = free;
            }
            claimed.push((idx, free));
            self.free_at[idx] = Time::MAX;
        }
        self.opens += 1;
        let head_latency = self.config.wire.latency * path.len() as u64;
        Ok(MeshConnection {
            ready_at: cursor,
            byte_time: self.config.wire.byte_time,
            head_latency,
            path,
            closed: false,
            bytes: 0,
        })
    }

    /// Route commands that waited on a held link.
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Connections opened.
    pub fn opens(&self) -> u64 {
        self.opens
    }

    /// Publishes the mesh's counters under `prefix`:
    /// `{prefix}/opens` and `{prefix}/conflicts`.
    pub fn publish_metrics(&self, reg: &mut MetricRegistry, prefix: &str) {
        reg.count(&format!("{prefix}/opens"), self.opens);
        reg.count(&format!("{prefix}/conflicts"), self.conflicts);
    }
}

impl MeshConnection {
    /// When the connection became usable for payload.
    pub fn ready_at(&self) -> Time {
        self.ready_at
    }

    /// Hops held by this connection.
    pub fn hops(&self) -> usize {
        self.path.len()
    }

    /// Streams `bytes` starting at `start`; the returned
    /// [`TransferOutcome::finished`] is the last-byte arrival. The mesh
    /// has a single plane, reported as plane 0.
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
            0,
        )
    }

    /// Streams `bytes` under end-to-end stop-wire flow control: every
    /// directed link on the XY path gets a synchronous stop-wire state
    /// (`bp.sync_stop` — mesh routers use the same link silicon as the
    /// crossbars), and `bp.dst_windows` backpressure the worm hop by
    /// hop back to the source, exactly as
    /// [`crate::network::Connection::transfer_backpressured`] does for
    /// crossbar routes.
    ///
    /// # Panics
    ///
    /// Panics if the connection is closed.
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
            let mut outcome = TransferOutcome::streamed(begin + self.head_latency, begin, 0, 0);
            outcome.per_segment = vec![StopWireStats::default(); self.path.len()];
            return outcome;
        }
        let bt = self.byte_time.as_ps();
        let start_tick = begin.as_ps().div_ceil(bt);
        let segments = vec![bp.sync_stop; self.path.len()];
        let flow = stopwire::stream_route(&segments, start_tick, bytes, &bp.dst_windows);
        let mut outcome = TransferOutcome::streamed(
            Time::from_ps((flow.finish_tick + 1) * bt) + self.head_latency,
            Time::from_ps((flow.source_finish_tick + 1) * bt),
            bytes,
            0,
        );
        outcome.stop_transitions = flow.stop_transitions;
        outcome.stalled_ticks = flow.stalled_ticks;
        outcome.per_segment = flow.per_segment;
        outcome
    }

    /// Total payload bytes sent over this connection.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Records the close at `t`, releasing every link on the path.
    ///
    /// # Panics
    ///
    /// Panics on double close.
    pub fn close(&mut self, mesh: &mut Mesh, t: Time) {
        assert!(!self.closed, "double close");
        self.closed = true;
        let mut cursor = t + self.byte_time;
        for link in &self.path {
            let idx = mesh.link_index(*link);
            mesh.free_at[idx] = cursor;
            cursor += self.byte_time;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh4x4() -> Mesh {
        Mesh::new(MeshConfig::powermanna_parts(4, 4))
    }

    #[test]
    fn xy_path_lengths() {
        let m = mesh4x4();
        assert_eq!(m.hops(0, 3), 3); // along a row
        assert_eq!(m.hops(0, 12), 3); // along a column
        assert_eq!(m.hops(0, 15), 6); // corner to corner
        assert_eq!(m.hops(5, 6), 1); // neighbours
    }

    #[test]
    fn setup_scales_with_hops() {
        let mut m = mesh4x4();
        let near = m.open(0, 1, Time::ZERO).unwrap();
        let mut far_mesh = mesh4x4();
        let far = far_mesh.open(0, 15, Time::ZERO).unwrap();
        assert!(far.ready_at().as_ps() > near.ready_at().as_ps() * 5);
        assert_eq!(far.hops(), 6);
    }

    #[test]
    fn crossing_connections_block() {
        // Two row-wise connections sharing the link 1->2.
        let mut m = mesh4x4();
        let mut a = m.open(0, 3, Time::ZERO).unwrap();
        let done = a.transfer(a.ready_at(), 4096).finished;
        a.close(&mut m, done);
        let b = m.open(1, 2, Time::ZERO).unwrap();
        assert!(b.ready_at() >= done, "b must wait for a's worm to clear");
        assert!(m.conflicts() >= 1);
    }

    #[test]
    fn disjoint_connections_do_not_block() {
        let mut m = mesh4x4();
        let a = m.open(0, 1, Time::ZERO).unwrap();
        let b = m.open(14, 15, Time::ZERO).unwrap();
        assert_eq!(a.ready_at(), b.ready_at());
        assert_eq!(m.conflicts(), 0);
    }

    #[test]
    fn held_link_is_a_typed_error_and_leaves_the_mesh_usable() {
        let mut m = mesh4x4();
        // a holds 0->1->2->3 and never closes.
        let a = m.open(0, 3, Time::ZERO).unwrap();
        let err = m.open(1, 2, Time::ZERO).unwrap_err();
        assert_eq!(err, MeshError::LinkHeld { from: 1, to: 2 });
        // The failed open must not leak claims: a disjoint path that
        // shares no link with `a` still opens, and once `a` closes the
        // contested links open too.
        let before = m.opens();
        m.open(4, 7, Time::ZERO).unwrap();
        assert_eq!(m.opens(), before + 1);
        drop(a);
        // (a was never closed: its links stay held, by design.)
        assert!(m.open(1, 2, Time::ZERO).is_err());
    }

    #[test]
    fn failed_open_restores_already_claimed_links() {
        let mut m = mesh4x4();
        // Hold only 2->3, then try 0->3 whose claim dies at that link.
        let held = m.open(2, 3, Time::ZERO).unwrap();
        let err = m.open(0, 3, Time::ZERO).unwrap_err();
        assert_eq!(err, MeshError::LinkHeld { from: 2, to: 3 });
        // 0->1->2 must have been released by the failed open.
        let c = m.open(0, 2, Time::ZERO).unwrap();
        assert_eq!(c.hops(), 2);
        let _ = held;
    }

    #[test]
    fn backpressured_mesh_transfer_stalls_the_source() {
        let mut m = mesh4x4();
        let mut conn = m.open(0, 15, Time::ZERO).unwrap();
        let free = conn.transfer(conn.ready_at(), 4096).finished;
        let bt = conn.byte_time.as_ps();
        let t0 = conn.ready_at().as_ps().div_ceil(bt);
        let bp = crate::network::RouteBackpressure::powermanna(vec![(t0, t0 + 3000)]);
        let stats = conn.transfer_backpressured(conn.ready_at(), 4096, &bp);
        assert_eq!(stats.per_segment.len(), 6, "one stop wire per hop");
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
        // The §3 claim, measured: route 16 random pairs sequentially-in-
        // time through a 4x4 mesh and through a single 16x16 crossbar
        // cluster; the mesh accumulates more conflicts.
        use crate::network::Network;
        use crate::topology::Topology;

        let mut rng = pm_sim::rng::SimRng::seed_from(99);
        let mut pairs = Vec::new();
        while pairs.len() < 16 {
            let a = rng.gen_range(0, 16) as u32;
            let b = rng.gen_range(0, 16) as u32;
            if a != b {
                pairs.push((a, b));
            }
        }

        // Mesh: open, transfer, close, in arrival order.
        let mut mesh = mesh4x4();
        let mut mesh_finish = Time::ZERO;
        for &(a, b) in &pairs {
            let mut c = mesh.open(a, b, Time::ZERO).expect("closed in order");
            let done = c.transfer(c.ready_at(), 2048).finished;
            c.close(&mut mesh, done);
            mesh_finish = mesh_finish.max(done);
        }

        // Crossbar: 16 nodes on one 16x16 crossbar (single plane used).
        let mut topo = Topology::with_nodes(16);
        let xb = topo.add_crossbar(crate::crossbar::CrossbarConfig::powermanna());
        for nid in 0..16 {
            topo.connect_node(
                nid,
                0,
                xb,
                nid as u32,
                crate::topology::LinkKind::Synchronous,
            );
        }
        let mut net = Network::new(topo);
        let mut xb_finish = Time::ZERO;
        for &(a, b) in &pairs {
            let mut c = net
                .open(a as usize, b as usize, 0, Time::ZERO)
                .expect("route");
            let done = c.transfer(c.ready_at(), 2048).finished;
            c.close(&mut net, done);
            xb_finish = xb_finish.max(done);
        }

        assert!(
            mesh.conflicts() > net.crossbar(0).conflicts(),
            "mesh {} conflicts should exceed crossbar {}",
            mesh.conflicts(),
            net.crossbar(0).conflicts()
        );
        assert!(
            mesh_finish > xb_finish,
            "mesh makespan {mesh_finish} should exceed crossbar {xb_finish}"
        );
    }

    #[test]
    fn self_connection_rejected() {
        assert_eq!(
            mesh4x4().open(3, 3, Time::ZERO).unwrap_err(),
            MeshError::SelfConnection { node: 3 }
        );
    }

    #[test]
    fn bad_node_rejected() {
        assert_eq!(
            mesh4x4().open(0, 16, Time::ZERO).unwrap_err(),
            MeshError::NodeOutOfRange {
                node: 16,
                nodes: 16
            }
        );
    }
}
