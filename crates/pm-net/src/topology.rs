//! Interconnect topologies (Figure 5 of the paper).
//!
//! PowerMANNA nodes carry **two** link interfaces, one per duplicated
//! network plane. The basic building block is the eight-node cluster of
//! Figure 5a: eight nodes, two 16x16 crossbars (one per plane), and eight
//! free asynchronous dual-links per plane for inter-cluster connections.
//! Larger systems (Figure 5b) join clusters through permutation networks
//! of further crossbars such that "a logical connection between any two
//! nodes involves at most only three crossbars".
//!
//! The 256-processor builder follows that constraint with a Clos-like
//! middle stage: each cluster's free ports fan out to 8 middle crossbars
//! per plane, and every middle crossbar reaches every cluster, so any
//! node pair routes through cluster-xbar → middle-xbar → cluster-xbar.
//!
//! [`Topology::equivalent_routes`] enumerates every minimal route of a
//! pair within that bound; [`Topology::route`] is the first of them.

use crate::crossbar::CrossbarConfig;
use crate::stopwire::StopWireConfig;
use std::collections::HashMap;

/// The paper's path-length guarantee: "a logical connection between any
/// two nodes involves at most only three crossbars".
/// [`Topology::equivalent_routes`], and so [`Topology::route`], never
/// returns a longer path: a pair that would need a fourth crossbar has
/// no route.
pub const MAX_ROUTE_CROSSBARS: usize = 3;

/// Index of a node in a topology.
pub type NodeId = usize;
/// Index of a crossbar in a topology.
pub type XbarId = usize;

/// Canonical identity of one physical link, as the crossbar side(s) see
/// it. Node↔crossbar links are keyed by their single crossbar port;
/// crossbar↔crossbar links by the lexicographically smaller of their two
/// `(xbar, port)` ends, so both directions of a dual-link share one key
/// and a dead cable kills traffic both ways.
pub type LinkKey = (XbarId, u32);

/// Physical flavour of a link segment.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LinkKind {
    /// Clock-synchronous backplane link (within a cabinet).
    Synchronous,
    /// Asynchronous transceiver link (between cabinets, ≤30 m).
    Asynchronous,
}

/// One end of a link.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Endpoint {
    /// A node's link interface (`link` is 0 or 1 — the network plane).
    Node {
        /// Node index.
        node: NodeId,
        /// Link interface index (network plane).
        link: u32,
    },
    /// A crossbar port.
    Xbar {
        /// Crossbar index.
        xbar: XbarId,
        /// Port index on that crossbar.
        port: u32,
    },
}

/// One crossbar traversal on a route.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Hop {
    /// The crossbar traversed.
    pub xbar: XbarId,
    /// Input port the worm enters on.
    pub in_port: u32,
    /// Output port the route command selects.
    pub out_port: u32,
}

/// A complete route between two nodes on one network plane.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Route {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Network plane used (0 or 1).
    pub plane: u32,
    /// Crossbars traversed, in order.
    pub hops: Vec<Hop>,
    /// Link kinds of the segments. A crossbar route has `hops.len() + 1`
    /// (node→xbar, xbar→xbar…, xbar→node); a route of
    /// [`Network::mesh`](crate::network::Network::mesh) has one per
    /// inter-router link, `hops.len()`, since each node sits inside its
    /// router.
    pub segments: Vec<LinkKind>,
}

impl Route {
    /// Number of crossbars on the route.
    pub fn crossbars(&self) -> usize {
        self.hops.len()
    }

    /// The stop-wire geometry of every segment, in route order: each
    /// clock-synchronous segment gets `sync`, each asynchronous
    /// transceiver segment gets `asynchronous` (deep FIFO, skid-byte
    /// lag). Feeds [`crate::stopwire::stream_route`].
    pub fn stop_configs(
        &self,
        sync: StopWireConfig,
        asynchronous: StopWireConfig,
    ) -> Vec<StopWireConfig> {
        self.segments
            .iter()
            .map(|kind| match kind {
                LinkKind::Synchronous => sync,
                LinkKind::Asynchronous => asynchronous,
            })
            .collect()
    }
}

/// An interconnect graph: nodes with two link interfaces, crossbars, and
/// the links between them.
///
/// # Examples
///
/// ```
/// use pm_net::topology::Topology;
///
/// let t = Topology::cluster8();
/// assert_eq!(t.nodes(), 8);
/// assert_eq!(t.crossbars(), 2);
/// let r = t.route(0, 7, 0).expect("cluster routes exist");
/// assert_eq!(r.crossbars(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Topology {
    nodes: usize,
    xbar_configs: Vec<CrossbarConfig>,
    /// node -> [plane0 peer, plane1 peer]
    node_links: Vec<[Option<(XbarId, u32, LinkKind)>; 2]>,
    /// (xbar, port) -> peer endpoint + link kind
    xbar_ports: HashMap<(XbarId, u32), (Endpoint, LinkKind)>,
}

impl Topology {
    /// Creates an empty topology with `nodes` unconnected nodes.
    pub fn with_nodes(nodes: usize) -> Self {
        Topology {
            nodes,
            xbar_configs: Vec::new(),
            node_links: vec![[None, None]; nodes],
            xbar_ports: HashMap::new(),
        }
    }

    /// Adds a crossbar; returns its id.
    pub fn add_crossbar(&mut self, config: CrossbarConfig) -> XbarId {
        self.xbar_configs.push(config);
        self.xbar_configs.len() - 1
    }

    /// Connects node `node` link interface `link` to crossbar `xbar`
    /// port `port`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range ids, on reconnecting a used interface or
    /// port, or on `link > 1`.
    pub fn connect_node(
        &mut self,
        node: NodeId,
        link: u32,
        xbar: XbarId,
        port: u32,
        kind: LinkKind,
    ) {
        assert!(node < self.nodes, "node out of range");
        assert!(link < 2, "nodes have exactly two link interfaces");
        assert!(xbar < self.xbar_configs.len(), "crossbar out of range");
        assert!(port < self.xbar_configs[xbar].ports, "port out of range");
        assert!(
            self.node_links[node][link as usize].is_none(),
            "node link already connected"
        );
        assert!(
            !self.xbar_ports.contains_key(&(xbar, port)),
            "crossbar port already connected"
        );
        self.node_links[node][link as usize] = Some((xbar, port, kind));
        self.xbar_ports
            .insert((xbar, port), (Endpoint::Node { node, link }, kind));
    }

    /// Connects two crossbar ports with a link.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range ids or already-connected ports.
    pub fn connect_xbars(
        &mut self,
        a: XbarId,
        a_port: u32,
        b: XbarId,
        b_port: u32,
        kind: LinkKind,
    ) {
        for &(x, p) in &[(a, a_port), (b, b_port)] {
            assert!(x < self.xbar_configs.len(), "crossbar out of range");
            assert!(p < self.xbar_configs[x].ports, "port out of range");
            assert!(
                !self.xbar_ports.contains_key(&(x, p)),
                "crossbar port already connected"
            );
        }
        self.xbar_ports.insert(
            (a, a_port),
            (
                Endpoint::Xbar {
                    xbar: b,
                    port: b_port,
                },
                kind,
            ),
        );
        self.xbar_ports.insert(
            (b, b_port),
            (
                Endpoint::Xbar {
                    xbar: a,
                    port: a_port,
                },
                kind,
            ),
        );
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Number of crossbars.
    pub fn crossbars(&self) -> usize {
        self.xbar_configs.len()
    }

    /// Configuration of crossbar `xbar`.
    pub fn crossbar_config(&self, xbar: XbarId) -> CrossbarConfig {
        self.xbar_configs[xbar]
    }

    /// The endpoint and link kind on the far side of crossbar `xbar`
    /// port `port`, or `None` if the port is unconnected. This is the
    /// raw adjacency the route simulator compiles into its flat tables.
    pub fn port_peer(&self, xbar: XbarId, port: u32) -> Option<(Endpoint, LinkKind)> {
        self.xbar_ports.get(&(xbar, port)).copied()
    }

    /// Canonical [`LinkKey`] of the link attached to crossbar `xbar`
    /// port `port`, or `None` if the port is unconnected.
    pub fn canonical_link_key(&self, xbar: XbarId, port: u32) -> Option<LinkKey> {
        let (peer, _) = self.xbar_ports.get(&(xbar, port))?;
        Some(match *peer {
            Endpoint::Xbar { xbar: b, port: bp } => (xbar, port).min((b, bp)),
            Endpoint::Node { .. } => (xbar, port),
        })
    }

    /// [`LinkKey`] of node `node`'s link interface on `plane`, or `None`
    /// if that interface is unconnected.
    pub fn node_link_key(&self, node: NodeId, plane: u32) -> Option<LinkKey> {
        if node >= self.nodes || plane > 1 {
            return None;
        }
        let (xbar, port, _) = self.node_links[node][plane as usize]?;
        Some((xbar, port))
    }

    /// The route from `src` to `dst` on network plane `plane` (0 or 1):
    /// the first of [`Topology::equivalent_routes`], so the shortest
    /// route through the lowest-numbered ports.
    ///
    /// Returns `None` if the nodes are not connected on that plane
    /// within [`MAX_ROUTE_CROSSBARS`] or if `src == dst`.
    pub fn route(&self, src: NodeId, dst: NodeId, plane: u32) -> Option<Route> {
        self.equivalent_routes(src, dst, plane).into_iter().next()
    }

    /// The eight-node cluster of Figure 5a: two crossbars (one per plane),
    /// node `i` on port `i` of each; ports 8–15 of each crossbar stay free
    /// for asynchronous inter-cluster dual-links.
    pub fn cluster8() -> Self {
        let mut t = Topology::with_nodes(8);
        let x0 = t.add_crossbar(CrossbarConfig::powermanna());
        let x1 = t.add_crossbar(CrossbarConfig::powermanna());
        for n in 0..8 {
            t.connect_node(n, 0, x0, n as u32, LinkKind::Synchronous);
            t.connect_node(n, 1, x1, n as u32, LinkKind::Synchronous);
        }
        t
    }

    /// A minimal two-node topology through one crossbar per plane — the
    /// configuration the communication microbenchmarks (Figures 9–12) run
    /// on.
    pub fn two_nodes() -> Self {
        let mut t = Topology::with_nodes(2);
        let x0 = t.add_crossbar(CrossbarConfig::powermanna());
        let x1 = t.add_crossbar(CrossbarConfig::powermanna());
        for n in 0..2 {
            t.connect_node(n, 0, x0, n as u32, LinkKind::Synchronous);
            t.connect_node(n, 1, x1, n as u32, LinkKind::Synchronous);
        }
        t
    }

    /// The 256-processor system of Figure 5b: 16 eight-node clusters
    /// (128 dual-processor nodes) joined per plane by 8 middle crossbars,
    /// every middle crossbar reaching every cluster over an asynchronous
    /// dual-link. Any route crosses at most three crossbars.
    pub fn system256() -> Self {
        Self::hierarchical(4, 4, 16)
    }

    /// A 1024-node hierarchy that scales the paper's Figure 5b scheme
    /// past its largest configuration: a 16x8 grid of eight-node
    /// clusters joined by eight middle crossbars per plane, still at
    /// most three crossbars on any path.
    pub fn system1024() -> Self {
        Self::hierarchical(16, 8, 16)
    }

    /// Parameterized Clos-like permutation-network hierarchy: a
    /// `rows x cols` grid of clusters built from `ports`-port crossbars.
    /// Each cluster hosts `ports / 2` nodes per plane on its cluster
    /// crossbar's low ports; the high ports fan out as asynchronous
    /// uplinks to `ports / 2` middle crossbars per plane, each of which
    /// reaches every cluster (one port per cluster). Any route crosses
    /// at most [`MAX_ROUTE_CROSSBARS`] crossbars: cluster-xbar →
    /// middle-xbar → cluster-xbar, exactly the paper's Figure 5b scheme
    /// generalized. `system256()` is `hierarchical(4, 4, 16)`;
    /// `system1024()` is `hierarchical(16, 8, 16)`.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols == 0` or `ports` is odd or zero.
    pub fn hierarchical(rows: usize, cols: usize, ports: u32) -> Self {
        let clusters = rows * cols;
        assert!(clusters > 0, "need at least one cluster");
        assert!(
            ports >= 2 && ports.is_multiple_of(2),
            "cluster crossbars split ports evenly between nodes and uplinks"
        );
        let per = (ports / 2) as usize;
        let mut t = Topology::with_nodes(clusters * per);
        let cluster_cfg = CrossbarConfig {
            ports,
            ..CrossbarConfig::powermanna()
        };
        // Middle crossbars need exactly one port per cluster.
        let middle_cfg = CrossbarConfig {
            ports: clusters as u32,
            ..CrossbarConfig::powermanna()
        };
        // Per cluster, per plane: one cluster crossbar.
        let mut cluster_xbar = vec![[0usize; 2]; clusters];
        for (c, xb) in cluster_xbar.iter_mut().enumerate() {
            for (plane, slot) in xb.iter_mut().enumerate() {
                let x = t.add_crossbar(cluster_cfg);
                *slot = x;
                for local in 0..per {
                    t.connect_node(
                        c * per + local,
                        plane as u32,
                        x,
                        local as u32,
                        LinkKind::Synchronous,
                    );
                }
            }
        }
        // Per plane: `per` middle crossbars, each with one port per
        // cluster, hung off the cluster crossbars' free high ports.
        for plane in 0..2 {
            for m in 0..per as u32 {
                let mid = t.add_crossbar(middle_cfg);
                for (c, xb) in cluster_xbar.iter().enumerate() {
                    t.connect_xbars(
                        xb[plane],
                        per as u32 + m,
                        mid,
                        c as u32,
                        LinkKind::Asynchronous,
                    );
                }
            }
        }
        t
    }

    /// Every minimal-length route from `src` to `dst` on `plane` that
    /// stays within [`MAX_ROUTE_CROSSBARS`], in deterministic port
    /// order. On the hierarchical systems this enumerates the equivalent
    /// paths through each middle crossbar — the choice set the adaptive
    /// router scores with the per-port conflict counters. Falls back
    /// over path lengths: if any one-crossbar route exists only those
    /// are returned, else two-crossbar routes, else three.
    pub fn equivalent_routes(&self, src: NodeId, dst: NodeId, plane: u32) -> Vec<Route> {
        let mut out = Vec::new();
        if src == dst || src >= self.nodes || dst >= self.nodes || plane > 1 {
            return out;
        }
        let Some((sx, sp, s_kind)) = self.node_links[src][plane as usize] else {
            return out;
        };
        let Some((dx, dp, d_kind)) = self.node_links[dst][plane as usize] else {
            return out;
        };
        // One crossbar: both endpoints on the same cluster crossbar.
        if sx == dx {
            out.push(Route {
                src,
                dst,
                plane,
                hops: vec![Hop {
                    xbar: sx,
                    in_port: sp,
                    out_port: dp,
                }],
                segments: vec![s_kind, d_kind],
            });
            return out;
        }
        // Two crossbars: a direct link sx → dx.
        for p in 0..self.xbar_configs[sx].ports {
            if let Some(&(Endpoint::Xbar { xbar, port }, kind)) = self.xbar_ports.get(&(sx, p)) {
                if xbar == dx {
                    out.push(Route {
                        src,
                        dst,
                        plane,
                        hops: vec![
                            Hop {
                                xbar: sx,
                                in_port: sp,
                                out_port: p,
                            },
                            Hop {
                                xbar: dx,
                                in_port: port,
                                out_port: dp,
                            },
                        ],
                        segments: vec![s_kind, kind, d_kind],
                    });
                }
            }
        }
        if !out.is_empty() {
            return out;
        }
        // Three crossbars: sx → middle → dx, one candidate per middle
        // crossbar that reaches both endpoints.
        for p in 0..self.xbar_configs[sx].ports {
            let Some(&(
                Endpoint::Xbar {
                    xbar: mid,
                    port: mp,
                },
                up_kind,
            )) = self.xbar_ports.get(&(sx, p))
            else {
                continue;
            };
            for q in 0..self.xbar_configs[mid].ports {
                let Some(&(Endpoint::Xbar { xbar, port }, down_kind)) =
                    self.xbar_ports.get(&(mid, q))
                else {
                    continue;
                };
                if xbar != dx {
                    continue;
                }
                out.push(Route {
                    src,
                    dst,
                    plane,
                    hops: vec![
                        Hop {
                            xbar: sx,
                            in_port: sp,
                            out_port: p,
                        },
                        Hop {
                            xbar: mid,
                            in_port: mp,
                            out_port: q,
                        },
                        Hop {
                            xbar: dx,
                            in_port: port,
                            out_port: dp,
                        },
                    ],
                    segments: vec![s_kind, up_kind, down_kind, d_kind],
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster8_single_crossbar_routes() {
        let t = Topology::cluster8();
        for plane in 0..2 {
            let r = t.route(1, 6, plane).expect("route");
            assert_eq!(r.crossbars(), 1);
            assert_eq!(r.hops[0].in_port, 1);
            assert_eq!(r.hops[0].out_port, 6);
            assert_eq!(r.segments, vec![LinkKind::Synchronous; 2]);
        }
    }

    #[test]
    fn route_to_self_is_none() {
        let t = Topology::cluster8();
        assert!(t.route(3, 3, 0).is_none());
    }

    #[test]
    fn planes_are_disjoint() {
        let t = Topology::cluster8();
        let r0 = t.route(0, 1, 0).unwrap();
        let r1 = t.route(0, 1, 1).unwrap();
        assert_ne!(r0.hops[0].xbar, r1.hops[0].xbar);
    }

    #[test]
    fn system256_has_128_nodes_and_48_crossbars() {
        let t = Topology::system256();
        assert_eq!(t.nodes(), 128);
        // 16 clusters x 2 planes + 8 middle x 2 planes = 48.
        assert_eq!(t.crossbars(), 48);
    }

    #[test]
    fn system256_intra_cluster_is_one_hop() {
        let t = Topology::system256();
        let r = t.route(0, 7, 0).expect("intra-cluster route");
        assert_eq!(r.crossbars(), 1);
    }

    #[test]
    fn system256_any_pair_at_most_three_crossbars() {
        // The paper: "a logical connection between any two nodes involves
        // at most only three crossbars". Sample pairs across clusters.
        let t = Topology::system256();
        for &(a, b) in &[(0usize, 127usize), (0, 8), (5, 90), (63, 64), (17, 113)] {
            for plane in 0..2 {
                let r = t.route(a, b, plane).expect("route");
                assert!(
                    r.crossbars() <= 3,
                    "route {a}->{b} plane {plane} uses {} crossbars",
                    r.crossbars()
                );
            }
        }
    }

    #[test]
    fn system256_intercluster_uses_async_segment() {
        let t = Topology::system256();
        let r = t.route(0, 127, 0).unwrap();
        assert!(r.segments.contains(&LinkKind::Asynchronous));
        assert_eq!(r.crossbars(), 3);
    }

    #[test]
    fn stop_configs_follow_segment_kinds() {
        let sync = StopWireConfig::powermanna();
        let asynchronous = crate::transceiver::TransceiverConfig::default().stop_wire();
        let t = Topology::system256();
        let r = t.route(0, 127, 0).unwrap();
        let configs = r.stop_configs(sync, asynchronous);
        assert_eq!(configs.len(), r.segments.len());
        for (config, kind) in configs.iter().zip(&r.segments) {
            match kind {
                LinkKind::Synchronous => assert_eq!(*config, sync),
                LinkKind::Asynchronous => assert_eq!(*config, asynchronous),
            }
        }
        assert!(configs.contains(&asynchronous));
    }

    #[test]
    fn disconnected_nodes_route_none() {
        let mut t = Topology::with_nodes(2);
        let x = t.add_crossbar(CrossbarConfig::powermanna());
        t.connect_node(0, 0, x, 0, LinkKind::Synchronous);
        // Node 1 never connected on plane 0.
        assert!(t.route(0, 1, 0).is_none());
    }

    #[test]
    #[should_panic(expected = "already connected")]
    fn double_connect_panics() {
        let mut t = Topology::with_nodes(2);
        let x = t.add_crossbar(CrossbarConfig::powermanna());
        t.connect_node(0, 0, x, 0, LinkKind::Synchronous);
        t.connect_node(1, 0, x, 0, LinkKind::Synchronous);
    }

    #[test]
    fn route_respects_plane_argument_bounds() {
        let t = Topology::cluster8();
        assert!(t.route(0, 1, 2).is_none());
        assert!(t.route(0, 99, 0).is_none());
    }

    #[test]
    fn canonical_key_is_shared_by_both_link_ends() {
        let t = Topology::system256();
        let r = t.route(8, 127, 0).unwrap();
        // The first inter-crossbar segment, seen from either end.
        let a = t
            .canonical_link_key(r.hops[0].xbar, r.hops[0].out_port)
            .unwrap();
        let b = t
            .canonical_link_key(r.hops[1].xbar, r.hops[1].in_port)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn system1024_has_1024_nodes_within_three_crossbars() {
        let t = Topology::system1024();
        assert_eq!(t.nodes(), 1024);
        // 128 clusters x 2 planes + 8 middle x 2 planes = 272.
        assert_eq!(t.crossbars(), 272);
        for &(a, b) in &[(0usize, 1023usize), (0, 8), (511, 512), (100, 900)] {
            for plane in 0..2 {
                let r = t.route(a, b, plane).expect("route");
                assert!(r.crossbars() <= MAX_ROUTE_CROSSBARS);
            }
        }
    }

    #[test]
    fn hierarchical_4_4_16_matches_system256() {
        let a = Topology::hierarchical(4, 4, 16);
        let b = Topology::system256();
        assert_eq!(a.nodes(), b.nodes());
        assert_eq!(a.crossbars(), b.crossbars());
        assert_eq!(a.route(3, 77, 1), b.route(3, 77, 1));
    }

    #[test]
    fn equivalent_routes_enumerate_every_middle() {
        let t = Topology::system256();
        let routes = t.equivalent_routes(0, 127, 0);
        // One candidate per middle crossbar on plane 0.
        assert_eq!(routes.len(), 8);
        let mut middles = std::collections::HashSet::new();
        for r in &routes {
            assert_eq!(r.crossbars(), 3);
            assert!(middles.insert(r.hops[1].xbar), "distinct middles");
            // Endpoints are fixed; only the middle varies.
            assert_eq!(r.hops[0].in_port, t.node_link_key(0, 0).unwrap().1);
            assert_eq!(r.hops[2].out_port, t.node_link_key(127, 0).unwrap().1);
        }
        assert_eq!(t.route(0, 127, 0).as_ref(), routes.first());
        // Intra-cluster pairs have exactly one (one-crossbar) candidate.
        let local = t.equivalent_routes(0, 7, 0);
        assert_eq!(local.len(), 1);
        assert_eq!(local[0], t.route(0, 7, 0).unwrap());
    }

    #[test]
    fn detour_longer_than_three_crossbars_is_rejected() {
        // A four-crossbar chain: reaching node 1 needs four hops, which
        // exceeds the paper bound — routing must refuse, not comply.
        let mut t = Topology::with_nodes(2);
        let xs: Vec<_> = (0..4)
            .map(|_| t.add_crossbar(CrossbarConfig::powermanna()))
            .collect();
        t.connect_node(0, 0, xs[0], 0, LinkKind::Synchronous);
        t.connect_node(1, 0, xs[3], 0, LinkKind::Synchronous);
        for w in xs.windows(2) {
            t.connect_xbars(w[0], 8, w[1], 9, LinkKind::Asynchronous);
        }
        assert!(
            t.route(0, 1, 0).is_none(),
            "4-crossbar path must be refused"
        );
    }
}
