//! Flit-level wormhole simulation of whole routes across a topology.
//!
//! A route crosses one crossbar (X5's 16-node fabric, a cluster) or, on
//! the hierarchical permutation network, up to three
//! ([`crate::topology::MAX_ROUTE_CROSSBARS`]). This module simulates
//! the full route: a worm's route byte serialises over each link,
//! decodes at each crossbar, and claims each output port in turn.
//! A worm blocked at hop *k* keeps holding the ports of hops `0..k` —
//! the real wormhole dependency chains §3's blocking argument is about
//! — and queues FIFO on the contended output until its holder's close
//! byte releases it.
//!
//! One event loop serves every entry point. [`RouteSim::run_resilient`]
//! drives it under a [`FaultPlan`] with retransmission, health tables
//! and the progress watchdog; [`RouteSim::run`] drives the same loop
//! over an empty plan with the watchdog off, where no link is dead, no
//! health table is written and no worm is ever retried; and
//! [`RouteSim::run_with_backpressure`] is that clean run on a
//! single-crossbar topology whose destination links carry stop wires
//! ([`Backpressure`]), each worm's stream paced by
//! [`stopwire::stream_batched`].
//!
//! Built to scale: a 1024-node system keeps 1000+ worms in flight at
//! once, so the per-event path allocates nothing. Routes live in one
//! flat pooled arena (`Vec<Hop>` plus per-worm spans, link keys derived
//! from the hops on demand), per-worm state is one compact record,
//! waiter queues and dead-link flags are indexed by a prefix-sum port
//! base instead of a map, candidate routes read a crossbar link table
//! instead of searching adjacency lists, arrivals merge from a sorted
//! cursor against the event heap
//! ([`pm_sim::event::EventQueue::pop_if_before`]), and a [`RouteSim`]
//! reused across runs keeps every buffer.
//!
//! Routing is a policy decided at injection time:
//!
//! * [`RoutePolicy::Oblivious`] — always the first equivalent path in
//!   deterministic enumeration order (the fixed middle crossbar a
//!   source would be wired to use).
//! * [`RoutePolicy::Adaptive`] — consult the live crossbars: skip
//!   candidates with a held output, rank the rest by the sum of
//!   [`Crossbar::port_conflicts`] over their output ports (the
//!   per-port counters the observability layer publishes), and take
//!   the least-conflicted, first on ties. On an idle network this
//!   degrades to the oblivious choice.
//!
//! Deadlock freedom: worms acquire ports level by level (cluster
//! uplink, middle, cluster downlink), and every route walks levels in
//! the same order on the hierarchical topologies, so hold-and-wait
//! cycles cannot form. [`RouteSim::run`] asserts every worm completes;
//! a topology with cyclic acquisition orders would trip that assert
//! rather than hang.

use crate::backoff::RetryPolicy;
use crate::crossbar::Crossbar;
use crate::fault::{FaultPlan, FaultPlanError, LinkRef, TransientInjector};
use crate::health::{HealthConfig, HealthTable};
use crate::outcome::TransferOutcome;
use crate::stopwire::{self, StallWindows, StopWireConfig};
use crate::topology::{Endpoint, Hop, LinkKey, NodeId, Topology};
use pm_sim::event::EventQueue;
use pm_sim::metrics::MetricRegistry;
use pm_sim::time::{Duration, Time};
use std::collections::VecDeque;

/// One worm to inject: a full-route message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Worm {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Preferred network plane (0 or 1): the link interface, and so
    /// the source lane, the worm queues on.
    pub plane: u32,
    /// Payload bytes (excluding route and close bytes).
    pub payload: u32,
    /// When its route byte reaches the source link interface.
    pub inject_at: Time,
}

/// How a worm picks among equivalent permutation-network paths.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoutePolicy {
    /// First path in deterministic enumeration order, always.
    Oblivious,
    /// Skip held paths, then least conflict-count, first on ties.
    Adaptive,
}

/// Result of simulating a worm batch over a topology.
#[derive(Clone, Debug)]
pub struct RouteSimResult {
    /// Per-worm completion times (last payload byte out of the final
    /// crossbar), in the order worms were supplied.
    pub completions: Vec<Time>,
    /// The makespan: when the last worm completed.
    pub finished_at: Time,
    /// Total payload bytes moved.
    pub payload_bytes: u64,
    /// Most worms simultaneously holding their complete route at any
    /// instant (established and streaming). A worm whose close byte is
    /// still waking the waiters on its route counts as holding it.
    pub peak_inflight: usize,
    /// Route commands that waited for a busy output, summed over every
    /// crossbar (the same counters [`Crossbar::conflicts`] reports).
    pub conflicts: u64,
    /// Worms the adaptive policy steered off the oblivious first path.
    pub detours: u64,
}

impl RouteSimResult {
    /// Aggregate throughput over the makespan, in Mbyte/s.
    pub fn throughput_mbs(&self) -> f64 {
        if self.finished_at == Time::ZERO {
            return 0.0;
        }
        self.payload_bytes as f64 / self.finished_at.as_secs_f64() / 1e6
    }

    /// On-time payload bytes: worms whose last byte arrived within
    /// `deadline` of injection.
    ///
    /// # Panics
    ///
    /// Panics if `worms` disagrees in length with the simulated batch.
    pub fn on_time_bytes(&self, worms: &[Worm], deadline: Duration) -> u64 {
        assert_eq!(worms.len(), self.completions.len(), "batch mismatch");
        worms
            .iter()
            .zip(&self.completions)
            .filter(|(w, &done)| done <= w.inject_at + deadline)
            .map(|(w, _)| u64::from(w.payload))
            .sum()
    }
}

/// Downstream backpressure on the destination links of a
/// single-crossbar topology, for [`RouteSim::run_with_backpressure`].
///
/// Each destination node gets a schedule of stall windows (absolute
/// link ticks during which it cannot accept bytes); worms streaming
/// into a stalled node are throttled by the per-link *stop* wire,
/// computed by [`stopwire::stream_batched`]. Nodes beyond the end of
/// `windows` are unobstructed.
#[derive(Clone, Debug)]
pub struct Backpressure {
    /// FIFO geometry and stop/resume thresholds of the links.
    pub stop: StopWireConfig,
    /// Per-destination-node stall windows, sorted disjoint `[start,
    /// end)` link ticks — the same schedule type route-level
    /// backpressure uses.
    pub windows: Vec<StallWindows>,
}

/// Whose knowledge drives route-around decisions in
/// [`RouteSim::run_resilient`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailoverMode {
    /// Route selection reads the true dead-link set the instant a death
    /// fires — an upper bound no real machine achieves (the schedule is
    /// information the hardware cannot have).
    Oracle,
    /// Route selection consults only the source's own [`HealthTable`],
    /// fed exclusively by its failed opens and delivery timeouts. Every
    /// route-around traces to an observed symptom.
    Detected,
}

/// The failover mode [`RouteSim::run`] drives the shared loop with. Its
/// plan is empty, so nothing is ever dead and no health table is ever
/// written: oracle and detected failover choose identically. Oracle
/// also skips the health-table upkeep on every delivery.
const CLEAN_FAILOVER: FailoverMode = FailoverMode::Oracle;

/// Progress-watchdog policy: scan cadence and the no-progress window
/// after which a blocked worm is declared stalled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Interval between watchdog scans (also the port-timeout latency
    /// bound for reclaiming orphaned ports).
    pub scan_period: Duration,
    /// A blocked worm that acquired no port between two scans and has
    /// waited at least this long is stalled.
    pub stall_threshold: Duration,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            scan_period: Duration::from_us(250),
            stall_threshold: Duration::from_ms(5),
        }
    }
}

/// Everything [`RouteSim::run_resilient`] needs beyond the worm batch
/// and the fault plan.
#[derive(Clone, Copy, Debug)]
pub struct ResilienceConfig {
    /// Route-selection policy among healthy candidates.
    pub policy: RoutePolicy,
    /// Oracle or detected failover (see [`FailoverMode`]).
    pub failover: FailoverMode,
    /// Retransmission attempts and backoff; the worm index is the
    /// jitter salt.
    pub retry: RetryPolicy,
    /// How long the source waits for the route-byte acknowledgement of
    /// a hop before declaring the open failed.
    pub open_timeout: Duration,
    /// How long after a mid-stream sever the source's delivery timeout
    /// lapses (the CRC trailer never arrives).
    pub sever_timeout: Duration,
    /// Quarantine policy for the per-source health tables.
    pub health: HealthConfig,
    /// Watchdog scan cadence and stall threshold.
    pub watchdog: WatchdogConfig,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            policy: RoutePolicy::Adaptive,
            failover: FailoverMode::Detected,
            retry: RetryPolicy::default(),
            open_timeout: Duration::from_us(5),
            sever_timeout: Duration::from_us(20),
            health: HealthConfig::default(),
            watchdog: WatchdogConfig::default(),
        }
    }
}

/// Conservation ledger for one resilient run. Everything the registry
/// publishes reconciles bit-exact against the outcomes:
/// `offered == delivered + dropped` (and likewise for bytes).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Worms submitted.
    pub offered: u64,
    /// Payload bytes submitted.
    pub offered_bytes: u64,
    /// Worms delivered intact (exactly once).
    pub delivered: u64,
    /// Payload bytes delivered intact.
    pub delivered_bytes: u64,
    /// Worms dropped after exhausting retransmission attempts.
    pub dropped: u64,
    /// Payload bytes dropped.
    pub dropped_bytes: u64,
    /// Transmission attempts started (≥ offered).
    pub transmissions: u64,
    /// Opens that timed out on a dead link mid-acquisition.
    pub failed_opens: u64,
    /// In-flight worms cut by a link death.
    pub severed: u64,
    /// Deliveries rejected by the CRC trailer (transient corruption).
    pub corrupted: u64,
    /// Link deaths applied from the plan.
    pub link_downs: u64,
    /// Scheduled repairs applied.
    pub repairs: u64,
    /// Fresh health-table quarantines (first failure of a link).
    pub quarantines: u64,
    /// Route picks forced onto quarantined links because every
    /// candidate on both planes was suspect.
    pub forced_reprobes: u64,
    /// Health-table entries cleared by a successful delivery.
    pub reinstatements: u64,
    /// Watchdog scans executed.
    pub scans: u64,
    /// Orphaned ports (held by severed worms) reclaimed by the
    /// watchdog's port timeout.
    pub orphan_reclaims: u64,
    /// Stalled worms recovered by kill-and-retry.
    pub recoveries: u64,
}

impl ResilienceStats {
    /// Publishes the ledger under `prefix`: conservation counters at
    /// the root, detection counters under `health/`, recovery counters
    /// under `watchdog/`.
    pub fn publish(&self, registry: &mut MetricRegistry, prefix: &str) {
        registry.count(&format!("{prefix}/offered"), self.offered);
        registry.count(&format!("{prefix}/offered_bytes"), self.offered_bytes);
        registry.count(&format!("{prefix}/delivered"), self.delivered);
        registry.count(&format!("{prefix}/delivered_bytes"), self.delivered_bytes);
        registry.count(&format!("{prefix}/dropped"), self.dropped);
        registry.count(&format!("{prefix}/dropped_bytes"), self.dropped_bytes);
        registry.count(&format!("{prefix}/transmissions"), self.transmissions);
        registry.count(&format!("{prefix}/severed"), self.severed);
        registry.count(&format!("{prefix}/corrupted"), self.corrupted);
        registry.count(&format!("{prefix}/link_downs"), self.link_downs);
        registry.count(&format!("{prefix}/repairs"), self.repairs);
        registry.count(&format!("{prefix}/health/failed_opens"), self.failed_opens);
        registry.count(&format!("{prefix}/health/quarantines"), self.quarantines);
        registry.count(
            &format!("{prefix}/health/forced_reprobes"),
            self.forced_reprobes,
        );
        registry.count(
            &format!("{prefix}/health/reinstatements"),
            self.reinstatements,
        );
        registry.count(&format!("{prefix}/watchdog/scans"), self.scans);
        registry.count(
            &format!("{prefix}/watchdog/orphan_reclaims"),
            self.orphan_reclaims,
        );
        registry.count(&format!("{prefix}/watchdog/recoveries"), self.recoveries);
    }
}

/// Terminal fate of one worm in a resilient run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WormOutcome {
    /// Delivered intact; the outcome carries attempts, failovers and
    /// CRC rejections along the way.
    Delivered(TransferOutcome),
    /// Dropped after exhausting retransmission attempts.
    Dropped {
        /// Attempts made before giving up.
        attempts: u32,
    },
}

impl WormOutcome {
    /// The delivery outcome, if the worm made it.
    pub fn delivered(&self) -> Option<&TransferOutcome> {
        match self {
            WormOutcome::Delivered(o) => Some(o),
            WormOutcome::Dropped { .. } => None,
        }
    }
}

/// Result of a resilient run: per-worm fates plus the conservation
/// ledger.
#[derive(Clone, Debug)]
pub struct ResilientResult {
    /// Per-worm terminal outcomes, in the order worms were supplied.
    pub outcomes: Vec<WormOutcome>,
    /// When the last successful delivery completed.
    pub finished_at: Time,
    /// Most worms simultaneously streaming at any instant. A worm stops
    /// counting the moment its last byte arrives, before its close
    /// byte wakes the waiters on its route.
    pub peak_inflight: usize,
    /// Route commands that waited for a busy output, summed over every
    /// crossbar.
    pub conflicts: u64,
    /// Worms the adaptive policy steered off the first healthy path.
    pub detours: u64,
    /// The conservation ledger.
    pub stats: ResilienceStats,
}

impl ResilientResult {
    /// Payload bytes delivered within `deadline` of injection.
    ///
    /// # Panics
    ///
    /// Panics if `worms` disagrees in length with the simulated batch.
    pub fn on_time_bytes(&self, worms: &[Worm], deadline: Duration) -> u64 {
        assert_eq!(worms.len(), self.outcomes.len(), "batch mismatch");
        worms
            .iter()
            .zip(&self.outcomes)
            .filter_map(|(w, o)| o.delivered().map(|d| (w, d)))
            .filter(|(w, d)| d.finished <= w.inject_at + deadline)
            .map(|(w, _)| u64::from(w.payload))
            .sum()
    }

    /// Fraction of offered payload bytes delivered intact (eventually,
    /// not necessarily on time).
    pub fn availability(&self) -> f64 {
        if self.stats.offered_bytes == 0 {
            return 1.0;
        }
        self.stats.delivered_bytes as f64 / self.stats.offered_bytes as f64
    }
}

/// Lifecycle of a worm in the event loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Not yet injected (or queued behind its source interface).
    Idle,
    /// Acquiring ports; waiting on a contended output.
    Blocked,
    /// Full route established; payload streaming.
    Streaming,
    /// Attempt failed; waiting out the retransmission backoff.
    Backoff,
    /// Terminal: delivered intact.
    Delivered,
    /// Terminal: retransmission attempts exhausted.
    Dropped,
}

/// Per-worm bookkeeping (pooled, reset per run), kept to 40 bytes by
/// narrow fields.
#[derive(Clone, Copy, Debug)]
struct WormState {
    /// Head time: when the route byte is ready to cross the next link
    /// (or, while blocked, when it asked for the contended port).
    head_at: Time,
    /// When the current attempt started (kill-and-retry targets the
    /// youngest stalled worm).
    started_at: Time,
    /// Start of the current attempt's hop span in the route arena.
    span_start: u32,
    /// Transmission attempts started.
    attempts: u32,
    /// CRC-rejected deliveries along the way.
    crc_failures: u32,
    /// Times this worm was cut mid-flight by a link death.
    severed: u32,
    /// Hops in the span.
    span_len: u8,
    /// Hops whose output port is already claimed.
    acquired: u8,
    phase: Phase,
    /// Plane of the current attempt.
    plane: u8,
    /// Ever carried on the non-preferred plane.
    failed_over: bool,
    /// Ever carried off the first candidate (or off-plane).
    rerouted: bool,
    /// Acquired a port since the watchdog last saw it blocked.
    progressed: bool,
}

// A 100k-worm batch pays for every byte of the record.
const _: () = assert!(std::mem::size_of::<WormState>() == 40);

impl WormState {
    const IDLE: WormState = WormState {
        head_at: Time::ZERO,
        started_at: Time::ZERO,
        span_start: 0,
        attempts: 0,
        crc_failures: 0,
        severed: 0,
        span_len: 0,
        acquired: 0,
        phase: Phase::Idle,
        plane: 0,
        failed_over: false,
        rerouted: false,
        progressed: false,
    };

    fn span(&self) -> std::ops::Range<usize> {
        let start = self.span_start as usize;
        start..start + usize::from(self.span_len)
    }
}

/// A scheduled change to the physical link state.
#[derive(Clone, Copy, Debug)]
enum FaultChange {
    Down,
    Up,
}

/// Events of the run loop; worm and schedule indices are `u32` so an
/// event stays 8 bytes.
#[derive(Clone, Copy, Debug)]
enum Event {
    /// A streaming worm's last byte reached the destination.
    Done(u32),
    /// A backoff lapsed; retransmit.
    Retry(u32),
    /// Apply entry `i` of the resolved fault schedule.
    Fault(u32),
    /// Watchdog scan: reclaim orphans, kill-and-retry stalled worms.
    Scan,
}

/// Canonical key of link `j` of a hop span: the in-link of hop `j`, or
/// for `j == hops.len()` the final hop's out-link into the destination.
fn link_at(hops: &[Hop], j: usize) -> LinkKey {
    if j == hops.len() {
        let h = hops[j - 1];
        return (h.xbar, h.out_port);
    }
    let h = hops[j];
    if j == 0 {
        return (h.xbar, h.in_port);
    }
    let p = hops[j - 1];
    (p.xbar, p.out_port).min((h.xbar, h.in_port))
}

/// Every link a hop span crosses, in order (`hops.len() + 1` keys).
fn span_links(hops: &[Hop]) -> impl Iterator<Item = LinkKey> + '_ {
    (0..=hops.len()).map(move |j| link_at(hops, j))
}

/// The crossbar link table's entry for a pair with no link between
/// them. Port indices stay below a crossbar's `u32` port count, so no
/// real port is `u32::MAX`.
const NO_LINK: (u32, u32) = (u32::MAX, u32::MAX);

/// A reusable multi-crossbar wormhole simulator over one topology.
///
/// Construction compiles the topology into flat tables (node
/// attachments per plane, each crossbar's crossbar links in port order,
/// and the crossbar link table that names the link from any crossbar
/// toward any other); route selection then indexes tables and searches
/// nothing.
/// Reuse across runs keeps the route arena, waiter queues, event
/// heap, dead-link flags and crossbar state — results are identical to
/// a fresh simulator's.
pub struct RouteSim {
    /// Live crossbars, one per topology crossbar — the same counters
    /// the metrics layer publishes feed the adaptive policy.
    crossbars: Vec<Crossbar>,
    /// Global output-port index base per crossbar (prefix sums).
    port_base: Vec<usize>,
    /// `attach[plane][node]` = the cluster crossbar and port the node's
    /// plane interface is wired to.
    attach: [Vec<Option<(usize, u32)>>; 2],
    /// Per crossbar, in ascending port order: `(out_port, peer_xbar,
    /// peer_in_port)` for every crossbar-to-crossbar link.
    xbar_adj: Vec<Vec<(u32, usize, u32)>>,
    /// The crossbar link table, destination-major: entry `y * nx + x`
    /// is the first `x → y` link in `x`'s port order as `(out_port,
    /// peer_in_port)`, or [`NO_LINK`]. The middles one enumeration
    /// reads toward a destination sit side by side.
    xbar_links: Vec<(u32, u32)>,
    /// Per global output port: canonical key of the wired link, if any
    /// (fault-ref resolution).
    port_link: Vec<Option<LinkKey>>,
    byte_time: Duration,

    // --- pooled per-run state ---
    /// Flat route arena: every attempt's chosen hops, contiguous.
    arena: Vec<Hop>,
    worms: Vec<WormState>,
    /// Per global output port: worm indices blocked on it, FIFO. Every
    /// blocked worm sits in exactly one of these queues.
    waiters: Vec<VecDeque<u32>>,
    /// Per source lane: worms queued behind the busy link interface.
    /// Indexed by [`RouteSim::lane`]: plane 0's lanes, then plane 1's.
    src_queue: Vec<VecDeque<u32>>,
    /// Per source lane: a worm currently owns the link interface.
    src_busy: Vec<bool>,
    /// Completions, retries, faults and watchdog scans.
    events: EventQueue<Event>,
    /// Worm indices sorted by inject time (arrival cursor scratch).
    order: Vec<u32>,
    /// Candidate-route scratch: flat hops plus span bounds.
    cand_hops: Vec<Hop>,
    cand_spans: Vec<(usize, usize)>,
    /// Candidates the failover mode permits: indices into `cand_spans`.
    cand_ok: Vec<usize>,
    /// Per worm: when it was delivered.
    completions: Vec<Time>,
    finished_at: Time,
    /// Worms streaming right now.
    inflight: usize,
    /// Peak of `inflight`.
    peak_inflight: usize,
    /// 1 while a completed worm's close byte wakes the waiters on its
    /// route, else 0.
    closing: usize,
    /// Peak of `inflight + closing`: the closing worm still counts.
    peak_holding: usize,
    detours: u64,
    /// Truth, per global port: the link whose canonical key is that
    /// port is physically dead right now.
    dead: Vec<bool>,
    /// How many links `dead` marks.
    dead_links: usize,
    /// Per source node: its learned view of link health.
    health: Vec<HealthTable>,
    /// Ports held by severed worms, awaiting the watchdog's port
    /// timeout: `(xbar, out_port)`.
    orphans: Vec<(usize, u32)>,
    /// Resolved fault schedule: time-sorted deaths and repairs.
    fault_sched: Vec<(Time, FaultChange, LinkKey)>,
    /// Transient-corruption stream for the current run.
    injector: TransientInjector,
    /// The current run's destination stop wires, if it has any.
    backpressure: Option<Backpressure>,
    /// Worms not yet terminal.
    live: usize,
    stats: ResilienceStats,
}

impl RouteSim {
    /// Compiles `topology` into a simulator.
    ///
    /// # Panics
    ///
    /// Panics if the topology has no crossbars.
    pub fn new(topology: &Topology) -> Self {
        let nx = topology.crossbars();
        assert!(nx > 0, "topology has no crossbars");
        let nodes = topology.nodes();
        let mut crossbars = Vec::with_capacity(nx);
        let mut port_base = Vec::with_capacity(nx);
        let mut attach = [vec![None; nodes], vec![None; nodes]];
        let mut xbar_adj: Vec<Vec<(u32, usize, u32)>> = vec![Vec::new(); nx];
        let mut xbar_links = vec![NO_LINK; nx * nx];
        let mut port_link: Vec<Option<LinkKey>> = Vec::new();
        let mut total_ports = 0usize;
        for (x, adj) in xbar_adj.iter_mut().enumerate() {
            let cfg = topology.crossbar_config(x);
            port_base.push(total_ports);
            total_ports += cfg.ports as usize;
            crossbars.push(Crossbar::new(cfg));
            for p in 0..cfg.ports {
                match topology.port_peer(x, p) {
                    Some((Endpoint::Node { node, link }, _)) => {
                        attach[link as usize][node] = Some((x, p));
                        port_link.push(Some((x, p)));
                    }
                    Some((Endpoint::Xbar { xbar, port }, _)) => {
                        adj.push((p, xbar, port));
                        // Ports ascend: the first link toward `xbar` wins.
                        let entry = &mut xbar_links[xbar * nx + x];
                        if *entry == NO_LINK {
                            *entry = (p, port);
                        }
                        port_link.push(Some((x, p).min((xbar, port))));
                    }
                    None => port_link.push(None),
                }
            }
        }
        RouteSim {
            crossbars,
            port_base,
            attach,
            xbar_adj,
            xbar_links,
            port_link,
            byte_time: crate::wire::WireConfig::synchronous().byte_time,
            arena: Vec::new(),
            worms: Vec::new(),
            waiters: vec![VecDeque::new(); total_ports],
            src_queue: vec![VecDeque::new(); nodes * 2],
            src_busy: vec![false; nodes * 2],
            events: EventQueue::new(),
            order: Vec::new(),
            cand_hops: Vec::new(),
            cand_spans: Vec::new(),
            cand_ok: Vec::new(),
            completions: Vec::new(),
            finished_at: Time::ZERO,
            inflight: 0,
            peak_inflight: 0,
            closing: 0,
            peak_holding: 0,
            detours: 0,
            dead: vec![false; total_ports],
            dead_links: 0,
            health: vec![HealthTable::new(); nodes],
            orphans: Vec::new(),
            fault_sched: Vec::new(),
            injector: TransientInjector::new(&FaultPlan::clean(0)),
            backpressure: None,
            live: 0,
            stats: ResilienceStats::default(),
        }
    }

    /// The first `x → y` link in `x`'s port order, as `(out_port,
    /// peer_in_port)`: one read of the crossbar link table.
    fn link_toward(&self, x: usize, y: usize) -> Option<(u32, u32)> {
        let link = self.xbar_links[y * self.crossbars.len() + x];
        (link != NO_LINK).then_some(link)
    }

    /// Enumerates the candidate paths for `(src, dst, plane)` into the
    /// candidate scratch, in deterministic order: the shared-crossbar
    /// path if the endpoints sit on one crossbar, else every direct
    /// two-hop link in port order, else one three-hop path per uplink
    /// in uplink-port order, leaving its middle crossbar on the first
    /// link toward the destination crossbar in the middle's port order
    /// (the link table's entry; no adjacency is searched).
    ///
    /// Where every middle reaches the destination crossbar over one
    /// link, as on the hierarchical topologies, this is exactly
    /// [`Topology::equivalent_routes`]. A middle with parallel links to
    /// the destination crossbar differs: `equivalent_routes` lists
    /// every (uplink, downlink) pair, while this yields one candidate
    /// per uplink, through the middle's first such link.
    fn enumerate_candidates(&mut self, src: NodeId, dst: NodeId, plane: u32) {
        self.cand_hops.clear();
        self.cand_spans.clear();
        let pl = plane as usize;
        let (sx, sp) = self.attach[pl][src].expect("source not attached on this plane");
        let (dx, dp) = self.attach[pl][dst].expect("destination not attached on this plane");
        if sx == dx {
            self.cand_hops.push(Hop {
                xbar: sx,
                in_port: sp,
                out_port: dp,
            });
            self.cand_spans.push((0, 1));
            return;
        }
        if self.link_toward(sx, dx).is_some() {
            for &(p, peer, q) in &self.xbar_adj[sx] {
                if peer == dx {
                    let start = self.cand_hops.len();
                    self.cand_hops.push(Hop {
                        xbar: sx,
                        in_port: sp,
                        out_port: p,
                    });
                    self.cand_hops.push(Hop {
                        xbar: dx,
                        in_port: q,
                        out_port: dp,
                    });
                    self.cand_spans.push((start, 2));
                }
            }
            return;
        }
        // No uplink leads to `dx` itself (that would be a direct link).
        for &(p, mid, q) in &self.xbar_adj[sx] {
            let Some((r, s)) = self.link_toward(mid, dx) else {
                continue;
            };
            let start = self.cand_hops.len();
            self.cand_hops.push(Hop {
                xbar: sx,
                in_port: sp,
                out_port: p,
            });
            self.cand_hops.push(Hop {
                xbar: mid,
                in_port: q,
                out_port: r,
            });
            self.cand_hops.push(Hop {
                xbar: dx,
                in_port: s,
                out_port: dp,
            });
            self.cand_spans.push((start, 3));
        }
        assert!(
            !self.cand_spans.is_empty(),
            "no path from node {src} to node {dst} on plane {plane}"
        );
    }

    /// Simulates one worm batch under `policy` on a fault-free fabric:
    /// the shared loop over an empty plan, with the watchdog off (a
    /// clean fabric orphans no port, and a hold-and-wait cycle must
    /// panic rather than be broken by kill-and-retry). Results are
    /// identical to a fresh simulator's — reuse only keeps
    /// allocations.
    ///
    /// # Panics
    ///
    /// Panics if a worm names a plane other than 0 or 1 (a node has two
    /// link interfaces), references a node or plane the topology does
    /// not attach, if no path exists, or if the topology's port
    /// acquisition order admits a hold-and-wait cycle (wormhole
    /// deadlock — impossible on the hierarchical configurations).
    pub fn run(&mut self, worms: &[Worm], policy: RoutePolicy) -> RouteSimResult {
        self.run_clean(worms, policy, None)
    }

    /// Simulates one worm batch on a single-crossbar topology whose
    /// destination links carry stop wires: each worm's stream starts on
    /// the next link tick after its route is established and finishes
    /// at the pace [`stopwire::stream_batched`] computes over its
    /// destination's stall windows. A destination without windows
    /// never stalls, but its worms still start tick-aligned, so
    /// completion times are not comparable picosecond for picosecond
    /// with [`RouteSim::run`].
    ///
    /// # Panics
    ///
    /// Panics unless the topology has exactly one crossbar (a longer
    /// route would need its stop wires chained segment by segment, which
    /// this does not model), if a stall schedule is unsorted, if
    /// `bp.stop` is not lossless, and wherever [`RouteSim::run`] panics.
    pub fn run_with_backpressure(&mut self, worms: &[Worm], bp: &Backpressure) -> RouteSimResult {
        assert_eq!(
            self.crossbars.len(),
            1,
            "backpressured runs model a single crossbar exactly"
        );
        self.run_clean(worms, RoutePolicy::Oblivious, Some(bp))
    }

    /// The fault-free run [`RouteSim::run`] and
    /// [`RouteSim::run_with_backpressure`] share.
    fn run_clean(
        &mut self,
        worms: &[Worm],
        policy: RoutePolicy,
        bp: Option<&Backpressure>,
    ) -> RouteSimResult {
        let cfg = ResilienceConfig {
            policy,
            failover: CLEAN_FAILOVER,
            ..ResilienceConfig::default()
        };
        self.simulate(worms, &FaultPlan::clean(0), &cfg, false, bp)
            .expect("an empty plan names no link");
        assert_eq!(
            self.stats.delivered,
            worms.len() as u64,
            "wormhole deadlock: a worm never completed (cyclic port acquisition order)"
        );
        RouteSimResult {
            completions: std::mem::take(&mut self.completions),
            finished_at: self.finished_at,
            payload_bytes: self.stats.delivered_bytes,
            peak_inflight: self.peak_holding,
            conflicts: self.crossbars.iter().map(Crossbar::conflicts).sum(),
            detours: self.detours,
        }
    }

    /// Simulates `worms` under `plan`'s faults with retransmission and
    /// — in [`FailoverMode::Detected`] — purely symptom-driven
    /// route-around: the fault schedule only moves physical link state;
    /// route selection sees it exclusively through the per-source
    /// [`HealthTable`]s.
    ///
    /// Returns [`FaultPlanError::UnknownLink`] if the plan names a link
    /// this topology lacks (application-time validation).
    ///
    /// # Panics
    ///
    /// Panics on a plane other than 0 or 1 and on unattached worm
    /// endpoints, as [`RouteSim::run`] does.
    pub fn run_resilient(
        &mut self,
        worms: &[Worm],
        plan: &FaultPlan,
        cfg: &ResilienceConfig,
    ) -> Result<ResilientResult, FaultPlanError> {
        self.simulate(worms, plan, cfg, true, None)?;
        assert_eq!(self.live, 0, "resilient run left worms unresolved");
        let outcomes = worms
            .iter()
            .zip(&self.worms)
            .zip(&self.completions)
            .map(|((worm, ws), &done)| match ws.phase {
                Phase::Delivered => {
                    let mut o = TransferOutcome::streamed(
                        done,
                        done,
                        u64::from(worm.payload),
                        u32::from(ws.plane),
                    );
                    o.attempts = ws.attempts;
                    o.crc_failures = ws.crc_failures;
                    o.severed = ws.severed;
                    o.failed_over = ws.failed_over;
                    o.rerouted = ws.rerouted;
                    WormOutcome::Delivered(o)
                }
                Phase::Dropped => WormOutcome::Dropped {
                    attempts: ws.attempts,
                },
                phase => unreachable!("a worm ended in non-terminal phase {phase:?}"),
            })
            .collect();
        Ok(ResilientResult {
            outcomes,
            finished_at: self.finished_at,
            peak_inflight: self.peak_inflight,
            conflicts: self.crossbars.iter().map(Crossbar::conflicts).sum(),
            detours: self.detours,
            stats: self.stats,
        })
    }

    /// The event loop every entry point drives: merges the time-sorted
    /// arrivals against the event heap until both are exhausted.
    fn simulate(
        &mut self,
        worms: &[Worm],
        plan: &FaultPlan,
        cfg: &ResilienceConfig,
        watchdog: bool,
        bp: Option<&Backpressure>,
    ) -> Result<(), FaultPlanError> {
        self.reset(worms, plan, cfg, watchdog, bp)?;
        let mut cursor = 0;
        while cursor < self.order.len() {
            let w = self.order[cursor] as usize;
            let at = worms[w].inject_at;
            if let Some((now, ev)) = self.events.pop_if_before(at) {
                self.on_event(worms, ev, now, cfg);
            } else {
                cursor += 1;
                let lane = self.lane(&worms[w]);
                self.src_queue[lane].push_back(w as u32);
                if !self.src_busy[lane] {
                    self.start_next(worms, lane, at, cfg);
                }
            }
        }
        while let Some((now, ev)) = self.events.pop() {
            self.on_event(worms, ev, now, cfg);
        }
        Ok(())
    }

    /// Validates and resolves the fault plan, then arms the pools:
    /// crossbars, per-worm records, arrival order, health tables, the
    /// event heap (fault schedule, plus the first scan if `watchdog`),
    /// the transient injector and the destination stop wires.
    ///
    /// # Panics
    ///
    /// Panics if the batch holds more than `u32::MAX` worms, or if a
    /// worm names a plane other than 0 or 1.
    fn reset(
        &mut self,
        worms: &[Worm],
        plan: &FaultPlan,
        cfg: &ResilienceConfig,
        watchdog: bool,
        bp: Option<&Backpressure>,
    ) -> Result<(), FaultPlanError> {
        let n = u32::try_from(worms.len()).expect("at most u32::MAX worms per batch");
        if let Some(w) = worms.iter().find(|w| w.plane > 1) {
            panic!(
                "worm plane {} is neither 0 nor 1: a node has two link interfaces",
                w.plane
            );
        }
        self.fault_sched.clear();
        for d in plan.schedule() {
            let key = self
                .resolve_link(d.link)
                .ok_or(FaultPlanError::UnknownLink(d.link))?;
            self.fault_sched.push((d.at, FaultChange::Down, key));
        }
        for r in plan.repairs() {
            let key = self
                .resolve_link(r.link)
                .ok_or(FaultPlanError::UnknownLink(r.link))?;
            self.fault_sched.push((r.at, FaultChange::Up, key));
        }
        // Stable: a death and repair at the same instant apply in
        // schedule order (deaths first), deterministically.
        self.fault_sched.sort_by_key(|&(at, _, _)| at);
        self.events.clear();
        self.events.schedule_batch(
            (0u32..)
                .zip(&self.fault_sched)
                .map(|(i, &(at, _, _))| (at, Event::Fault(i))),
        );
        if watchdog && n > 0 {
            self.events
                .schedule(Time::ZERO + cfg.watchdog.scan_period, Event::Scan);
        }
        for xb in &mut self.crossbars {
            xb.reset();
        }
        self.arena.clear();
        self.worms.clear();
        self.worms.resize(worms.len(), WormState::IDLE);
        self.waiters.iter_mut().for_each(VecDeque::clear);
        self.src_queue.iter_mut().for_each(VecDeque::clear);
        self.src_busy.iter_mut().for_each(|b| *b = false);
        self.order.clear();
        self.order.extend(0..n);
        // Stable: simultaneous injections keep supplied order.
        self.order.sort_by_key(|&i| worms[i as usize].inject_at);
        self.completions = vec![Time::ZERO; worms.len()];
        self.finished_at = Time::ZERO;
        self.inflight = 0;
        self.peak_inflight = 0;
        self.closing = 0;
        self.peak_holding = 0;
        self.detours = 0;
        self.dead.fill(false);
        self.dead_links = 0;
        self.orphans.clear();
        self.health.iter_mut().for_each(HealthTable::clear);
        self.injector = TransientInjector::new(plan);
        self.backpressure = bp.cloned();
        self.live = worms.len();
        self.stats = ResilienceStats {
            offered: worms.len() as u64,
            offered_bytes: worms.iter().map(|w| u64::from(w.payload)).sum(),
            ..ResilienceStats::default()
        };
        Ok(())
    }

    /// The health table `src` learned during the last resilient run.
    /// Only [`FailoverMode::Detected`] runs ever write it; every run
    /// clears it at start, so this reads the final state of the most
    /// recent run (convergence checks, diagnostics).
    pub fn health_table(&self, src: usize) -> &HealthTable {
        &self.health[src]
    }

    /// The source lane a worm queues on: one per (preferred plane,
    /// node), the node's two link interfaces. Plane-major, so a batch
    /// on one plane touches one contiguous half. A worm keeps its lane
    /// when it fails over to the other plane.
    fn lane(&self, worm: &Worm) -> usize {
        worm.plane as usize * (self.src_busy.len() / 2) + worm.src
    }

    /// Global index of output port `port` of crossbar `xbar`.
    fn port_index(&self, (xbar, port): (usize, u32)) -> usize {
        self.port_base[xbar] + port as usize
    }

    /// Whether the link with canonical key `key` is physically dead.
    fn is_dead(&self, key: LinkKey) -> bool {
        self.dead[self.port_index(key)]
    }

    /// Resolves a fault-plan link reference against the compiled
    /// topology tables.
    fn resolve_link(&self, link: LinkRef) -> Option<LinkKey> {
        match link {
            LinkRef::NodeLink { node, plane } => {
                let lane = self.attach.get(plane as usize)?;
                let &(x, p) = lane.get(node)?.as_ref()?;
                Some((x, p))
            }
            LinkRef::XbarPort { xbar, port } => {
                if xbar >= self.crossbars.len() {
                    return None;
                }
                let base = self.port_base[xbar];
                let end = self
                    .port_base
                    .get(xbar + 1)
                    .copied()
                    .unwrap_or(self.port_link.len());
                let slot = base + port as usize;
                if slot >= end {
                    return None;
                }
                self.port_link[slot]
            }
        }
    }

    fn on_event(&mut self, worms: &[Worm], ev: Event, now: Time, cfg: &ResilienceConfig) {
        match ev {
            Event::Done(w) => self.on_done(worms, w as usize, now, cfg),
            Event::Retry(w) => {
                if self.worms[w as usize].phase == Phase::Backoff {
                    self.start_attempt(worms, w as usize, now, cfg);
                }
            }
            Event::Fault(i) => {
                let (_, change, key) = self.fault_sched[i as usize];
                self.apply_fault(worms, change, key, now, cfg);
            }
            Event::Scan => self.watchdog_scan(worms, now, cfg),
        }
    }

    /// Starts the next queued worm on source lane `lane`, if any.
    fn start_next(&mut self, worms: &[Worm], lane: usize, now: Time, cfg: &ResilienceConfig) {
        let Some(w) = self.src_queue[lane].pop_front() else {
            return;
        };
        self.src_busy[lane] = true;
        let w = w as usize;
        self.start_attempt(worms, w, now.max(worms[w].inject_at), cfg);
    }

    /// Begins one transmission attempt: pick a route the failover mode
    /// permits, append its hops to the arena, and start acquiring ports.
    /// With no permissible route (oracle view: everything dead), the
    /// attempt is spent and the worm backs off — a repair may land
    /// meanwhile.
    fn start_attempt(&mut self, worms: &[Worm], w: usize, now: Time, cfg: &ResilienceConfig) {
        let worm = worms[w];
        self.worms[w].attempts += 1;
        self.worms[w].started_at = now;
        self.stats.transmissions += 1;
        let Some(pick) = self.pick_route(worm, now, cfg) else {
            self.retry_or_drop(worms, w, now, cfg);
            return;
        };
        let span_start = u32::try_from(self.arena.len()).expect("route arena exceeds u32 hops");
        self.arena
            .extend_from_slice(&self.cand_hops[pick.start..pick.start + pick.len]);
        if pick.forced_reprobe {
            self.stats.forced_reprobes += 1;
        }
        let ws = &mut self.worms[w];
        ws.plane = pick.plane as u8;
        ws.failed_over |= pick.plane != worm.plane;
        ws.rerouted |= pick.index != 0 || pick.plane != worm.plane;
        ws.span_start = span_start;
        ws.span_len = pick.len as u8;
        ws.acquired = 0;
        ws.head_at = now;
        ws.phase = Phase::Blocked;
        self.advance(worms, w, cfg);
    }

    /// Picks a route for one attempt. Tries the preferred plane then
    /// the other; on each, candidates whose links the failover mode
    /// considers bad are filtered before the policy chooses — unless
    /// the source sees nothing dead or quarantined, when every
    /// candidate passes without computing a link key. In detected
    /// mode, if every candidate on both planes is quarantined, the pick
    /// is forced onto the candidate whose worst quarantine lapses
    /// soonest (a deliberate re-probe — without it a source whose whole
    /// view went dark could never recover).
    fn pick_route(&mut self, worm: Worm, now: Time, cfg: &ResilienceConfig) -> Option<Pick> {
        let planes = [worm.plane, 1 - worm.plane];
        let clear = match cfg.failover {
            FailoverMode::Oracle => self.dead_links == 0,
            FailoverMode::Detected => self.health[worm.src].is_empty(),
        };
        for &plane in &planes {
            self.enumerate_candidates(worm.src, worm.dst, plane);
            self.cand_ok.clear();
            let ht = &self.health[worm.src];
            for (i, &(start, len)) in self.cand_spans.iter().enumerate() {
                let bad = !clear
                    && span_links(&self.cand_hops[start..start + len]).any(|k| {
                        match cfg.failover {
                            FailoverMode::Oracle => self.is_dead(k),
                            FailoverMode::Detected => ht.is_quarantined(k, now),
                        }
                    });
                if !bad {
                    self.cand_ok.push(i);
                }
            }
            if let Some(index) = self.choose(cfg.policy) {
                let (start, len) = self.cand_spans[index];
                return Some(Pick {
                    start,
                    len,
                    plane,
                    index,
                    forced_reprobe: false,
                });
            }
        }
        if cfg.failover != FailoverMode::Detected {
            return None;
        }
        // Forced re-probe: everything this source knows is quarantined.
        let mut best: Option<(Time, usize, usize)> = None; // (lapse, plane_rank, index)
        for (rank, &plane) in planes.iter().enumerate() {
            self.enumerate_candidates(worm.src, worm.dst, plane);
            let ht = &self.health[worm.src];
            for (i, &(start, len)) in self.cand_spans.iter().enumerate() {
                let lapse = span_links(&self.cand_hops[start..start + len])
                    .filter_map(|k| ht.quarantined_until(k))
                    .max()
                    .unwrap_or(Time::ZERO);
                let key = (lapse, rank, i);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
        }
        let (_, rank, index) = best?;
        let plane = planes[rank];
        self.enumerate_candidates(worm.src, worm.dst, plane);
        let (start, len) = self.cand_spans[index];
        Some(Pick {
            start,
            len,
            plane,
            index,
            forced_reprobe: true,
        })
    }

    /// Chooses among the permitted candidates in `cand_ok` per `policy`;
    /// `None` if none survived the failover filter.
    fn choose(&mut self, policy: RoutePolicy) -> Option<usize> {
        match policy {
            RoutePolicy::Oblivious => self.cand_ok.first().copied(),
            RoutePolicy::Adaptive => {
                // Prefer free paths by least conflict-sum; if every path
                // has a held output, take the one with the fewest held
                // hops (it frees soonest in expectation), conflicts as
                // the tiebreak. `(held, conflicts, index)` sorts all of
                // that lexicographically without allocating.
                let mut best: Option<(usize, u64, usize)> = None;
                for &i in &self.cand_ok {
                    let (start, len) = self.cand_spans[i];
                    let mut held = 0usize;
                    let mut conflicts = 0u64;
                    for h in &self.cand_hops[start..start + len] {
                        let xb = &self.crossbars[h.xbar];
                        held += usize::from(xb.is_held(h.out_port));
                        conflicts += xb.port_conflicts(h.out_port);
                    }
                    let key = (held, conflicts, i);
                    if best.is_none_or(|b| key < b) {
                        best = Some(key);
                    }
                }
                let (_, _, i) = best?;
                if i != 0 {
                    self.detours += 1;
                }
                Some(i)
            }
        }
    }

    /// Acquires output ports hop by hop from the worm's current
    /// position. Blocks (registers as a waiter, keeping earlier hops
    /// held) at the first held output; schedules completion after the
    /// last. Every link is checked against the physical dead set before
    /// the route byte crosses it — a dead cable swallows the byte and
    /// the open times out at the source (this is *physics*, identical in
    /// both failover modes; only route *choice* differs between them).
    fn advance(&mut self, worms: &[Worm], w: usize, cfg: &ResilienceConfig) {
        let mut ws = self.worms[w];
        let span = ws.span();
        while ws.acquired < ws.span_len {
            let k = usize::from(ws.acquired);
            // The route byte serialises over the incoming link first.
            let want = ws.head_at + self.byte_time;
            if self.dead_links > 0 {
                let in_key = link_at(&self.arena[span.clone()], k);
                if self.is_dead(in_key) {
                    self.worms[w] = ws;
                    self.fail_open(worms, w, in_key, want + cfg.open_timeout, cfg);
                    return;
                }
            }
            let h = self.arena[span.start + k];
            if self.crossbars[h.xbar].is_held(h.out_port) {
                ws.head_at = want;
                ws.phase = Phase::Blocked;
                self.worms[w] = ws;
                let port = self.port_index((h.xbar, h.out_port));
                self.waiters[port].push_back(w as u32);
                return;
            }
            let grant = self.crossbars[h.xbar].route(h.in_port, h.out_port, want);
            ws.head_at = grant.established;
            ws.acquired += 1;
            ws.progressed = true;
        }
        // Full route held: the final link into the destination node must
        // also be up before the payload can stream.
        if self.dead_links > 0 {
            let out_key = link_at(&self.arena[span.clone()], span.len());
            if self.is_dead(out_key) {
                self.worms[w] = ws;
                let detect_at = ws.head_at + self.byte_time + cfg.open_timeout;
                self.fail_open(worms, w, out_key, detect_at, cfg);
                return;
            }
        }
        ws.phase = Phase::Streaming;
        self.worms[w] = ws;
        self.inflight += 1;
        self.peak_inflight = self.peak_inflight.max(self.inflight);
        self.peak_holding = self.peak_holding.max(self.inflight + self.closing);
        self.events
            .schedule(self.done_at(&ws, &worms[w]), Event::Done(w as u32));
    }

    /// An open failed: the route byte vanished into `key` and the
    /// source's open timeout lapsed at `detect_at`. Tear down the
    /// partial route, record the symptom, retry.
    fn fail_open(
        &mut self,
        worms: &[Worm],
        w: usize,
        key: LinkKey,
        detect_at: Time,
        cfg: &ResilienceConfig,
    ) {
        self.stats.failed_opens += 1;
        self.worms[w].phase = Phase::Backoff;
        let acquired = usize::from(self.worms[w].acquired);
        self.release_span(worms, w, acquired, detect_at, cfg);
        self.learn_failure(worms[w].src, key, detect_at, cfg);
        self.retry_or_drop(worms, w, detect_at, cfg);
    }

    /// Records a failure symptom in the source's health table (detected
    /// mode only — the oracle needs no ledger).
    fn learn_failure(&mut self, src: NodeId, key: LinkKey, at: Time, cfg: &ResilienceConfig) {
        if cfg.failover != FailoverMode::Detected {
            return;
        }
        if self.health[src].record_failure(key, at, &cfg.health) {
            self.stats.quarantines += 1;
        }
    }

    /// Releases the first `upto` hops of `w`'s span: close each output
    /// in order (staggered one byte time apart, like a close byte
    /// trailing through) and wake the longest-blocked waiter per freed
    /// port.
    fn release_span(
        &mut self,
        worms: &[Worm],
        w: usize,
        upto: usize,
        mut close_at: Time,
        cfg: &ResilienceConfig,
    ) {
        let start = self.worms[w].span_start as usize;
        for k in 0..upto {
            let h = self.arena[start + k];
            self.crossbars[h.xbar].close(h.out_port, close_at);
            self.wake_waiter(worms, h.xbar, h.out_port, cfg);
            close_at += self.byte_time;
        }
    }

    /// Grants a freed port to its longest-blocked waiter, if any, and
    /// lets that worm continue acquiring.
    fn wake_waiter(&mut self, worms: &[Worm], xbar: usize, out_port: u32, cfg: &ResilienceConfig) {
        let port = self.port_index((xbar, out_port));
        let Some(waiter) = self.waiters[port].pop_front() else {
            return;
        };
        let ws = &mut self.worms[waiter as usize];
        let wh = self.arena[ws.span_start as usize + usize::from(ws.acquired)];
        // The waiter asked at its `head_at`; the wait until this close
        // is what the crossbar conflict counters record.
        let grant = self.crossbars[wh.xbar].route(wh.in_port, wh.out_port, ws.head_at);
        ws.head_at = grant.established;
        ws.acquired += 1;
        ws.progressed = true;
        self.advance(worms, waiter as usize, cfg);
    }

    /// When a streaming worm's last byte arrives. Cut-through: payload
    /// and close byte stream at link rate behind the established head,
    /// or, under backpressure, from the next link tick at the pace the
    /// destination's stop wire allows.
    fn done_at(&self, ws: &WormState, worm: &Worm) -> Time {
        let bytes = u64::from(worm.payload) + 1;
        let Some(bp) = &self.backpressure else {
            return ws.head_at + self.byte_time * bytes;
        };
        let bt = self.byte_time.as_ps();
        let windows = bp.windows.get(worm.dst).map_or(&[][..], Vec::as_slice);
        let s = stopwire::stream_batched(bp.stop, ws.head_at.as_ps().div_ceil(bt), bytes, windows);
        Time::from_ps((s.finish_tick + 1) * bt)
    }

    /// Spends the failed attempt: schedule a jittered-backoff retry, or
    /// drop the worm if its attempts are exhausted (freeing its source
    /// lane for the next queued worm).
    fn retry_or_drop(&mut self, worms: &[Worm], w: usize, now: Time, cfg: &ResilienceConfig) {
        let attempts = self.worms[w].attempts;
        if attempts >= cfg.retry.max_attempts {
            self.worms[w].phase = Phase::Dropped;
            self.stats.dropped += 1;
            self.stats.dropped_bytes += u64::from(worms[w].payload);
            self.live -= 1;
            let lane = self.lane(&worms[w]);
            self.src_busy[lane] = false;
            self.start_next(worms, lane, now, cfg);
        } else {
            self.worms[w].phase = Phase::Backoff;
            let gap = cfg.retry.gap_after(w as u64, attempts);
            self.events.schedule(now + gap, Event::Retry(w as u32));
        }
    }

    /// A streaming worm's completion event fired. Stale events (the
    /// attempt was severed meanwhile) are recognised and ignored. The
    /// close byte trails through the route releasing each output in
    /// order, waking the longest-blocked waiter per freed port. The
    /// CRC trailer is checked at the destination: transient corruption
    /// rejects the delivery and the source retransmits; a delivery
    /// frees the worm's source lane for its next queued worm.
    fn on_done(&mut self, worms: &[Worm], w: usize, now: Time, cfg: &ResilienceConfig) {
        let ws = self.worms[w];
        let payload = worms[w].payload;
        if ws.phase != Phase::Streaming || self.done_at(&ws, &worms[w]) != now {
            return;
        }
        self.inflight -= 1;
        self.closing = 1;
        self.release_span(worms, w, usize::from(ws.span_len), now, cfg);
        self.closing = 0;
        // No draw can hit at rate 0.
        if self.injector.rate() > 0.0 && self.injector.draw(payload as usize).is_some() {
            self.worms[w].crc_failures += 1;
            self.worms[w].phase = Phase::Backoff;
            self.stats.corrupted += 1;
            self.retry_or_drop(worms, w, now, cfg);
            return;
        }
        self.worms[w].phase = Phase::Delivered;
        self.completions[w] = now;
        self.finished_at = self.finished_at.max(now);
        self.stats.delivered += 1;
        self.stats.delivered_bytes += u64::from(payload);
        self.live -= 1;
        let src = worms[w].src;
        if cfg.failover == FailoverMode::Detected && !self.health[src].is_empty() {
            // A delivery is positive evidence for every link it crossed:
            // lapsed-quarantine re-probes get reinstated here.
            for key in span_links(&self.arena[ws.span()]) {
                if self.health[src].record_success(key) {
                    self.stats.reinstatements += 1;
                }
            }
        }
        let lane = self.lane(&worms[w]);
        self.src_busy[lane] = false;
        self.start_next(worms, lane, now, cfg);
    }

    /// Applies a scheduled physical link-state change. A death severs
    /// every worm whose occupied span crosses the link.
    fn apply_fault(
        &mut self,
        worms: &[Worm],
        change: FaultChange,
        key: LinkKey,
        now: Time,
        cfg: &ResilienceConfig,
    ) {
        let slot = self.port_index(key);
        match change {
            FaultChange::Up => {
                if std::mem::take(&mut self.dead[slot]) {
                    self.dead_links -= 1;
                    self.stats.repairs += 1;
                }
            }
            FaultChange::Down => {
                if std::mem::replace(&mut self.dead[slot], true) {
                    return;
                }
                self.dead_links += 1;
                self.stats.link_downs += 1;
                for w in 0..worms.len() {
                    let ws = self.worms[w];
                    // Links the worm physically occupies right now: a
                    // streaming worm spans all of them; a blocked worm
                    // has crossed the in-links of its acquired hops plus
                    // the one it is asking over.
                    let occupied = match ws.phase {
                        Phase::Streaming => usize::from(ws.span_len) + 1,
                        Phase::Blocked => usize::from(ws.acquired) + 1,
                        _ => continue,
                    };
                    let hops = &self.arena[ws.span()];
                    let Some(cut) = span_links(hops).take(occupied).position(|k| k == key) else {
                        continue;
                    };
                    self.sever(worms, w, cut, now, cfg);
                }
            }
        }
    }

    /// Cuts worm `w` at link index `cut` of its span. Hops upstream of
    /// the cut are torn down by the source; hops at or past it are
    /// unreachable — their ports stay held (orphaned) until the
    /// watchdog's next scan reclaims them. The source only learns of
    /// the loss when its delivery timeout lapses.
    fn sever(&mut self, worms: &[Worm], w: usize, cut: usize, now: Time, cfg: &ResilienceConfig) {
        let ws = self.worms[w];
        let span = ws.span();
        self.stats.severed += 1;
        self.worms[w].severed += 1;
        let held = match ws.phase {
            Phase::Streaming => {
                self.inflight -= 1;
                span.len()
            }
            Phase::Blocked => {
                self.leave_waiter_queue(w);
                usize::from(ws.acquired)
            }
            phase => unreachable!("severing a worm in phase {phase:?}"),
        };
        self.worms[w].phase = Phase::Backoff;
        let reachable = cut.min(held);
        self.release_span(worms, w, reachable, now, cfg);
        for k in reachable..held {
            let h = self.arena[span.start + k];
            self.orphans.push((h.xbar, h.out_port));
        }
        let detect_at = now + cfg.sever_timeout;
        let key = link_at(&self.arena[span], cut);
        self.learn_failure(worms[w].src, key, detect_at, cfg);
        self.retry_or_drop(worms, w, detect_at, cfg);
    }

    /// Removes blocked worm `w` from the waiter queue of the port it is
    /// asking for.
    fn leave_waiter_queue(&mut self, w: usize) {
        let ws = self.worms[w];
        let h = self.arena[ws.span_start as usize + usize::from(ws.acquired)];
        let port = self.port_index((h.xbar, h.out_port));
        let queue = &mut self.waiters[port];
        if let Some(pos) = queue.iter().position(|&x| x as usize == w) {
            queue.remove(pos);
        }
    }

    /// One watchdog scan: reclaim every orphaned port (the hardware
    /// port timeout), then kill-and-retry at most one stalled worm —
    /// the *youngest* blocked worm that acquired no port since the
    /// previous scan and whose wait exceeds the threshold.
    /// Killing the youngest frees the resources the oldest (closest to
    /// done) are waiting on without sacrificing their progress.
    ///
    /// Only blocked worms can stall, and each sits in exactly one
    /// waiter queue, so the scan walks the queues rather than the
    /// batch. The victim is the maximum of the unique key
    /// `(started_at, worm)`, so the visiting order cannot change it.
    fn watchdog_scan(&mut self, worms: &[Worm], now: Time, cfg: &ResilienceConfig) {
        self.stats.scans += 1;
        while let Some((xbar, port)) = self.orphans.pop() {
            self.crossbars[xbar].close(port, now);
            self.stats.orphan_reclaims += 1;
            self.wake_waiter(worms, xbar, port, cfg);
        }
        let mut victim: Option<(Time, u32)> = None;
        for &w in self.waiters.iter().flatten() {
            let ws = &mut self.worms[w as usize];
            if std::mem::take(&mut ws.progressed) || ws.head_at + cfg.watchdog.stall_threshold > now
            {
                continue;
            }
            let key = (ws.started_at, w);
            if victim.is_none_or(|v| key > v) {
                victim = Some(key);
            }
        }
        if let Some((_, w)) = victim {
            self.stats.recoveries += 1;
            self.kill_and_retry(worms, w as usize, now, cfg);
        }
        if self.live > 0 {
            self.events
                .schedule(now + cfg.watchdog.scan_period, Event::Scan);
        }
    }

    /// Kills a stalled blocked worm — removes it from its waiter queue,
    /// releases everything it holds (waking waiters) — and retries it
    /// under the normal backoff, route re-picked from current
    /// knowledge. No payload was streaming, so nothing is lost.
    fn kill_and_retry(&mut self, worms: &[Worm], w: usize, now: Time, cfg: &ResilienceConfig) {
        self.leave_waiter_queue(w);
        self.worms[w].phase = Phase::Backoff;
        let acquired = usize::from(self.worms[w].acquired);
        self.release_span(worms, w, acquired, now, cfg);
        self.retry_or_drop(worms, w, now, cfg);
    }
}

/// A chosen route for one attempt: span bounds in the candidate scratch
/// and how it was picked.
struct Pick {
    start: usize,
    len: usize,
    plane: u32,
    index: usize,
    forced_reprobe: bool,
}

/// A perfect hierarchical permutation: node `(c, l)` sends to local
/// index `l` of cluster `(c + l + 1) mod clusters` — with `per` locals
/// per cluster and at least `per` middle crossbars, a greedy adaptive
/// policy finds a conflict-free matching that keeps every worm in
/// flight simultaneously.
pub fn permutation_worms(
    clusters: usize,
    per: usize,
    payload: u32,
    plane: u32,
    inject_at: Time,
) -> Vec<Worm> {
    let mut out = Vec::with_capacity(clusters * per);
    for c in 0..clusters {
        for l in 0..per {
            let dst_cluster = (c + l + 1) % clusters;
            out.push(Worm {
                src: c * per + l,
                dst: dst_cluster * per + l,
                plane,
                payload,
                inject_at,
            });
        }
    }
    out
}

/// `per_node` worms from every node on plane 0, node-major, the `k`-th
/// injected at `10 ns * k`, each to the node `dst` picks for its source.
fn staggered_worms(
    nodes: usize,
    per_node: u32,
    payload: u32,
    mut dst: impl FnMut(NodeId) -> NodeId,
) -> Vec<Worm> {
    let mut out = Vec::with_capacity(nodes * per_node as usize);
    for src in 0..nodes {
        for k in 0..per_node {
            out.push(Worm {
                src,
                dst: dst(src),
                plane: 0,
                payload,
                inject_at: Time::ZERO + Duration::from_ns(10) * u64::from(k),
            });
        }
    }
    out
}

/// Node `i` sends `per_node` worms to node `(i + rotate) mod nodes`: on
/// one crossbar, the conflict-free case it serves at full rate.
pub fn rotation_worms(nodes: usize, per_node: u32, payload: u32, rotate: usize) -> Vec<Worm> {
    staggered_worms(nodes, per_node, payload, |src| (src + rotate) % nodes)
}

/// Every node sends `per_node` worms to uniformly random destinations
/// (itself included), for saturation experiments.
pub fn uniform_random_worms(nodes: usize, per_node: u32, payload: u32, seed: u64) -> Vec<Worm> {
    let mut rng = pm_sim::rng::SimRng::seed_from(seed);
    staggered_worms(nodes, per_node, payload, |_| {
        rng.gen_range(0, nodes as u64) as NodeId
    })
}

/// Every node sends `per_node` worms to node 0: the hot-spot worst
/// case, one output serialising everything.
pub fn hotspot_worms(nodes: usize, per_node: u32, payload: u32) -> Vec<Worm> {
    staggered_worms(nodes, per_node, payload, |_| 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crossbar::CrossbarConfig;
    use crate::topology::LinkKind;

    fn sim128() -> (Topology, RouteSim) {
        let t = Topology::system256();
        let s = RouteSim::new(&t);
        (t, s)
    }

    /// The candidate scratch as one hop slice per candidate.
    fn candidates(s: &RouteSim) -> Vec<&[Hop]> {
        s.cand_spans
            .iter()
            .map(|&(start, len)| &s.cand_hops[start..start + len])
            .collect()
    }

    fn assert_candidates_match(t: &Topology, s: &mut RouteSim, src: usize, dst: usize, plane: u32) {
        let expect = t.equivalent_routes(src, dst, plane);
        s.enumerate_candidates(src, dst, plane);
        let hops: Vec<&[Hop]> = expect.iter().map(|r| &r.hops[..]).collect();
        assert_eq!(candidates(s), hops, "{src}->{dst} plane {plane}");
    }

    #[test]
    fn candidate_enumeration_matches_equivalent_routes() {
        // Every cluster pair of system256 on both planes, one node per
        // cluster (a cluster's second node for the intra-cluster pair).
        let (t, mut s) = sim128();
        let node = |cluster: usize, k: usize| cluster * 8 + (cluster + k) % 8;
        for plane in 0..2 {
            for a in 0..16 {
                for b in 0..16 {
                    let dst = node(b, usize::from(a == b));
                    assert_candidates_match(&t, &mut s, node(a, 0), dst, plane);
                }
            }
        }
        // A fixed-seed sample of system1024 node pairs.
        let t = Topology::system1024();
        let mut s = RouteSim::new(&t);
        let mut rng = pm_sim::rng::SimRng::seed_from(5);
        for _ in 0..1000 {
            let src = rng.gen_range(0, 1024) as usize;
            let dst = (src + 1 + rng.gen_range(0, 1023) as usize) % 1024;
            let plane = rng.gen_range(0, 2) as u32;
            assert_candidates_match(&t, &mut s, src, dst, plane);
        }
    }

    /// Node 0 on crossbar 0, node 1 on crossbar 1 (plane 0 only),
    /// joined through middles 2 and 3. Middle 2 reaches crossbar 1 over
    /// two parallel links, wired out of port order so that its first
    /// link in port order (port 1, into crossbar 1's port 4) is not the
    /// one with the lowest peer port (port 3, into port 2).
    fn parallel_link_topology() -> Topology {
        let cfg = CrossbarConfig::powermanna();
        let mut t = Topology::with_nodes(2);
        let a = t.add_crossbar(cfg);
        let b = t.add_crossbar(cfg);
        let m0 = t.add_crossbar(cfg);
        let m1 = t.add_crossbar(cfg);
        let async_link = LinkKind::Asynchronous;
        t.connect_node(0, 0, a, 0, LinkKind::Synchronous);
        t.connect_node(1, 0, b, 0, LinkKind::Synchronous);
        t.connect_xbars(a, 1, m0, 0, async_link);
        t.connect_xbars(a, 2, m1, 0, async_link);
        t.connect_xbars(m0, 3, b, 2, async_link);
        t.connect_xbars(m0, 1, b, 4, async_link);
        t.connect_xbars(m1, 1, b, 3, async_link);
        t
    }

    #[test]
    fn parallel_middle_links_yield_one_candidate_per_uplink() {
        let t = parallel_link_topology();
        let mut s = RouteSim::new(&t);
        // equivalent_routes lists every (uplink, downlink) pair: middle
        // 2 over its port 1, then over its port 3, then middle 3.
        let every = t.equivalent_routes(0, 1, 0);
        assert_eq!(every.len(), 3);
        assert_eq!(every[1].hops[1].out_port, 3);
        // RouteSim yields one candidate per uplink, through middle 2's
        // first link in port order: the table keeps that link.
        assert_eq!(s.link_toward(2, 1), Some((1, 4)));
        s.enumerate_candidates(0, 1, 0);
        assert_eq!(candidates(&s), vec![&every[0].hops[..], &every[2].hops[..]]);
    }

    #[test]
    fn link_table_matches_a_linear_search() {
        for t in [
            Topology::system256(),
            Topology::system1024(),
            parallel_link_topology(),
        ] {
            let s = RouteSim::new(&t);
            let nx = t.crossbars();
            // Each crossbar's crossbar links in port order, read from
            // the topology rather than from the simulator.
            let adjacency: Vec<Vec<(u32, usize, u32)>> = (0..nx)
                .map(|x| {
                    (0..t.crossbar_config(x).ports)
                        .filter_map(|p| match t.port_peer(x, p)? {
                            (Endpoint::Xbar { xbar, port }, _) => Some((p, xbar, port)),
                            (Endpoint::Node { .. }, _) => None,
                        })
                        .collect()
                })
                .collect();
            for (x, adj) in adjacency.iter().enumerate() {
                for y in 0..nx {
                    let first = adj
                        .iter()
                        .find(|&&(_, peer, _)| peer == y)
                        .map(|&(p, _, q)| (p, q));
                    assert_eq!(s.link_toward(x, y), first, "{x} -> {y}");
                }
            }
        }
    }

    #[test]
    fn single_worm_timing_matches_route_length() {
        // Three crossbars: the route byte serialises over three links
        // and decodes three times before the payload streams.
        let (t, mut s) = sim128();
        let route = t.route(0, 127, 0).expect("routes exist");
        assert_eq!(route.crossbars(), 3);
        let worms = vec![Worm {
            src: 0,
            dst: 127,
            plane: 0,
            payload: 64,
            inject_at: Time::ZERO,
        }];
        let r = s.run(&worms, RoutePolicy::Oblivious);
        let bt = crate::wire::WireConfig::synchronous().byte_time;
        let decode = CrossbarConfig::powermanna().route_time;
        let expect = Time::ZERO + bt * 3 + decode * 3 + bt * 65;
        assert_eq!(r.completions[0], expect);
        assert_eq!(r.peak_inflight, 1);
        assert_eq!(r.conflicts, 0);
    }

    #[test]
    fn permutation_keeps_every_worm_in_flight_adaptively() {
        let t = Topology::system1024();
        let mut s = RouteSim::new(&t);
        let worms = permutation_worms(128, 8, 4096, 0, Time::ZERO);
        assert_eq!(worms.len(), 1024);
        let r = s.run(&worms, RoutePolicy::Adaptive);
        assert_eq!(r.completions.len(), 1024);
        assert!(
            r.peak_inflight >= 1000,
            "adaptive routing should keep 1000+ worms in flight, got {}",
            r.peak_inflight
        );
        assert!(r.detours > 0, "spreading over middles requires detours");
    }

    #[test]
    fn adaptive_beats_oblivious_under_contention() {
        // Every source in cluster 0 sends to a distinct cluster: the
        // oblivious policy funnels all eight worms through the uplink
        // to middle 0; adaptive spreads them over all eight middles.
        let (_, mut s) = sim128();
        let worms: Vec<Worm> = (0..8)
            .map(|l| Worm {
                src: l,
                dst: (l + 1) * 8 + l,
                plane: 0,
                payload: 1024,
                inject_at: Time::ZERO,
            })
            .collect();
        let obl = s.run(&worms, RoutePolicy::Oblivious);
        let ada = s.run(&worms, RoutePolicy::Adaptive);
        assert!(
            ada.detours > 0,
            "adaptive should reroute off the shared uplink"
        );
        assert!(
            ada.finished_at < obl.finished_at,
            "adaptive {} must beat oblivious {}",
            ada.finished_at,
            obl.finished_at
        );
        assert!(ada.conflicts < obl.conflicts);
        assert_eq!(obl.detours, 0);
    }

    /// 200 worms between uniform system256 node pairs on plane 0,
    /// injected uniformly over `[0, spread_ns)`.
    fn uniform_worms(seed: u64, payload: u32, spread_ns: u64) -> Vec<Worm> {
        let mut rng = pm_sim::rng::SimRng::seed_from(seed);
        (0..200)
            .map(|_| {
                let src = rng.gen_range(0, 128) as usize;
                let mut dst = rng.gen_range(0, 128) as usize;
                if dst == src {
                    dst = (dst + 1) % 128;
                }
                let inject_at = Time::ZERO + Duration::from_ns(rng.gen_range(0, spread_ns));
                worm(src, dst, payload, inject_at)
            })
            .collect()
    }

    #[test]
    fn reused_simulator_matches_fresh_runs() {
        let t = Topology::system256();
        let mut reused = RouteSim::new(&t);
        for seed in [1u64, 2, 3] {
            let worms = uniform_worms(seed, 256, 10_000);
            for policy in [RoutePolicy::Oblivious, RoutePolicy::Adaptive] {
                let fresh = RouteSim::new(&t).run(&worms, policy);
                let again = reused.run(&worms, policy);
                assert_eq!(fresh.completions, again.completions);
                assert_eq!(fresh.peak_inflight, again.peak_inflight);
                assert_eq!(fresh.conflicts, again.conflicts);
                assert_eq!(fresh.detours, again.detours);
            }
        }
    }

    #[test]
    fn blocked_worm_queues_and_completes_after_holder() {
        // Two worms to the same destination node: the second must wait
        // for the first's close on the final output port.
        let (_, mut s) = sim128();
        let worms = vec![
            Worm {
                src: 0,
                dst: 127,
                plane: 0,
                payload: 4096,
                inject_at: Time::ZERO,
            },
            Worm {
                src: 1,
                dst: 127,
                plane: 0,
                payload: 64,
                inject_at: Time::ZERO,
            },
        ];
        let r = s.run(&worms, RoutePolicy::Adaptive);
        assert!(r.completions[1] > r.completions[0]);
        assert!(r.conflicts >= 1);
        assert_eq!(r.payload_bytes, 4096 + 64);
    }

    #[test]
    fn source_serialises_its_own_worms() {
        let (_, mut s) = sim128();
        let worms = vec![
            Worm {
                src: 0,
                dst: 100,
                plane: 0,
                payload: 2048,
                inject_at: Time::ZERO,
            },
            Worm {
                src: 0,
                dst: 90,
                plane: 0,
                payload: 64,
                inject_at: Time::ZERO,
            },
        ];
        let r = s.run(&worms, RoutePolicy::Adaptive);
        // Head-of-line at the source: the second worm starts only after
        // the first completes, even though the adaptive policy could
        // have given it a network path disjoint from the first's.
        assert!(r.completions[1] > r.completions[0]);
    }

    #[test]
    fn each_link_interface_is_its_own_source_lane() {
        let mut s = RouteSim::new(&Topology::two_nodes());
        let on = |plane| Worm {
            src: 0,
            dst: 1,
            plane,
            payload: 4096,
            inject_at: Time::ZERO,
        };
        let lone = s.run(&[on(0)], RoutePolicy::Oblivious).completions[0];
        // One worm per plane: the node's two link interfaces stream at
        // once, so both finish at a lone worm's time.
        let r = s.run(&[on(0), on(1)], RoutePolicy::Oblivious);
        assert_eq!(r.completions, vec![lone, lone]);
        // Two worms on one plane share its lane and serialise.
        let r = s.run(&[on(0), on(0)], RoutePolicy::Oblivious);
        assert_eq!(r.completions[0], lone);
        assert!(r.completions[1] >= lone + lone.since(Time::ZERO));
    }

    #[test]
    #[should_panic(expected = "worm plane 2 is neither 0 nor 1")]
    fn a_third_plane_panics_at_reset() {
        let (_, mut s) = sim128();
        let mut w = worm(0, 1, 64, Time::ZERO);
        w.plane = 2;
        s.run(&[w], RoutePolicy::Oblivious);
    }

    #[test]
    fn on_time_bytes_respects_the_deadline() {
        let (_, mut s) = sim128();
        let worms = vec![
            Worm {
                src: 0,
                dst: 127,
                plane: 0,
                payload: 4096,
                inject_at: Time::ZERO,
            },
            Worm {
                src: 1,
                dst: 127,
                plane: 0,
                payload: 64,
                inject_at: Time::ZERO,
            },
        ];
        let r = s.run(&worms, RoutePolicy::Adaptive);
        let all = r.on_time_bytes(&worms, Duration::from_us(100_000));
        assert_eq!(all, 4096 + 64);
        // A deadline only the unblocked worm meets drops the other's
        // payload from the on-time ledger.
        let tight = r.completions[0].since(Time::ZERO);
        assert_eq!(r.on_time_bytes(&worms, tight), 4096);
    }

    // --- one crossbar: X5's fabric ---

    /// Sixteen nodes on one crossbar, node `i` on port `i`.
    fn crossbar16() -> RouteSim {
        let mut t = Topology::with_nodes(16);
        let x = t.add_crossbar(CrossbarConfig::powermanna());
        for n in 0..16 {
            t.connect_node(n, 0, x, n as u32, LinkKind::Synchronous);
        }
        RouteSim::new(&t)
    }

    #[test]
    fn permutation_traffic_never_conflicts_on_one_crossbar() {
        let r = crossbar16().run(&rotation_worms(16, 8, 256, 5), RoutePolicy::Oblivious);
        assert_eq!(r.conflicts, 0);
        // All 16 streams at 60 MB/s: aggregate near 16x one link.
        assert!(
            r.throughput_mbs() > 700.0,
            "aggregate {:.0} MB/s",
            r.throughput_mbs()
        );
    }

    #[test]
    fn hotspot_traffic_serialises_on_one_output() {
        let r = crossbar16().run(&hotspot_worms(16, 2, 256), RoutePolicy::Oblivious);
        // One output at 60 MB/s bounds aggregate throughput.
        assert!(
            r.throughput_mbs() < 65.0,
            "hotspot {:.0} MB/s must be one-link bound",
            r.throughput_mbs()
        );
        assert!(r.conflicts > 0);
    }

    #[test]
    fn uniform_traffic_lands_between_the_extremes() {
        let mut s = crossbar16();
        let mut mbs = |worms: Vec<Worm>| s.run(&worms, RoutePolicy::Oblivious).throughput_mbs();
        let uniform = mbs(uniform_random_worms(16, 16, 256, 7));
        let perm = mbs(rotation_worms(16, 16, 256, 1));
        let hot = mbs(hotspot_worms(16, 16, 256));
        assert!(
            hot < uniform && uniform < perm,
            "hotspot {hot:.0} < uniform {uniform:.0} < permutation {perm:.0} MB/s"
        );
    }

    #[test]
    fn a_stalled_destination_delays_only_its_own_worms() {
        // Node 0 refuses bytes for a long stretch; node 1 never stalls.
        let stall = vec![(0, 100_000)];
        let bp = Backpressure {
            stop: StopWireConfig::powermanna(),
            windows: vec![stall.clone()],
        };
        let worms = [worm(2, 0, 1024, Time::ZERO), worm(3, 1, 1024, Time::ZERO)];
        let mut s = crossbar16();
        let free = s.run(&worms, RoutePolicy::Oblivious);
        let r = s.run_with_backpressure(&worms, &bp);
        let bt = crate::wire::WireConfig::synchronous().byte_time;
        // The unstalled worm only waits for the next link tick.
        assert!(r.completions[1] >= free.completions[1]);
        assert!(r.completions[1] < free.completions[1] + bt);
        // The stalled one streams at the pace of the stop-wire
        // reference, from the tick after its route is established.
        let established = Time::ZERO + bt + CrossbarConfig::powermanna().route_time;
        let start_tick = established.as_ps().div_ceil(bt.as_ps());
        let reference =
            stopwire::stream_per_flit(StopWireConfig::powermanna(), start_tick, 1025, &stall);
        assert!(reference.finish_tick >= 100_000);
        assert_eq!(
            r.completions[0],
            Time::from_ps((reference.finish_tick + 1) * bt.as_ps())
        );
    }

    #[test]
    #[should_panic(expected = "single crossbar")]
    fn backpressure_needs_a_single_crossbar() {
        let (_, mut s) = sim128();
        let bp = Backpressure {
            stop: StopWireConfig::powermanna(),
            windows: Vec::new(),
        };
        s.run_with_backpressure(&[worm(0, 127, 64, Time::ZERO)], &bp);
    }

    // --- resilient runs ---

    fn worm(src: usize, dst: usize, payload: u32, inject_at: Time) -> Worm {
        Worm {
            src,
            dst,
            plane: 0,
            payload,
            inject_at,
        }
    }

    fn assert_conserved(r: &ResilientResult) {
        assert_eq!(r.stats.offered, r.stats.delivered + r.stats.dropped);
        assert_eq!(
            r.stats.offered_bytes,
            r.stats.delivered_bytes + r.stats.dropped_bytes
        );
        let delivered_bytes: u64 = r
            .outcomes
            .iter()
            .filter_map(|o| o.delivered().map(|d| d.bytes))
            .sum();
        assert_eq!(delivered_bytes, r.stats.delivered_bytes);
    }

    #[test]
    fn severed_worm_fails_over_to_the_other_plane() {
        let (_, mut s) = sim128();
        let worms = vec![worm(0, 127, 4096, Time::ZERO)];
        // Kill the source's plane-0 cable while the payload streams
        // (the worm establishes in under a microsecond and streams for
        // ~68 us).
        let plan = FaultPlan::clean(7).kill_link(
            Time::ZERO + Duration::from_us(30),
            LinkRef::NodeLink { node: 0, plane: 0 },
        );
        let cfg = ResilienceConfig::default();
        let r = s.run_resilient(&worms, &plan, &cfg).expect("plan valid");
        let d = r.outcomes[0].delivered().expect("retransmission delivers");
        assert_eq!(d.attempts, 2);
        assert_eq!(d.severed, 1);
        assert!(d.failed_over, "plane 0 is quarantined at the source");
        assert_eq!(d.plane, 1);
        assert_eq!(r.stats.severed, 1);
        assert_eq!(r.stats.link_downs, 1);
        assert_eq!(r.stats.quarantines, 1);
        // All three hops were downstream of the cut: orphaned, then
        // reclaimed by the watchdog's port timeout.
        assert_eq!(r.stats.orphan_reclaims, 3);
        assert_conserved(&r);
    }

    #[test]
    fn failed_open_is_learned_and_avoided() {
        let (t, mut s) = sim128();
        // Kill the first candidate's uplink-to-middle cable before any
        // worm starts.
        let uplink = t.route(0, 127, 0).expect("route").hops[0];
        let (xbar, port) = (uplink.xbar, uplink.out_port);
        let plan = FaultPlan::clean(7).kill_link(Time::ZERO, LinkRef::XbarPort { xbar, port });
        let worms = vec![
            worm(0, 127, 1024, Time::ZERO + Duration::from_us(1)),
            worm(0, 127, 1024, Time::ZERO + Duration::from_us(2)),
        ];
        let cfg = ResilienceConfig {
            policy: RoutePolicy::Oblivious,
            ..ResilienceConfig::default()
        };
        let r = s.run_resilient(&worms, &plan, &cfg).expect("plan valid");
        // The first worm probes the dead uplink (one failed open), and
        // its quarantine spares the second worm the probe entirely.
        let a = r.outcomes[0].delivered().expect("worm 0 delivers");
        let b = r.outcomes[1].delivered().expect("worm 1 delivers");
        assert_eq!(a.attempts, 2);
        assert!(a.rerouted && !a.failed_over);
        assert_eq!(b.attempts, 1);
        assert!(b.rerouted, "worm 1 reroutes on learned knowledge alone");
        assert_eq!(r.stats.failed_opens, 1);
        assert_eq!(r.stats.quarantines, 1);
        assert_conserved(&r);
    }

    #[test]
    fn oracle_failover_routes_around_without_probing() {
        let (t, mut s) = sim128();
        let uplink = t.route(0, 127, 0).expect("route").hops[0];
        let (xbar, port) = (uplink.xbar, uplink.out_port);
        let plan = FaultPlan::clean(7).kill_link(Time::ZERO, LinkRef::XbarPort { xbar, port });
        let worms = vec![worm(0, 127, 1024, Time::ZERO + Duration::from_us(1))];
        let cfg = ResilienceConfig {
            policy: RoutePolicy::Oblivious,
            failover: FailoverMode::Oracle,
            ..ResilienceConfig::default()
        };
        let r = s.run_resilient(&worms, &plan, &cfg).expect("plan valid");
        let d = r.outcomes[0].delivered().expect("oracle delivers");
        assert_eq!(d.attempts, 1, "the oracle never probes the dead link");
        assert!(d.rerouted);
        assert_eq!(r.stats.failed_opens, 0);
        assert_eq!(r.stats.quarantines, 0);
        assert_conserved(&r);
    }

    #[test]
    fn scheduled_repair_reinstates_the_link() {
        let (_, mut s) = sim128();
        // Dead from 0 to 500 us; the second worm (injected at 1 ms,
        // after the quarantine window lapses) re-probes and succeeds.
        let plan = FaultPlan::clean(7)
            .kill_link(Time::ZERO, LinkRef::NodeLink { node: 0, plane: 0 })
            .repair_link(
                Time::ZERO + Duration::from_us(500),
                LinkRef::NodeLink { node: 0, plane: 0 },
            );
        let worms = vec![
            worm(0, 127, 1024, Time::ZERO + Duration::from_us(1)),
            worm(0, 127, 1024, Time::ZERO + Duration::from_ms(1)),
        ];
        let cfg = ResilienceConfig::default();
        let r = s.run_resilient(&worms, &plan, &cfg).expect("plan valid");
        let a = r.outcomes[0].delivered().expect("worm 0 fails over");
        assert!(a.failed_over, "link dead: worm 0 must use plane 1");
        let b = r.outcomes[1].delivered().expect("worm 1 delivers");
        assert!(
            !b.failed_over,
            "after repair + lapse, the re-probe succeeds on plane 0"
        );
        assert_eq!(r.stats.repairs, 1);
        assert_eq!(r.stats.reinstatements, 1, "the re-probe clears the entry");
        assert_conserved(&r);
    }

    #[test]
    fn watchdog_recovers_a_stalled_worm() {
        let (_, mut s) = sim128();
        // Worm 0 streams ~2 ms holding node 8's downlink; worm 1 wants
        // the same port and trips the (deliberately tight) stall
        // threshold repeatedly until the holder closes.
        let worms = vec![worm(0, 8, 120_000, Time::ZERO), worm(1, 8, 64, Time::ZERO)];
        let cfg = ResilienceConfig {
            watchdog: WatchdogConfig {
                scan_period: Duration::from_us(100),
                stall_threshold: Duration::from_us(300),
            },
            ..ResilienceConfig::default()
        };
        let r = s
            .run_resilient(&worms, &FaultPlan::clean(7), &cfg)
            .expect("clean plan");
        let b = r.outcomes[1]
            .delivered()
            .expect("kill-and-retry loses nothing");
        assert!(r.stats.recoveries >= 1, "the watchdog must fire");
        assert!(b.attempts > 1, "each kill spends an attempt");
        assert_eq!(r.stats.delivered, 2);
        assert_eq!(r.stats.orphan_reclaims, 0, "no orphans without faults");
        assert_conserved(&r);
    }

    #[test]
    fn transient_corruption_is_retransmitted() {
        let (_, mut s) = sim128();
        let plan = FaultPlan::clean(11)
            .with_transient_rate(0.5)
            .expect("rate ok");
        let worms: Vec<Worm> = (0..8).map(|i| worm(i, 64 + i, 1024, Time::ZERO)).collect();
        let cfg = ResilienceConfig::default();
        let r = s.run_resilient(&worms, &plan, &cfg).expect("plan valid");
        assert!(r.stats.corrupted > 0, "a 50% rate must corrupt something");
        assert_eq!(r.stats.delivered, 8, "CRC rejections retransmit, not drop");
        assert_eq!(
            r.stats.transmissions,
            r.stats.delivered + r.stats.corrupted,
            "every transmission either delivers or was CRC-rejected"
        );
        assert_conserved(&r);
    }

    /// `n` Poisson arrivals of `payload`-byte worms over the 128-node
    /// system at `load` times its injection capacity, uniform
    /// destinations.
    fn poisson_worms(n: usize, load: f64, payload: u32, seed: u64) -> Vec<Worm> {
        let byte_time = crate::wire::WireConfig::synchronous().byte_time;
        let mean_gap_ps = byte_time.as_ps() as f64 * f64::from(payload) / (128.0 * load);
        let mut rng = pm_sim::rng::SimRng::seed_from(seed);
        let mut at = 0.0f64;
        (0..n)
            .map(|_| {
                at += -(1.0 - rng.gen_f64()).ln() * mean_gap_ps;
                let src = rng.gen_range(0, 128) as usize;
                let dst = (src + 1 + rng.gen_range(0, 127) as usize) % 128;
                worm(src, dst, payload, Time::from_ps(at as u64))
            })
            .collect()
    }

    #[test]
    fn clean_resilient_run_matches_the_plain_simulation() {
        let t = Topology::system256();
        let mut s = RouteSim::new(&t);
        let uncontended = permutation_worms(16, 8, 1024, 0, Time::ZERO);
        let contended = poisson_worms(3000, 1.6, 2048, 21);
        for (name, worms) in [("permutation", uncontended), ("poisson", contended)] {
            for policy in [RoutePolicy::Adaptive, RoutePolicy::Oblivious] {
                let plain = s.run(&worms, policy);
                let cfg = ResilienceConfig {
                    policy,
                    ..ResilienceConfig::default()
                };
                let r = s
                    .run_resilient(&worms, &FaultPlan::clean(7), &cfg)
                    .expect("clean plan");
                // Same physics, same route decisions: the fault machinery
                // must be invisible on a clean run…
                for (w, o) in r.outcomes.iter().enumerate() {
                    let d = o.delivered().expect("clean runs deliver everything");
                    assert_eq!(d.finished, plain.completions[w], "{name}: worm {w}");
                    assert_eq!(d.attempts, 1);
                }
                assert_eq!(r.detours, plain.detours, "{name}");
                assert_eq!(r.conflicts, plain.conflicts, "{name}");
                // `run` still counts a closing worm while its close byte
                // wakes the waiters on its route; `run_resilient` stops
                // counting it first. A waiter that completes its route
                // during that close can therefore set `run`'s peak one
                // higher.
                let extra = plain.peak_inflight - r.peak_inflight;
                assert!(
                    extra <= 1,
                    "{name}: peaks {} vs {}",
                    plain.peak_inflight,
                    r.peak_inflight
                );
                // …and the watchdog stays silent.
                assert!(r.stats.scans > 0, "scans ran");
                assert_eq!(r.stats.recoveries, 0);
                assert_eq!(r.stats.orphan_reclaims, 0);
                assert_eq!(r.stats.failed_opens, 0);
                assert_conserved(&r);
            }
        }
    }

    #[test]
    fn reused_resilient_runs_match_fresh() {
        let t = Topology::system256();
        let mut reused = RouteSim::new(&t);
        let plan = FaultPlan::clean(13)
            .with_transient_rate(0.02)
            .expect("rate ok")
            .random_link_downs(&t, 6, Duration::from_us(200))
            .repair_all_after(Duration::from_us(300));
        let worms = uniform_worms(99, 512, 400_000);
        for failover in [FailoverMode::Oracle, FailoverMode::Detected] {
            let cfg = ResilienceConfig {
                failover,
                ..ResilienceConfig::default()
            };
            let fresh = RouteSim::new(&t)
                .run_resilient(&worms, &plan, &cfg)
                .expect("plan valid");
            let again = reused
                .run_resilient(&worms, &plan, &cfg)
                .expect("plan valid");
            assert_eq!(fresh.outcomes, again.outcomes);
            assert_eq!(fresh.stats, again.stats);
            assert_conserved(&fresh);
        }
    }

    #[test]
    fn reused_simulator_forgets_unrepaired_deaths() {
        let t = Topology::system256();
        let mut reused = RouteSim::new(&t);
        let worms = uniform_worms(41, 512, 400_000);
        let node0 = LinkRef::NodeLink { node: 0, plane: 0 };
        let node1 = LinkRef::NodeLink { node: 1, plane: 0 };
        // Deaths never repaired, one of them scheduled twice, and a
        // repair of a link that never died.
        let unrepaired = FaultPlan::clean(13)
            .random_link_downs(&t, 6, Duration::from_us(200))
            .kill_link(Time::ZERO + Duration::from_us(50), node0)
            .kill_link(Time::ZERO + Duration::from_us(80), node0)
            .repair_link(Time::ZERO + Duration::from_us(100), node1);
        let mut killed: Vec<LinkKey> = unrepaired
            .schedule()
            .iter()
            .map(|d| d.link.key(&t).expect("valid link"))
            .collect();
        killed.sort_unstable();
        killed.dedup();
        assert!(!killed.contains(&node1.key(&t).expect("valid link")));
        let other = FaultPlan::clean(17)
            .with_transient_rate(0.02)
            .expect("rate ok")
            .random_link_downs(&t, 4, Duration::from_us(300))
            .repair_all_after(Duration::from_us(250));
        for failover in [FailoverMode::Oracle, FailoverMode::Detected] {
            let cfg = ResilienceConfig {
                failover,
                ..ResilienceConfig::default()
            };
            let fresh = RouteSim::new(&t)
                .run_resilient(&worms, &unrepaired, &cfg)
                .expect("plan valid");
            let again = reused
                .run_resilient(&worms, &unrepaired, &cfg)
                .expect("plan valid");
            assert_eq!(fresh.outcomes, again.outcomes);
            assert_eq!(fresh.stats, again.stats);
            // Each link dies once, however often the plan kills it, and
            // repairing a live link repairs nothing.
            assert_eq!(again.stats.link_downs, killed.len() as u64);
            assert_eq!(again.stats.repairs, 0);
            // The next runs start with every link up again.
            let fresh = RouteSim::new(&t).run(&worms, cfg.policy);
            let again = reused.run(&worms, cfg.policy);
            assert_eq!(fresh.completions, again.completions);
            assert_eq!(
                (fresh.peak_inflight, fresh.conflicts, fresh.detours),
                (again.peak_inflight, again.conflicts, again.detours)
            );
            let fresh = RouteSim::new(&t)
                .run_resilient(&worms, &other, &cfg)
                .expect("plan valid");
            let again = reused
                .run_resilient(&worms, &other, &cfg)
                .expect("plan valid");
            assert_eq!(fresh.outcomes, again.outcomes);
            assert_eq!(fresh.stats, again.stats);
            assert_conserved(&again);
        }
    }

    #[test]
    fn resilient_run_rejects_unknown_links() {
        let (_, mut s) = sim128();
        let bad = LinkRef::NodeLink {
            node: 4096,
            plane: 0,
        };
        let plan = FaultPlan::clean(1).kill_link(Time::ZERO, bad);
        let err = s
            .run_resilient(
                &[worm(0, 1, 64, Time::ZERO)],
                &plan,
                &ResilienceConfig::default(),
            )
            .expect_err("out-of-range ref");
        assert_eq!(err, FaultPlanError::UnknownLink(bad));
    }
}
