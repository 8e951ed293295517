//! The heavy-traffic scenario engine: offered-load sweeps over the
//! topology-level fabrics (experiment X12).
//!
//! Everything up to X11 drives a handful of point-to-point transfers;
//! this module stresses the permutation networks the way the DNP/
//! APEnet and BlueGene/L congestion studies do — open-loop synthetic
//! load swept past saturation until goodput collapses. A scenario takes
//! a [`pm_workloads::traffic`] stream (thousands of tenants, millions
//! of messages) and drives every message through the real [`Network`]
//! connection model, on the cluster8 crossbar pair or on a mesh of
//! five-port routers ([`Network::mesh`]): route setup claims crossbar
//! or router outputs, and contention is whatever the fabric says it
//! is. Payload goes through [`Connection::transfer_backpressured`], but
//! with no destination stall windows, so the stop wire never asserts;
//! all X12 takes from that path is the alignment of each transfer's
//! start to the next link tick.
//!
//! # Offered load and the x-axis
//!
//! Loads are fractions of the topology's *aggregate injection
//! capacity* — every node pushing one byte per link tick into each
//! plane (`cluster8`: 8 nodes x 2 planes x 60 MB/s = 960 MB/s; `4x4
//! mesh`: 16 nodes x 1 plane x 60 MB/s = 960 MB/s) — so both fabrics
//! share an x-axis and the knee lands near 1.0 for a fabric that
//! schedules perfectly.
//!
//! # Latency measurement points and the drop rule
//!
//! A message's latency clock starts at its *arrival* (the generator's
//! timestamp, before any queueing) and stops when the last payload
//! byte reaches the destination NI. Three fates exist:
//!
//! * **delivered** — completed within its sojourn budget and inside
//!   the observation window (the last arrival instant); its latency
//!   lands in the p99/p999 histogram. Goodput counts only these: it is
//!   *on-time* goodput.
//! * **dropped** — three causes. An ingress cull (the source NI's
//!   lane could not even start the message within [`deadline`] — a
//!   free TTL drop, no fabric cost); a transient-corrupted message
//!   whose every attempt failed; or a *late* delivery — a worm, once
//!   committed, cannot be retracted, so a message that misses its
//!   budget is still served to completion and burns full fabric
//!   capacity while counting as dropped. Late service is the collapse
//!   mechanism: past saturation, queues pin near the deadline and the
//!   fabric does ever more work that no longer counts.
//! * **in-flight** — on time so far, but service completed after the
//!   window closed; accounted separately so conservation is exact:
//!   `offered == delivered + dropped + in-flight`, globally and per
//!   tenant.
//!
//! [`deadline`]: ScenarioConfig::deadline
//!
//! # Faults under load
//!
//! A [`FaultPlan`] rides along: the driver applies its scheduled link
//! deaths as simulated time passes, and the plan's transient injector
//! corrupts attempts, forcing retransmissions that burn capacity. On
//! `cluster8` every link is a node's link interface, so a death leaves
//! one rule, the duplicated network's (§3): a message whose preferred
//! plane has a dead interface at its source or destination opens on the
//! other plane, and it is dropped if that plane is dead at an endpoint
//! too. X8 measured faults at trivial load; X12's fault series measures
//! them while the fabric is saturated.
//!
//! # Examples
//!
//! ```
//! use pm_core::traffic::{quick_scenario, run_scenario, ScenarioTopology};
//!
//! let cfg = quick_scenario(ScenarioTopology::Cluster8Xbar, 0.5, 2_000, 7);
//! let report = run_scenario(&cfg, None);
//! assert!(report.conserves_bytes());
//! assert!(report.goodput_mbytes_per_s() > 0.0);
//! ```

use pm_net::fault::{FaultPlan, LinkDown, LinkRef, TransientInjector};
use pm_net::network::{Connection, Network, RouteBackpressure};
use pm_net::outcome::OutcomeHandles;
use pm_net::topology::{LinkKey, Topology};
use pm_net::wire::WireConfig;
use pm_sim::metrics::{MetricId, MetricRegistry};
use pm_sim::par::par_sweep;
use pm_sim::stats::{Figure, Histogram, Series};
use pm_sim::time::{Duration, Time};
use pm_workloads::traffic::{TrafficConfig, TrafficGen, TrafficPattern};

/// Which fabric carries the offered load.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScenarioTopology {
    /// The 8-node PowerMANNA cluster: two duplicated 16x16 crossbar
    /// planes.
    Cluster8Xbar,
    /// A 4x4 2D mesh from the same parts (one plane, XY routing).
    Mesh4x4,
    /// An 8x8 2D mesh: the mesh alternative scaled to 64 nodes, the
    /// fair design-study opponent for the 1024-node hierarchy of X13.
    Mesh8x8,
}

impl ScenarioTopology {
    /// Nodes in the machine.
    pub fn nodes(self) -> u32 {
        match self {
            ScenarioTopology::Cluster8Xbar => 8,
            ScenarioTopology::Mesh4x4 => 16,
            ScenarioTopology::Mesh8x8 => 64,
        }
    }

    /// Independent injection planes per node.
    pub fn planes(self) -> u32 {
        match self {
            ScenarioTopology::Cluster8Xbar => 2,
            ScenarioTopology::Mesh4x4 | ScenarioTopology::Mesh8x8 => 1,
        }
    }

    /// Aggregate injection capacity in bytes/s: every node pushing one
    /// byte per link tick into each plane. Offered load 1.0 means the
    /// sources collectively ask for exactly this.
    pub fn injection_capacity_bytes_per_s(self) -> f64 {
        let per_link = 1.0 / WireConfig::synchronous().byte_time.as_secs_f64();
        f64::from(self.nodes() * self.planes()) * per_link
    }

    /// The idle fabric this topology names.
    fn network(self) -> Network {
        match self {
            ScenarioTopology::Cluster8Xbar => Network::new(Topology::cluster8()),
            ScenarioTopology::Mesh4x4 => Network::mesh(4, 4),
            ScenarioTopology::Mesh8x8 => Network::mesh(8, 8),
        }
    }
}

/// One offered-load point: everything [`run_scenario`] needs.
#[derive(Clone, Debug)]
pub struct ScenarioConfig {
    /// The fabric under test.
    pub topology: ScenarioTopology,
    /// The arrival process.
    pub pattern: TrafficPattern,
    /// Tenants multiplexed onto the nodes.
    pub tenants: u32,
    /// Messages offered over the whole run.
    pub messages: u64,
    /// Payload bytes per message.
    pub payload: u64,
    /// Offered load as a fraction of
    /// [`ScenarioTopology::injection_capacity_bytes_per_s`].
    pub offered_load: f64,
    /// Sojourn budget from arrival: a message that cannot establish its
    /// route within this is dropped (see the module docs for the three
    /// fates).
    pub deadline: Duration,
    /// Seed for the traffic stream.
    pub seed: u64,
    /// Optional faults applied *under* the load: scheduled link deaths
    /// (crossbar only) and transient corruption.
    pub faults: Option<FaultPlan>,
}

/// A small clean Poisson scenario for tests and doctests.
pub fn quick_scenario(
    topology: ScenarioTopology,
    offered_load: f64,
    messages: u64,
    seed: u64,
) -> ScenarioConfig {
    ScenarioConfig {
        topology,
        pattern: TrafficPattern::Poisson,
        tenants: 256,
        messages,
        payload: 4096,
        offered_load,
        deadline: Duration::from_us_f64(2_000.0),
        seed,
        faults: None,
    }
}

/// Per-tenant byte accounting; the conservation invariant holds row by
/// row: `offered == delivered + dropped + inflight`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantTraffic {
    /// Bytes this tenant offered.
    pub offered_bytes: u64,
    /// Bytes delivered within the observation window.
    pub delivered_bytes: u64,
    /// Bytes dropped (queue, aborted setup, or corrupted out).
    pub dropped_bytes: u64,
    /// Bytes whose service completed after the window closed.
    pub inflight_bytes: u64,
}

/// What one scenario run did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrafficReport {
    /// End of the observation window: the last arrival instant.
    pub horizon: Time,
    /// Bytes offered (always `messages * payload`).
    pub offered_bytes: u64,
    /// Messages offered.
    pub offered_messages: u64,
    /// Bytes delivered within the window.
    pub delivered_bytes: u64,
    /// Messages delivered within the window.
    pub delivered_messages: u64,
    /// Bytes dropped.
    pub dropped_bytes: u64,
    /// Messages dropped.
    pub dropped_messages: u64,
    /// Bytes still in service when the window closed.
    pub inflight_bytes: u64,
    /// Messages still in service when the window closed.
    pub inflight_messages: u64,
    /// Messages served to completion but past their sojourn budget:
    /// full fabric capacity burned for bytes that count as dropped.
    pub late_messages: u64,
    /// Wire transmissions, retries included, over served messages.
    pub attempts: u64,
    /// Attempts lost to injected transient corruption.
    pub crc_failures: u64,
    /// Opens that abandoned the preferred plane.
    pub failovers: u64,
    /// Arrival-to-last-byte latency of delivered messages, in ns.
    pub latency_ns: Histogram,
    /// Per-tenant conservation rows, indexed by tenant id.
    pub per_tenant: Vec<TenantTraffic>,
}

impl TrafficReport {
    fn new(tenants: u32, horizon: Time) -> Self {
        TrafficReport {
            horizon,
            offered_bytes: 0,
            offered_messages: 0,
            delivered_bytes: 0,
            delivered_messages: 0,
            dropped_bytes: 0,
            dropped_messages: 0,
            inflight_bytes: 0,
            inflight_messages: 0,
            late_messages: 0,
            attempts: 0,
            crc_failures: 0,
            failovers: 0,
            latency_ns: Histogram::new("latency_ns"),
            per_tenant: vec![TenantTraffic::default(); tenants as usize],
        }
    }

    /// Delivered bytes over the observation window, in Mbyte/s.
    pub fn goodput_mbytes_per_s(&self) -> f64 {
        if self.horizon == Time::ZERO {
            return 0.0;
        }
        self.delivered_bytes as f64 / self.horizon.as_secs_f64() / 1e6
    }

    /// The 99th-percentile delivered latency in ns (0 when nothing was
    /// delivered).
    pub fn p99_latency_ns(&self) -> u64 {
        self.latency_ns.quantile(0.99)
    }

    /// The 99.9th-percentile delivered latency in ns.
    pub fn p999_latency_ns(&self) -> u64 {
        self.latency_ns.quantile(0.999)
    }

    /// The conservation invariant, globally and per tenant:
    /// `offered == delivered + dropped + inflight` and the tenant rows
    /// sum to the global row.
    pub fn conserves_bytes(&self) -> bool {
        let global = self.offered_bytes
            == self.delivered_bytes + self.dropped_bytes + self.inflight_bytes
            && self.offered_messages
                == self.delivered_messages + self.dropped_messages + self.inflight_messages;
        let rows = self
            .per_tenant
            .iter()
            .all(|t| t.offered_bytes == t.delivered_bytes + t.dropped_bytes + t.inflight_bytes);
        let sums = self.per_tenant.iter().map(|t| t.offered_bytes).sum::<u64>()
            == self.offered_bytes
            && self
                .per_tenant
                .iter()
                .map(|t| t.delivered_bytes)
                .sum::<u64>()
                == self.delivered_bytes
            && self.per_tenant.iter().map(|t| t.dropped_bytes).sum::<u64>() == self.dropped_bytes
            && self
                .per_tenant
                .iter()
                .map(|t| t.inflight_bytes)
                .sum::<u64>()
                == self.inflight_bytes;
        global && rows && sums
    }
}

/// Preallocated registry handles: the per-message hot path does dense
/// index updates only — no path formatting, no `BTreeMap` walks
/// (`tests/bench_guard.rs` bounds the cost).
struct RegHandles {
    offered_bytes: MetricId,
    offered_messages: MetricId,
    delivered_bytes: MetricId,
    delivered_messages: MetricId,
    dropped_bytes: MetricId,
    dropped_messages: MetricId,
    inflight_bytes: MetricId,
    inflight_messages: MetricId,
    late_messages: MetricId,
    latency_ns: MetricId,
    net: OutcomeHandles,
    /// Per-tenant `[offered, delivered, dropped, inflight]` byte
    /// counters.
    tenants: Vec<[MetricId; 4]>,
}

impl RegHandles {
    fn new(reg: &mut MetricRegistry, tenants: u32) -> Self {
        let tenants = (0..tenants)
            .map(|t| {
                [
                    reg.counter(&format!("traffic/tenant{t:04}/offered_bytes")),
                    reg.counter(&format!("traffic/tenant{t:04}/delivered_bytes")),
                    reg.counter(&format!("traffic/tenant{t:04}/dropped_bytes")),
                    reg.counter(&format!("traffic/tenant{t:04}/inflight_bytes")),
                ]
            })
            .collect();
        RegHandles {
            offered_bytes: reg.counter("traffic/offered_bytes"),
            offered_messages: reg.counter("traffic/offered_messages"),
            delivered_bytes: reg.counter("traffic/delivered_bytes"),
            delivered_messages: reg.counter("traffic/delivered_messages"),
            dropped_bytes: reg.counter("traffic/dropped_bytes"),
            dropped_messages: reg.counter("traffic/dropped_messages"),
            inflight_bytes: reg.counter("traffic/inflight_bytes"),
            inflight_messages: reg.counter("traffic/inflight_messages"),
            late_messages: reg.counter("traffic/late_messages"),
            latency_ns: reg.histogram("traffic/latency_ns"),
            net: OutcomeHandles::new(reg, "traffic/net"),
            tenants,
        }
    }
}

/// Opens a route at `t` on `plane`, or on the other plane when a node
/// interface of `src` or `dst` on `plane` is in `dead`, reporting
/// `(conn, failed_over)`. `None` means no path — the message is
/// dropped.
fn open_live(
    net: &mut Network,
    src: u32,
    dst: u32,
    plane: u32,
    dead: &[LinkKey],
    t: Time,
) -> Option<(Connection, bool)> {
    let live = |p: u32| {
        [src, dst].iter().all(|&n| {
            let key = net.topology().node_link_key(n as usize, p);
            key.is_some_and(|k| !dead.contains(&k))
        })
    };
    let used = [plane, 1 - plane].into_iter().find(|&p| live(p))?;
    net.open(src as usize, dst as usize, used, t)
        .ok()
        .map(|c| (c, used != plane))
}

/// Transmission attempts per message before the corrupted message is
/// given up on.
const MAX_ATTEMPTS: u32 = 3;

/// Drives one offered-load point through the fabric and returns the
/// accounting. With a registry, every message also updates the
/// preallocated `traffic/*` metric family (global counters, the
/// latency histogram, per-tenant rows and the `traffic/net` outcome
/// family), and the fabric dumps its own counters under
/// `traffic/fabric` at the end.
///
/// Deterministic: equal configs produce equal reports (and byte-equal
/// registry CSVs), regardless of host or parallel context.
///
/// # Panics
///
/// Panics if `offered_load` is not positive, or if a fault plan
/// schedules link deaths against a mesh. The mesh takes transient
/// faults only: the plane rule of the module docs knows node
/// interfaces, and a mesh path also runs over inter-router links.
pub fn run_scenario(cfg: &ScenarioConfig, mut reg: Option<&mut MetricRegistry>) -> TrafficReport {
    assert!(cfg.offered_load > 0.0, "offered load must be positive");
    let nodes = cfg.topology.nodes();
    let planes = cfg.topology.planes();
    let rate = cfg.offered_load * cfg.topology.injection_capacity_bytes_per_s();
    let tcfg = TrafficConfig {
        nodes,
        tenants: cfg.tenants,
        pattern: cfg.pattern,
        offered_bytes_per_s: rate,
        payload: cfg.payload,
        messages: cfg.messages,
        seed: cfg.seed,
    };

    // Pass 1: the observation window ends at the last arrival. The
    // generator is a few dozen bytes of state, so re-running it is far
    // cheaper than buffering millions of messages.
    let horizon = TrafficGen::new(tcfg.clone())
        .last()
        .map(|m| m.at)
        .unwrap_or(Time::ZERO);

    let mut net = cfg.topology.network();
    let mut injector = cfg.faults.as_ref().map(TransientInjector::new);
    let schedule: Vec<LinkDown> = cfg
        .faults
        .as_ref()
        .map(|p| p.schedule().to_vec())
        .unwrap_or_default();
    assert!(
        schedule.is_empty() || cfg.topology == ScenarioTopology::Cluster8Xbar,
        "scheduled link deaths are crossbar-only; the mesh takes transient faults"
    );
    let mut next_down = 0;
    // Keys of the links the plan has killed so far.
    let mut dead: Vec<LinkKey> = Vec::new();

    let handles = reg.as_deref_mut().map(|r| RegHandles::new(r, cfg.tenants));
    let bp = RouteBackpressure::powermanna(Vec::new());
    // One cursor per (node, plane) source NI: when its previous worm's
    // tail left the source link.
    let mut src_free = vec![Time::ZERO; (nodes * planes) as usize];
    let mut report = TrafficReport::new(cfg.tenants, horizon);

    for m in TrafficGen::new(tcfg) {
        while next_down < schedule.len() && schedule[next_down].at <= m.at {
            dead.extend(schedule[next_down].link.key(net.topology()));
            next_down += 1;
        }

        let tenant = m.tenant as usize;
        report.offered_bytes += m.bytes;
        report.offered_messages += 1;
        report.per_tenant[tenant].offered_bytes += m.bytes;
        if let (Some(r), Some(h)) = (reg.as_deref_mut(), handles.as_ref()) {
            r.add(h.offered_bytes, m.bytes);
            r.incr(h.offered_messages);
            r.add(h.tenants[tenant][0], m.bytes);
        }

        let drop_message =
            |report: &mut TrafficReport, reg: &mut Option<&mut MetricRegistry>, late: bool| {
                report.dropped_bytes += m.bytes;
                report.dropped_messages += 1;
                report.late_messages += u64::from(late);
                report.per_tenant[tenant].dropped_bytes += m.bytes;
                if let (Some(r), Some(h)) = (reg.as_deref_mut(), handles.as_ref()) {
                    r.add(h.dropped_bytes, m.bytes);
                    r.incr(h.dropped_messages);
                    r.add(h.tenants[tenant][2], m.bytes);
                    if late {
                        r.incr(h.late_messages);
                    }
                }
            };

        let deadline_at = m.at + cfg.deadline;
        let plane = m.tenant % planes;
        let lane = (m.src * planes + plane) as usize;

        // Ingress cull: the NI drops messages its lane could not even
        // start within the budget — a time-to-live check at the queue
        // head, free of any fabric cost.
        if src_free[lane] > deadline_at {
            drop_message(&mut report, &mut reg, false);
            continue;
        }
        let start = m.at.max(src_free[lane]);
        let Some((mut conn, failed_over)) = open_live(&mut net, m.src, m.dst, plane, &dead, start)
        else {
            drop_message(&mut report, &mut reg, false);
            continue;
        };

        let mut cursor = conn.ready_at();
        let mut attempts = 0u32;
        let (mut outcome, intact) = loop {
            attempts += 1;
            let mut o = conn.transfer_backpressured(cursor, m.bytes, &bp);
            cursor = o.finished;
            let corrupted = injector
                .as_mut()
                .is_some_and(|inj| inj.draw(m.bytes as usize).is_some());
            if !corrupted {
                o.attempts = attempts;
                o.crc_failures = attempts - 1;
                break (o, true);
            }
            if attempts == MAX_ATTEMPTS {
                o.attempts = attempts;
                o.crc_failures = attempts;
                break (o, false);
            }
        };
        outcome.failed_over = failed_over;
        conn.close(&mut net, outcome.finished);
        src_free[lane] = outcome.source_released.max(start);

        report.attempts += u64::from(outcome.attempts);
        report.crc_failures += u64::from(outcome.crc_failures);
        report.failovers += u64::from(failed_over);
        if let (Some(r), Some(h)) = (reg.as_deref_mut(), handles.as_ref()) {
            outcome.publish_to(r, &h.net);
        }

        // A worm can be corrupted AND late; it is dropped exactly once,
        // with the late flag telling the truth about its timing either
        // way. (Before this, a corrupted-and-late worm skipped the late
        // ledger entirely; and had the two branches each dropped, its
        // bytes would have been double-counted — the property test
        // `corrupted_and_late_worms_drop_exactly_once` forces the
        // overlap.)
        let late = outcome.finished > deadline_at;
        if !intact {
            drop_message(&mut report, &mut reg, late);
            continue;
        }
        if late {
            // Served to completion — a committed worm cannot be
            // retracted — but past its sojourn budget: full fabric
            // capacity burned for a message that no longer counts.
            // This waste is what collapses goodput past the knee.
            drop_message(&mut report, &mut reg, true);
            continue;
        }
        if outcome.finished <= horizon {
            let latency_ns = outcome.finished.since(m.at).as_ps() / 1_000;
            report.delivered_bytes += m.bytes;
            report.delivered_messages += 1;
            report.per_tenant[tenant].delivered_bytes += m.bytes;
            report.latency_ns.record(latency_ns);
            if let (Some(r), Some(h)) = (reg.as_deref_mut(), handles.as_ref()) {
                r.add(h.delivered_bytes, m.bytes);
                r.incr(h.delivered_messages);
                r.add(h.tenants[tenant][1], m.bytes);
                r.record(h.latency_ns, latency_ns);
            }
        } else {
            report.inflight_bytes += m.bytes;
            report.inflight_messages += 1;
            report.per_tenant[tenant].inflight_bytes += m.bytes;
            if let (Some(r), Some(h)) = (reg.as_deref_mut(), handles.as_ref()) {
                r.add(h.inflight_bytes, m.bytes);
                r.incr(h.inflight_messages);
                r.add(h.tenants[tenant][3], m.bytes);
            }
        }
    }

    if let Some(r) = reg {
        net.publish_metrics(r, "traffic/fabric");
    }
    report
}

/// The X12 offered-load grid (fractions of injection capacity).
pub fn x12_loads(quick: bool) -> Vec<f64> {
    if quick {
        vec![0.2, 0.3, 0.6, 1.2, 2.4]
    } else {
        // Both fabrics peak near 0.3 of injection capacity (route setup
        // and destination-port contention eat the rest); the grid
        // stretches far past that so the late-service collapse is a
        // long visible tail, and stops at 4.5 where on-time goodput has
        // flattened to the startup transient (beyond that the points
        // are pure transient noise at ~0.1% of peak).
        vec![0.1, 0.2, 0.3, 0.4, 0.6, 0.8, 1.0, 1.4, 2.0, 3.0, 4.5]
    }
}

/// The three X12 series, in figure order.
const X12_SERIES: [&str; 3] = [
    "cluster8 crossbar (Poisson)",
    "4x4 mesh (Poisson)",
    "cluster8 crossbar + faults under load",
];

/// The scenario behind one X12 point. `series` picks the X12 series in
/// figure order (0: cluster8 crossbar, 1: 4x4 mesh, 2: cluster8
/// crossbar with faults under load); `load_idx` picks the seed so every
/// load has its own deterministic stream. The faults series replays the
/// clean crossbar series' stream at each load, so the two curves are a
/// paired comparison: the faults are the only difference.
pub fn x12_scenario(series: usize, load: f64, load_idx: usize, quick: bool) -> ScenarioConfig {
    let (base_messages, tenants): (u32, u32) = if quick {
        (8_000, 1024)
    } else {
        (150_000, 4096)
    };
    // Scale the stream with overload so the wall-clock window stays
    // roughly constant past saturation. With a fixed message count the
    // window shrinks as 1/load while on-time deliveries come almost
    // entirely from the startup transient, and measured goodput would
    // *rise* again deep past the knee — a finite-run artifact, not a
    // property of the fabric.
    let messages = (f64::from(base_messages) * load.max(1.0)).round() as u64;
    let payload = 4096u64;
    let topology = if series == 1 {
        ScenarioTopology::Mesh4x4
    } else {
        ScenarioTopology::Cluster8Xbar
    };
    // The faults series draws the clean crossbar series' arrivals.
    let stream = if series == 2 { 0 } else { series as u64 };
    let faults = (series == 2).then(|| {
        let rate = load * topology.injection_capacity_bytes_per_s();
        // Kill a node link about a third of the way through the
        // expected window, so most of the run sees the degraded fabric.
        let horizon_ps = (messages * payload) as f64 / rate * 1e12;
        FaultPlan::clean(0xFA17_0000 + load_idx as u64)
            .with_transient_rate(0.05)
            .expect("rate in range")
            .kill_link(
                Time::from_ps((horizon_ps / 3.0) as u64),
                LinkRef::NodeLink { node: 0, plane: 0 },
            )
    });
    ScenarioConfig {
        topology,
        pattern: TrafficPattern::Poisson,
        tenants,
        messages,
        payload,
        offered_load: load,
        deadline: Duration::from_us_f64(2_000.0),
        seed: 0x712A_0000 + stream * 64 + load_idx as u64,
        faults,
    }
}

/// X12: offered load vs goodput for the crossbar hierarchy, the mesh,
/// and the crossbar with faults injected under load. The points fan
/// out over [`par_sweep`]; serial and parallel runs are byte-identical.
pub fn x12_figure(quick: bool) -> Figure {
    let loads = x12_loads(quick);
    let mut points = Vec::new();
    for series in 0..X12_SERIES.len() {
        for i in 0..loads.len() {
            points.push((series, i));
        }
    }
    let loads_ref = &loads;
    let goodput = par_sweep(points, move |(series, i)| {
        let cfg = x12_scenario(series, loads_ref[i], i, quick);
        run_scenario(&cfg, None).goodput_mbytes_per_s()
    });

    let mut fig = Figure::new(
        "x12 (traffic collapse)",
        "offered load [fraction of injection capacity]",
        "goodput [Mbyte/s]",
    );
    for (k, name) in X12_SERIES.iter().enumerate() {
        let mut s = Series::new(*name);
        for (i, &load) in loads.iter().enumerate() {
            s.push(load, goodput[k * loads.len() + i]);
        }
        fig.add_series(s);
    }
    fig
}

/// Index of the collapse knee in an offered-load series: the point of
/// maximum goodput (first of equals).
pub fn collapse_knee(points: &[(f64, f64)]) -> usize {
    let mut best = 0;
    for (i, p) in points.iter().enumerate() {
        if p.1 > points[best].1 {
            best = i;
        }
    }
    best
}

/// Whether goodput is monotone non-increasing past the knee — the
/// shape a collapse curve must have (a tiny relative slack absorbs
/// float noise in the goodput division).
pub fn monotone_after_knee(points: &[(f64, f64)]) -> bool {
    let knee = collapse_knee(points);
    points[knee..]
        .windows(2)
        .all(|w| w[1].1 <= w[0].1 * (1.0 + 1e-9))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_is_deterministic_and_conserves() {
        let cfg = quick_scenario(ScenarioTopology::Cluster8Xbar, 1.2, 3_000, 11);
        let mut reg_a = MetricRegistry::new();
        let mut reg_b = MetricRegistry::new();
        let a = run_scenario(&cfg, Some(&mut reg_a));
        let b = run_scenario(&cfg, Some(&mut reg_b));
        assert_eq!(a, b, "same config must reproduce the same report");
        assert_eq!(reg_a.to_csv(), reg_b.to_csv());
        assert!(a.conserves_bytes());
        assert!(
            a.inflight_messages >= 1,
            "the last arrival cannot finish inside the window"
        );
    }

    #[test]
    fn mesh_scenario_conserves_and_delivers() {
        let cfg = quick_scenario(ScenarioTopology::Mesh4x4, 0.6, 3_000, 5);
        let r = run_scenario(&cfg, None);
        assert!(r.conserves_bytes());
        assert!(r.delivered_messages > 0);
        assert!(r.p99_latency_ns() >= r.latency_ns.quantile(0.5));
    }

    #[test]
    fn overload_collapses_goodput() {
        let below = run_scenario(
            &quick_scenario(ScenarioTopology::Cluster8Xbar, 0.6, 4_000, 3),
            None,
        );
        let above = run_scenario(
            &quick_scenario(ScenarioTopology::Cluster8Xbar, 3.0, 4_000, 3),
            None,
        );
        assert!(
            above.dropped_messages > below.dropped_messages,
            "past saturation the deadline must bite"
        );
        let capacity_mb = ScenarioTopology::Cluster8Xbar.injection_capacity_bytes_per_s() / 1e6;
        assert!(
            above.goodput_mbytes_per_s() < capacity_mb,
            "goodput cannot exceed what the fabric can inject"
        );
        assert!(
            above.delivered_bytes < above.offered_bytes,
            "3x overload cannot be fully served"
        );
    }

    #[test]
    fn faults_under_load_cost_goodput() {
        let mut cfg = quick_scenario(ScenarioTopology::Cluster8Xbar, 1.0, 4_000, 9);
        let clean = run_scenario(&cfg, None);
        cfg.faults = Some(
            FaultPlan::clean(77)
                .with_transient_rate(0.2)
                .expect("rate in range")
                .kill_link(Time::from_ps(1), LinkRef::NodeLink { node: 0, plane: 0 }),
        );
        let faulty = run_scenario(&cfg, None);
        assert!(faulty.crc_failures > 0, "transients must actually fire");
        assert!(faulty.failovers > 0, "node 0 must fail over off plane 0");
        assert!(
            faulty.goodput_mbytes_per_s() <= clean.goodput_mbytes_per_s(),
            "faults only ever cost goodput: {} vs clean {}",
            faulty.goodput_mbytes_per_s(),
            clean.goodput_mbytes_per_s()
        );
        assert!(faulty.conserves_bytes());
    }

    #[test]
    fn node_with_both_interfaces_dead_sends_and_receives_nothing() {
        // Node 0's plane-0 interface by name, its plane-1 interface by
        // crossbar port: plane 1's crossbar is crossbar 1, node 0 on
        // port 0.
        let mut cfg = quick_scenario(ScenarioTopology::Cluster8Xbar, 0.3, 3_000, 9);
        cfg.faults = Some(
            FaultPlan::clean(5)
                .kill_link(Time::ZERO, LinkRef::NodeLink { node: 0, plane: 0 })
                .kill_link(Time::ZERO, LinkRef::XbarPort { xbar: 1, port: 0 }),
        );
        let r = run_scenario(&cfg, None);
        assert!(r.conserves_bytes());
        assert_eq!(r.failovers, 0, "no plane is left to fail over to");
        for (t, row) in r.per_tenant.iter().enumerate() {
            if t % 8 == 0 {
                assert_eq!(row.delivered_bytes, 0, "tenant {t} is homed on node 0");
                assert_eq!(row.inflight_bytes, 0, "tenant {t} is homed on node 0");
            }
        }
        assert!(r.dropped_messages > 0);
        assert!(
            r.delivered_messages > 0,
            "the other seven nodes still deliver"
        );
    }

    #[test]
    fn the_stop_wire_never_asserts() {
        // `run_scenario` gives every transfer no destination stall
        // windows, so nothing ever gates the stream: X12 measures route
        // and port contention, not flow control.
        for series in 0..X12_SERIES.len() {
            let mut reg = MetricRegistry::new();
            let r = run_scenario(&x12_scenario(series, 2.4, 4, true), Some(&mut reg));
            assert!(r.attempts > 0, "series {series} moved nothing");
            for path in ["traffic/net/stalled_bytes", "traffic/net/stop_transitions"] {
                assert_eq!(reg.counter_value(path), Some(0), "series {series}: {path}");
            }
        }
    }

    #[test]
    fn knee_helpers_find_the_maximum() {
        let pts = [
            (0.2, 10.0),
            (0.6, 30.0),
            (1.0, 42.0),
            (1.6, 35.0),
            (2.4, 20.0),
        ];
        assert_eq!(collapse_knee(&pts), 2);
        assert!(monotone_after_knee(&pts));
        let bad = [
            (0.2, 10.0),
            (0.6, 30.0),
            (1.0, 42.0),
            (1.6, 35.0),
            (2.4, 39.0),
        ];
        assert!(!monotone_after_knee(&bad));
    }
}
