//! Registry/outcome reconciliation: the hierarchical metrics layer is
//! only trustworthy if its counters are *exactly* a recount of what the
//! per-transfer [`TransferOutcome`]s already said. These tests drive
//! seeded random schedules through the network, mesh and self-healing
//! loop, publish every outcome, and pin the registry totals to
//! independent sums — including the X8 goodput, which must come out
//! bit-identical to the plotted figure.
//!
//! [`TransferOutcome`]: powermanna::net::outcome::TransferOutcome

use powermanna::net::fault::{FaultPlan, LinkRef};
use powermanna::net::network::{Network, RouteBackpressure};
use powermanna::net::stopwire::random_windows;
use powermanna::net::topology::Topology;
use powermanna::net::wire::WireConfig;
use powermanna::sim::metrics::MetricRegistry;
use powermanna::sim::rng::SimRng;
use powermanna::sim::time::Time;

fn cases(tag: u64) -> SimRng {
    SimRng::seed_from(0x0B5E_7261_B111_7400 ^ tag)
}

/// Per-transfer stall accounting reconciles with the registry: across
/// seeded backpressured schedules on the crossbar network, the sum of
/// each outcome's `stalled_bytes()` equals the `net/stalled_bytes`
/// counter, and likewise for bytes, stop transitions and transfer
/// counts.
#[test]
fn network_stall_bytes_reconcile_with_outcomes() {
    let mut rng = cases(1);
    for _ in 0..6 {
        let mut net = Network::new(Topology::cluster8());
        let mut reg = MetricRegistry::new();
        let bt = WireConfig::synchronous().byte_time.as_ps();
        let (mut transfers, mut bytes, mut stalled, mut transitions) = (0u64, 0u64, 0u64, 0u64);
        let mut t = Time::ZERO;
        for _ in 0..rng.gen_range(2, 6) {
            let src = rng.gen_range(0, 4) as usize;
            let dst = 4 + rng.gen_range(0, 4) as usize;
            let plane = rng.gen_range(0, 2) as u32;
            let payload = 512 + rng.gen_range(0, 8192);
            let mut conn = net.open(src, dst, plane, t).expect("healthy cluster");
            let start = conn.ready_at();
            let t0 = start.as_ps().div_ceil(bt);
            let count = rng.gen_range(1, 12) as u32;
            let windows: Vec<(u64, u64)> = random_windows(&mut rng, 40_000, count, 4_000)
                .into_iter()
                .map(|(s, e)| (t0 + s, t0 + e))
                .collect();
            let bp = RouteBackpressure::powermanna(windows);
            let o = conn.transfer_backpressured(start, payload, &bp);
            conn.close(&mut net, o.finished);
            t = o.finished;
            transfers += 1;
            bytes += o.bytes;
            stalled += o.stalled_bytes();
            transitions += o.stop_transitions;
            o.publish(&mut reg, "net");
        }
        assert_eq!(reg.counter_value("net/transfers"), Some(transfers));
        assert_eq!(reg.counter_value("net/bytes"), Some(bytes));
        assert_eq!(reg.counter_value("net/stalled_bytes"), Some(stalled));
        assert_eq!(reg.counter_value("net/stop_transitions"), Some(transitions));
    }
}

/// The same reconciliation holds on the §3 mesh: the byte and stall
/// sums of the published outcomes match, and every hop of every
/// handed-out connection is one router route.
#[test]
fn mesh_outcomes_reconcile_with_registry() {
    let mut rng = cases(2);
    for _ in 0..6 {
        let mut mesh = Network::mesh(4, 4);
        let mut reg = MetricRegistry::new();
        let (mut bytes, mut stalled, mut transfers, mut hops) = (0u64, 0u64, 0u64, 0u64);
        let mut t = Time::ZERO;
        for _ in 0..rng.gen_range(3, 8) {
            let src = rng.gen_range(0, 8) as usize;
            let dst = rng.gen_range(8, 16) as usize;
            let mut conn = mesh.open(src, dst, 0, t).expect("every close is recorded");
            let payload = 256 + rng.gen_range(0, 4096);
            let o = conn.transfer(conn.ready_at(), payload);
            conn.close(&mut mesh, o.finished);
            t = o.finished;
            bytes += o.bytes;
            stalled += o.stalled_bytes();
            transfers += 1;
            hops += conn.route().crossbars() as u64;
            o.publish(&mut reg, "mesh");
        }
        mesh.publish_metrics(&mut reg, "mesh");
        assert_eq!(reg.counter_value("mesh/bytes"), Some(bytes));
        assert_eq!(reg.counter_value("mesh/stalled_bytes"), Some(stalled));
        assert_eq!(reg.counter_value("mesh/transfers"), Some(transfers));
        // Routers that routed nothing publish no rows.
        let routes: u64 = (0..16)
            .filter_map(|x| reg.counter_value(&format!("mesh/xbar{x}/routes")))
            .sum();
        assert_eq!(routes, hops);
    }
}

/// The X8 figure's goodput is *bit-identical* to the registry's: the
/// X8 scenario (two 4 KB streams, one per link interface of node 0,
/// plane 0 dying at 150 µs) publishes its ledger and outcomes, and
/// `comm/faults/delivered_bytes` over the run's makespan must reproduce
/// the plotted `f64` exactly — not merely closely.
#[test]
fn x8_registry_goodput_matches_fault_ledger_exactly() {
    use powermanna::machine::experiments::{find, Artifact};
    use powermanna::net::routesim::{ResilienceConfig, RouteSim, Worm};

    let Artifact::Figure(fig) =
        (find("faults").expect("registered").run)(true, &mut MetricRegistry::new())
    else {
        panic!("faults is a figure");
    };
    let degraded = fig.series()[2].points();
    let worms: Vec<Worm> = (0..16)
        .map(|i| Worm {
            src: 0,
            dst: 1,
            plane: i % 2,
            payload: 4096,
            inject_at: Time::ZERO,
        })
        .collect();
    let mut sim = RouteSim::new(&Topology::two_nodes());
    for &(rate, plotted) in degraded {
        let plan = FaultPlan::clean(0xFA17)
            .with_transient_rate(rate)
            .expect("rate in range")
            .kill_link(
                Time::from_ps(150_000_000),
                LinkRef::NodeLink { node: 0, plane: 0 },
            );
        let r = sim
            .run_resilient(&worms, &plan, &ResilienceConfig::default())
            .expect("plan valid");
        let mut reg = MetricRegistry::new();
        let mut outcome_bytes = 0u64;
        for d in r.outcomes.iter().filter_map(|o| o.delivered()) {
            outcome_bytes += d.bytes;
            d.publish(&mut reg, "comm");
        }
        r.stats.publish(&mut reg, "comm/faults");

        // Outcome-level and ledger-level byte counts agree...
        let delivered = reg
            .counter_value("comm/faults/delivered_bytes")
            .expect("ledger published");
        assert_eq!(reg.counter_value("comm/bytes"), Some(outcome_bytes));
        assert_eq!(outcome_bytes, delivered);
        // ...so the registry goodput is the plotted goodput, exactly.
        let registry_goodput = delivered as f64 / r.finished_at.as_secs_f64() / 1e6;
        assert_eq!(
            registry_goodput.to_bits(),
            plotted.to_bits(),
            "rate {rate}: registry {registry_goodput} vs figure {plotted}"
        );

        // Retry accounting reconciles too: attempts summed over outcomes
        // equal the ledger's transmissions (nothing was dropped).
        assert_eq!(reg.counter_value("comm/faults/dropped"), Some(0));
        assert_eq!(
            reg.counter_value("comm/attempts"),
            reg.counter_value("comm/faults/transmissions"),
        );
    }
}

/// The X12 scenario engine's conservation ledger reconciles bit-exact
/// with the registry: `offered == delivered + dropped + in-flight`
/// globally AND per tenant, with every term recounted from the
/// `traffic/*` counters rather than trusted from the report. Runs with
/// faults under load so the retry/corruption counters are exercised
/// too.
#[test]
fn traffic_conservation_reconciles_with_registry_per_tenant() {
    use powermanna::machine::traffic::{quick_scenario, run_scenario, ScenarioTopology};

    let mut cfg = quick_scenario(ScenarioTopology::Cluster8Xbar, 0.8, 12_000, 0xC0);
    cfg.tenants = 128;
    cfg.faults = Some(
        FaultPlan::clean(0xC0DE)
            .with_transient_rate(0.05)
            .expect("rate in range")
            .kill_link(
                Time::from_ps(1_000_000_000),
                LinkRef::NodeLink { node: 2, plane: 0 },
            ),
    );
    let mut reg = MetricRegistry::new();
    let report = run_scenario(&cfg, Some(&mut reg));

    // The report's own invariant first.
    assert!(report.conserves_bytes());
    // Overload with faults must exercise all three fates and the
    // retry machinery, or this test proves less than it claims.
    assert!(report.delivered_messages > 0);
    assert!(report.dropped_messages > 0);
    assert!(report.late_messages > 0);
    assert!(report.attempts > report.offered_messages - report.dropped_messages);
    assert!(report.crc_failures > 0);
    assert!(report.failovers > 0);

    // Global counters are a bit-exact recount of the report.
    let c = |path: &str| reg.counter_value(path).expect(path);
    assert_eq!(c("traffic/offered_bytes"), report.offered_bytes);
    assert_eq!(c("traffic/offered_messages"), report.offered_messages);
    assert_eq!(c("traffic/delivered_bytes"), report.delivered_bytes);
    assert_eq!(c("traffic/delivered_messages"), report.delivered_messages);
    assert_eq!(c("traffic/dropped_bytes"), report.dropped_bytes);
    assert_eq!(c("traffic/dropped_messages"), report.dropped_messages);
    assert_eq!(c("traffic/inflight_bytes"), report.inflight_bytes);
    assert_eq!(c("traffic/inflight_messages"), report.inflight_messages);
    assert_eq!(c("traffic/late_messages"), report.late_messages);
    assert_eq!(c("traffic/net/attempts"), report.attempts);
    assert_eq!(c("traffic/net/crc_failures"), report.crc_failures);
    assert_eq!(c("traffic/net/failovers"), report.failovers);
    // Nothing detours: X12 only ever changes planes.
    assert_eq!(c("traffic/net/reroutes"), 0);
    // Conservation holds over the registry's own numbers.
    assert_eq!(
        c("traffic/offered_bytes"),
        c("traffic/delivered_bytes") + c("traffic/dropped_bytes") + c("traffic/inflight_bytes")
    );

    // Per-tenant rows: registry vs report, and each row conserves.
    let (mut offered, mut delivered, mut dropped, mut inflight) = (0u64, 0u64, 0u64, 0u64);
    for (t, row) in report.per_tenant.iter().enumerate() {
        let o = c(&format!("traffic/tenant{t:04}/offered_bytes"));
        let d = c(&format!("traffic/tenant{t:04}/delivered_bytes"));
        let x = c(&format!("traffic/tenant{t:04}/dropped_bytes"));
        let f = c(&format!("traffic/tenant{t:04}/inflight_bytes"));
        assert_eq!(o, row.offered_bytes, "tenant {t} offered");
        assert_eq!(d, row.delivered_bytes, "tenant {t} delivered");
        assert_eq!(x, row.dropped_bytes, "tenant {t} dropped");
        assert_eq!(f, row.inflight_bytes, "tenant {t} inflight");
        assert_eq!(o, d + x + f, "tenant {t} conservation");
        offered += o;
        delivered += d;
        dropped += x;
        inflight += f;
    }
    // Tenant columns sum to the global counters — nothing counted
    // twice, nothing uncounted.
    assert_eq!(offered, c("traffic/offered_bytes"));
    assert_eq!(delivered, c("traffic/delivered_bytes"));
    assert_eq!(dropped, c("traffic/dropped_bytes"));
    assert_eq!(inflight, c("traffic/inflight_bytes"));

    // The latency histogram holds exactly the delivered messages.
    let lat = reg
        .histogram_stats("traffic/latency_ns")
        .expect("histogram");
    assert_eq!(lat.total(), report.delivered_messages);
    assert_eq!(lat.total(), report.latency_ns.total());
    assert_eq!(lat.sum(), report.latency_ns.sum());
    assert_eq!(lat.quantile(0.99), report.p99_latency_ns());
    assert_eq!(lat.quantile(0.999), report.p999_latency_ns());
}

/// A resilient run's published ledger is a bit-exact recount of its
/// per-worm outcomes. Two scenarios:
///
/// * transients only — nothing is dropped, so every attempt and CRC
///   rejection lives in a [`WormOutcome::Delivered`] and the registry
///   totals must equal independent sums over the outcomes;
/// * deaths plus repairs — conservation (`offered == delivered +
///   dropped`, and in bytes) holds over the registry's own numbers,
///   and the detection/recovery trees are populated.
///
/// [`WormOutcome::Delivered`]: powermanna::net::routesim::WormOutcome
#[test]
fn resilient_ledger_reconciles_with_outcomes() {
    use powermanna::net::routesim::{permutation_worms, ResilienceConfig, RouteSim};
    use powermanna::sim::time::Duration;

    let t = Topology::system256();
    let mut sim = RouteSim::new(&t);
    let worms = permutation_worms(16, 8, 2048, 0, Time::ZERO);
    let cfg = ResilienceConfig::default();

    // Scenario 1: transients only. No worm is ever dropped, so the
    // outcome list carries every attempt and every CRC rejection.
    let plan = FaultPlan::clean(0x0B5E).with_transient_rate(0.05).unwrap();
    let r = sim.run_resilient(&worms, &plan, &cfg).expect("plan valid");
    let mut reg = MetricRegistry::new();
    r.stats.publish(&mut reg, "res");
    let c = |path: &str| reg.counter_value(path).unwrap_or(0);

    assert_eq!(c("res/dropped"), 0, "transients alone must not drop");
    let delivered: Vec<_> = r.outcomes.iter().filter_map(|o| o.delivered()).collect();
    assert_eq!(c("res/offered"), worms.len() as u64);
    assert_eq!(c("res/delivered"), delivered.len() as u64);
    let bytes: u64 = delivered.iter().map(|d| d.bytes).sum();
    assert_eq!(c("res/delivered_bytes"), bytes);
    assert_eq!(
        c("res/offered_bytes"),
        worms.iter().map(|w| u64::from(w.payload)).sum::<u64>()
    );
    let attempts: u64 = delivered.iter().map(|d| u64::from(d.attempts)).sum();
    assert_eq!(c("res/transmissions"), attempts);
    let crc: u64 = delivered.iter().map(|d| u64::from(d.crc_failures)).sum();
    assert_eq!(c("res/corrupted"), crc);
    assert!(crc > 0, "a 5% transient rate must corrupt something");

    // Scenario 2: link deaths with scheduled repairs. Dropped worms
    // carry only their attempt count, so reconcile conservation over
    // the ledger itself and check the health/watchdog trees exist.
    let plan = FaultPlan::clean(0x0B5F)
        .random_link_downs(&t, 6, Duration::from_us(300))
        .repair_all_after(Duration::from_us(500));
    let r = sim.run_resilient(&worms, &plan, &cfg).expect("plan valid");
    let mut reg = MetricRegistry::new();
    r.stats.publish(&mut reg, "res");
    let c = |path: &str| reg.counter_value(path).unwrap_or(0);

    assert_eq!(c("res/offered"), c("res/delivered") + c("res/dropped"));
    assert_eq!(
        c("res/offered_bytes"),
        c("res/delivered_bytes") + c("res/dropped_bytes")
    );
    let delivered_bytes: u64 = r
        .outcomes
        .iter()
        .filter_map(|o| o.delivered())
        .map(|d| d.bytes)
        .sum();
    assert_eq!(c("res/delivered_bytes"), delivered_bytes);
    assert_eq!(c("res/link_downs"), 6);
    assert_eq!(c("res/repairs"), 6);
    assert!(
        c("res/health/failed_opens") + c("res/severed") > 0,
        "six deaths under load must hit something"
    );
    assert!(c("res/watchdog/scans") > 0);
}
