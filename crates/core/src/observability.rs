//! The unified observability pass (DESIGN.md §9).
//!
//! Every model layer accumulates its own counters while it runs and
//! exposes a pull-based `publish_metrics`/`publish` hook; this module
//! composes them into one [`MetricRegistry`] whose component-path tree
//! (`node0/mem/cpu0/l1/misses`, `net/xbar0/port5/conflicts`, …) spans
//! the whole machine. [`collect_metrics`] drives one deterministic
//! scenario through each substrate — SMP memory traffic, an NI stream
//! against the stop wire, dispatcher tag pressure, conflicting crossbar
//! routes, a backpressured worm, a mesh connection, and the self-healing
//! loop under faults — and harvests everything it touched.
//!
//! The pass is seeded and single-threaded, so the resulting registry is
//! bit-stable across runs: `figures --metrics` golden-diffs its CSV in
//! CI. Because publication happens strictly *after* the runs, skipping
//! it (or never constructing a registry at all) leaves every simulated
//! timing byte-identical — the zero-cost contract `tests/parity.rs`
//! pins.

use crate::systems;
use pm_isa::TraceBuilder;
use pm_net::fault::{FaultPlan, LinkRef};
use pm_net::network::{Network, RouteBackpressure};
use pm_net::routesim::{ResilienceConfig, RouteSim, Worm, WormOutcome};
use pm_net::topology::Topology;
use pm_node::dispatcher::{Dispatcher, DispatcherConfig, TransactionKind};
use pm_node::ni::{NiConfig, NiDirection};
use pm_node::node::Node;
use pm_sim::metrics::MetricRegistry;
use pm_sim::time::Time;

/// Runs the whole observability scenario and returns the populated
/// registry. `quick` shrinks the workloads (CI golden size); both modes
/// are deterministic.
pub fn collect_metrics(quick: bool) -> MetricRegistry {
    let mut reg = MetricRegistry::new();
    node_section(&mut reg, quick);
    ni_section(&mut reg, quick);
    dispatcher_section(&mut reg, quick);
    network_section(&mut reg, quick);
    mesh_section(&mut reg);
    comm_section(&mut reg, quick);
    reg
}

/// `node0/mem/...`: both CPUs of the PowerMANNA node stream a strided
/// fmadd kernel, touching L1/L2/TLB, the snoop bus and the DRAM banks.
fn node_section(reg: &mut MetricRegistry, quick: bool) {
    let mut node = Node::new(systems::powermanna().node);
    let lines = if quick { 512 } else { 4096 };
    let traces: Vec<_> = (0..2)
        .map(|cpu| {
            let mut tb = TraceBuilder::new();
            let mut acc = tb.reg();
            for k in 0..lines as u64 {
                let v = tb.load((cpu as u64) << 28 | (k * 72), 8);
                acc = tb.fmadd(v, v, acc);
            }
            tb.store(acc, (cpu as u64) << 28 | 0x100_0000, 8);
            tb.finish()
        })
        .collect();
    node.run_smp(traces);
    node.publish_metrics(reg, "node0");
}

/// `node0/ni/tx/...`: one NI direction filled faster than it drains, so
/// the stop wire parks chunks and the receive FIFO hits its high-water
/// mark.
fn ni_section(reg: &mut MetricRegistry, quick: bool) {
    let mut dir = NiDirection::new(NiConfig::powermanna());
    let chunks = if quick { 32 } else { 256 };
    let mut send_t = Time::ZERO;
    let mut recv_t = Time::ZERO;
    let mut sent = 0u32;
    let mut received = 0u32;
    while received < chunks {
        if sent < chunks {
            if let Some(done) = dir.push(send_t, 64) {
                send_t = done;
                sent += 1;
                continue;
            }
        }
        let popped = dir.pop(recv_t.max(send_t), 64).expect("sender is ahead");
        recv_t = popped;
        received += 1;
    }
    dir.publish_metrics(reg, "node0/ni/tx");
}

/// `node0/dispatcher/...`: more in-flight transactions than the MPC620
/// protocol has tags, so grants stall on completions.
fn dispatcher_section(reg: &mut MetricRegistry, quick: bool) {
    let mut d = Dispatcher::new(DispatcherConfig::powermanna());
    let rounds = if quick { 24 } else { 96 };
    let kinds = [
        TransactionKind::Read,
        TransactionKind::Read,
        TransactionKind::ReadExclusive,
        TransactionKind::Upgrade,
        TransactionKind::WriteBack,
        TransactionKind::Intervention,
    ];
    let mut t = Time::ZERO;
    let mut in_flight: Vec<(u32, Time)> = Vec::new();
    for i in 0..rounds {
        let g = d.begin(kinds[i % kinds.len()], t);
        in_flight.push((g.tag, g.granted_at + pm_sim::time::Duration::from_ns(150)));
        t = g.granted_at;
        // Complete the oldest transaction once the pool is half-committed,
        // leaving the other half to collide with new grants.
        if in_flight.len() > 4 {
            let (tag, done) = in_flight.remove(0);
            d.complete(tag, done);
        }
    }
    for (tag, done) in in_flight {
        d.complete(tag, done);
    }
    d.publish_metrics(reg, "node0/dispatcher");
}

/// `net/...`: conflicting opens on the cluster crossbar plus one
/// backpressured worm whose destination stalls half of every window;
/// each transfer's outcome lands under the same prefix, so the
/// transfer-level counters reconcile with the crossbar's own.
fn network_section(reg: &mut MetricRegistry, quick: bool) {
    let mut net = Network::new(Topology::cluster8());
    let bytes = if quick { 4096 } else { 65536 };

    // Two same-plane routes to the same destination: the second open
    // waits for the held output port (a crossbar conflict).
    let mut a = net.open(0, 4, 0, Time::ZERO).expect("first route");
    let oa = a.transfer(a.ready_at(), bytes);
    oa.publish(reg, "net");
    a.close(&mut net, oa.finished);
    let mut b = net.open(1, 4, 0, Time::ZERO).expect("second route");
    let ob = b.transfer(b.ready_at(), bytes);
    ob.publish(reg, "net");
    b.close(&mut net, ob.finished);

    // A backpressured worm: the destination asserts stop for the second
    // half of every 1000-tick window.
    let mut c = net.open(2, 6, 1, Time::ZERO).expect("plane-1 route");
    let start = c.ready_at();
    let bt = pm_net::wire::WireConfig::synchronous().byte_time.as_ps();
    let t0 = start.as_ps().div_ceil(bt);
    let windows: Vec<(u64, u64)> = (0..64u64)
        .map(|i| (t0 + i * 1000 + 500, t0 + i * 1000 + 1000))
        .collect();
    let bp = RouteBackpressure::powermanna(windows);
    let oc = c.transfer_backpressured(start, bytes, &bp);
    oc.publish(reg, "net");
    c.close(&mut net, oc.finished);

    net.publish_metrics(reg, "net");
}

/// `mesh/...`: one connection across the 4x4 design-study mesh; its
/// outcome lands under the same prefix as the routers' own counters.
fn mesh_section(reg: &mut MetricRegistry) {
    let mut mesh = Network::mesh(4, 4);
    let mut c = mesh.open(0, 3, 0, Time::ZERO).expect("idle mesh");
    let o = c.transfer(c.ready_at(), 4096);
    o.publish(reg, "mesh");
    c.close(&mut mesh, o.finished);
    mesh.publish_metrics(reg, "mesh");
}

/// `comm/...`: the self-healing loop under a seeded fault plan — CRC
/// retransmissions plus a plane-0 death mid-stream that forces
/// failover. Node 0 queues one stream on each link interface at t = 0;
/// every delivered worm's outcome lands under `comm`, the run's
/// conservation ledger under `comm/faults`.
fn comm_section(reg: &mut MetricRegistry, quick: bool) {
    let (messages, payload) = if quick { (8, 2048) } else { (32, 8192) };
    let plan = FaultPlan::clean(0x0B5E)
        .with_transient_rate(0.2)
        .expect("rate in range")
        .kill_link(
            Time::from_ps(100_000_000),
            LinkRef::NodeLink { node: 0, plane: 0 },
        );
    let worms: Vec<Worm> = (0..messages)
        .map(|i| Worm {
            src: 0,
            dst: 1,
            plane: i % 2,
            payload,
            inject_at: Time::ZERO,
        })
        .collect();
    let r = RouteSim::new(&Topology::two_nodes())
        .run_resilient(&worms, &plan, &ResilienceConfig::default())
        .expect("the plan names two_nodes links");
    for d in r.outcomes.iter().filter_map(WormOutcome::delivered) {
        d.publish(reg, "comm");
    }
    r.stats.publish(reg, "comm/faults");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collection_is_deterministic() {
        let a = collect_metrics(true);
        let b = collect_metrics(true);
        assert_eq!(a.to_csv(), b.to_csv());
    }

    #[test]
    fn every_layer_contributes_a_subtree() {
        let reg = collect_metrics(true);
        let csv = reg.to_csv();
        for path in [
            "node0/mem/cpu0/l1/misses",
            "node0/mem/bus/addr_phases",
            "node0/mem/dram/accesses",
            "node0/ni/tx/bytes",
            "node0/dispatcher/started",
            "net/transfers",
            "net/stalled_bytes",
            "net/xbar0/routes",
            "mesh/xbar0/routes",
            "comm/faults/offered",
            "comm/transfers",
        ] {
            assert!(
                reg.counter_value(path).is_some(),
                "missing {path} in:\n{csv}"
            );
        }
    }

    #[test]
    fn the_scenario_exercises_the_interesting_counters() {
        let reg = collect_metrics(true);
        // The second same-plane route conflicted on the held port.
        assert!(reg.counter_value("net/xbar0/conflicts").unwrap() > 0);
        // The backpressured worm lost byte slots to the stop wire.
        assert!(reg.counter_value("net/stalled_bytes").unwrap() > 0);
        // The stop wire parked NI chunks.
        assert!(reg.counter_value("node0/ni/tx/stop_stalls").unwrap() > 0);
        // Tag pressure stalled dispatcher grants.
        assert!(reg.counter_value("node0/dispatcher/tag_stalls").unwrap() > 0);
        // The fault plan corrupted at least one worm and killed a link
        // under a streaming worm, whose retransmission failed over.
        assert!(reg.counter_value("comm/faults/corrupted").unwrap() > 0);
        assert_eq!(reg.counter_value("comm/faults/link_downs"), Some(1));
        assert_eq!(reg.counter_value("comm/faults/severed"), Some(1));
        assert!(reg.counter_value("comm/failovers").unwrap() > 0);
        // Nothing was lost: every offered byte was delivered.
        assert_eq!(
            reg.counter_value("comm/faults/delivered_bytes"),
            reg.counter_value("comm/faults/offered_bytes"),
        );
    }
}
