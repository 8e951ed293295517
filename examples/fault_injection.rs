//! Fault injection: corrupt flits, kill a network plane mid-run, and
//! watch the self-healing loop (CRC retransmission, failover to the
//! duplicated plane learned from symptoms) deliver everything anyway.
//!
//! Node 0 streams to node 1 on both of its link interfaces at once.
//! The example asserts zero loss and in-order delivery per interface,
//! so a recovery regression makes it exit non-zero.
//!
//! Run with:
//! ```sh
//! cargo run --release --example fault_injection
//! ```

use powermanna::net::fault::{FaultPlan, LinkRef};
use powermanna::net::routesim::{ResilienceConfig, RouteSim, Worm, WormOutcome};
use powermanna::net::topology::Topology;
use powermanna::sim::time::Time;

fn main() {
    // --- 1. A seeded fault plan ------------------------------------------
    // Everything is a function of the seed: re-running this example
    // replays the exact same corruptions and link deaths.
    let plan = FaultPlan::clean(0xBADC_AB1E)
        .with_transient_rate(0.3) // 30% of transmissions take a bit flip
        .expect("rate in [0, 1)")
        .kill_link(
            Time::from_ps(400_000_000),              // 400 us into the run...
            LinkRef::NodeLink { node: 0, plane: 0 }, // ...node 0 loses plane 0
        );
    println!(
        "plan: seed {:#x}, transient rate {}, {} scheduled link death(s)",
        plan.seed(),
        plan.transient_rate(),
        plan.schedule().len()
    );

    // --- 2. Two streams, one per link interface ----------------------------
    // Each worm queues on its preferred plane's link interface; both
    // interfaces stream at once (2 x 60 Mbyte/s).
    let worms: Vec<Worm> = (0..16)
        .map(|i| Worm {
            src: 0,
            dst: 1,
            plane: i % 2,
            payload: 8192,
            inject_at: Time::ZERO,
        })
        .collect();

    // --- 3. The self-healing loop ------------------------------------------
    // The CRC rejects corrupted worms and the source retransmits under
    // jittered exponential backoff. When the plane-0 cable dies, the
    // severed worm's delivery timeout quarantines the link in node 0's
    // health table, and its lane fails over to plane 1 (half the
    // aggregate bandwidth, but zero loss).
    let r = RouteSim::new(&Topology::two_nodes())
        .run_resilient(&worms, &plan, &ResilienceConfig::default())
        .expect("the plan names two_nodes links");
    let mut last = [Time::ZERO; 2];
    for (i, (w, o)) in worms.iter().zip(&r.outcomes).enumerate() {
        let WormOutcome::Delivered(d) = o else {
            panic!("worm {i} was dropped: {o:?}");
        };
        println!(
            "  worm {i:2} (lane {}): delivered at {} on plane {} after {} attempt(s)",
            w.plane, d.finished, d.plane, d.attempts
        );
        let lane = w.plane as usize;
        assert!(d.finished > last[lane], "worm {i} overtook its lane");
        last[lane] = d.finished;
    }
    let s = r.stats;
    println!(
        "stats: {} worms, {} transmissions, {} CRC rejections, {} severed, \
         {} failed opens, {} link death(s) applied",
        s.offered, s.transmissions, s.corrupted, s.severed, s.failed_opens, s.link_downs
    );
    assert_eq!(s.delivered_bytes, s.offered_bytes, "payload lost");
    println!(
        "goodput: {:.1} Mbyte/s for {} payload bytes (zero loss)",
        s.delivered_bytes as f64 / r.finished_at.as_secs_f64() / 1e6,
        s.delivered_bytes
    );
}
