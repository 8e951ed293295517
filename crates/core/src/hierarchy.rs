//! Experiment X13: the 1024-node hierarchical permutation network
//! under offered load, with the adaptive-routing ablation.
//!
//! The paper's §3.2 hierarchy stops at 256 processors (Figure 5b); the
//! crossbar building block supports another level, so this experiment
//! scales the row/column permutation network to 1024 nodes
//! ([`Topology::system1024`]) and drives whole multi-crossbar routes
//! through the flit-level wormhole simulator ([`RouteSim`]). Three
//! series share one offered-load axis:
//!
//! * **adaptive** — route choice consults the live per-port conflict
//!   counters at open time and skips held uplinks
//!   ([`RoutePolicy::Adaptive`]);
//! * **oblivious** — always the first path in deterministic enumeration
//!   order, i.e. everything funnels through middle crossbar 0
//!   ([`RoutePolicy::Oblivious`]);
//! * **8x8 mesh** — the same-parts 2D-mesh design study scaled to 64
//!   nodes, run through the X12 scenario engine for reference.
//!
//! Goodput counts only *on-time* payload (last byte within the sojourn
//! budget of injection) over the arrival horizon, the same three-fates
//! accounting X12 uses — so past the knee the curves collapse instead
//! of rewarding late service. The whole figure fans out over
//! [`par_sweep`]; serial and parallel runs are byte-identical.

use crate::traffic::{run_scenario, ScenarioConfig, ScenarioTopology};
use pm_net::routesim::{permutation_worms, RoutePolicy, RouteSim, Worm};
use pm_net::topology::Topology;
use pm_net::wire::WireConfig;
use pm_sim::par::par_sweep;
use pm_sim::stats::{Figure, Series};
use pm_sim::time::{Duration, Time};
use pm_workloads::traffic::{TrafficConfig, TrafficGen, TrafficPattern};

/// The X13 offered-load grid (fractions of plane-0 injection capacity).
pub fn x13_loads(quick: bool) -> Vec<f64> {
    if quick {
        vec![0.2, 0.4, 0.8, 1.6, 3.2]
    } else {
        vec![0.1, 0.2, 0.4, 0.6, 0.8, 1.0, 1.4, 2.0, 3.0, 4.5]
    }
}

/// The three X13 series, in figure order.
pub const X13_SERIES: [&str; 3] = [
    "system1024 adaptive (Poisson)",
    "system1024 oblivious (Poisson)",
    "8x8 mesh (Poisson)",
];

/// Nodes in the scaled hierarchy.
pub const X13_NODES: u32 = 1024;

/// Sojourn budget from injection: a worm whose last byte lands later
/// counts as zero goodput. Tighter than X12's 2 ms so the arrival
/// horizon dominates the budget even in quick mode — otherwise the
/// backlog that drains *after* the window still counts as on-time and
/// measured goodput inflates past injection capacity instead of
/// collapsing.
pub fn x13_deadline() -> Duration {
    Duration::from_us_f64(1_000.0)
}

/// Aggregate plane-0 injection capacity of the 1024-node hierarchy in
/// bytes/s: every node pushing one byte per link tick. Offered load 1.0
/// means the sources collectively ask for exactly this.
pub fn x13_injection_capacity_bytes_per_s() -> f64 {
    let per_link = 1.0 / WireConfig::synchronous().byte_time.as_secs_f64();
    f64::from(X13_NODES) * per_link
}

/// Messages for one X13 point. Scaled with overload so the wall-clock
/// window stays roughly constant past saturation (same finite-run
/// rationale as [`crate::traffic::x12_scenario`]).
fn x13_messages(load: f64, quick: bool) -> u64 {
    // At 1024 sources a 4096-byte worm serialises in ~68 us, so the
    // 1 ms budget holds ~15 worms of per-source backlog; the base keeps
    // enough arrivals per source (~25 at load 1) for overload to push
    // queues past that depth well inside the window.
    let base: u32 = if quick { 25_000 } else { 100_000 };
    (f64::from(base) * load.max(1.0)).round() as u64
}

/// The deterministic worm batch behind one hierarchy point: a Poisson
/// multi-tenant stream over all 1024 nodes, mapped onto plane 0. The
/// returned horizon is the last arrival instant — the observation
/// window the goodput divides by.
pub fn x13_worms(load: f64, load_idx: usize, quick: bool) -> (Vec<Worm>, Time) {
    let payload = 4096u64;
    let cfg = TrafficConfig {
        nodes: X13_NODES,
        tenants: if quick { 1024 } else { 4096 },
        pattern: TrafficPattern::Poisson,
        offered_bytes_per_s: load * x13_injection_capacity_bytes_per_s(),
        payload,
        messages: x13_messages(load, quick),
        seed: 0x7130_0000 + load_idx as u64,
    };
    let mut worms = Vec::with_capacity(cfg.messages as usize);
    let mut horizon = Time::ZERO;
    for m in TrafficGen::new(cfg) {
        horizon = m.at;
        worms.push(Worm {
            src: m.src as usize,
            dst: m.dst as usize,
            plane: 0,
            payload: m.bytes as u32,
            inject_at: m.at,
        });
    }
    (worms, horizon)
}

/// On-time goodput of one hierarchy point in Mbyte/s, under `policy`.
/// `sim` must have been built over [`Topology::system1024`]; reuse
/// across points keeps its pooled buffers.
pub fn x13_hierarchy_goodput(
    sim: &mut RouteSim,
    load: f64,
    load_idx: usize,
    quick: bool,
    policy: RoutePolicy,
) -> f64 {
    let (worms, horizon) = x13_worms(load, load_idx, quick);
    if horizon == Time::ZERO {
        return 0.0;
    }
    let result = sim.run(&worms, policy);
    let on_time = result.on_time_bytes(&worms, x13_deadline());
    on_time as f64 / horizon.as_secs_f64() / 1e6
}

/// The mesh reference point: the 8x8 design-study mesh through the X12
/// scenario engine, with the series' own seed lane.
pub fn x13_mesh_scenario(load: f64, load_idx: usize, quick: bool) -> ScenarioConfig {
    ScenarioConfig {
        topology: ScenarioTopology::Mesh8x8,
        pattern: TrafficPattern::Poisson,
        tenants: if quick { 1024 } else { 4096 },
        messages: x13_messages(load, quick),
        payload: 4096,
        offered_load: load,
        deadline: x13_deadline(),
        seed: 0x7130_0080 + load_idx as u64,
        faults: None,
    }
}

/// X13: offered load vs on-time goodput for the 1024-node hierarchy
/// under adaptive and oblivious routing, with the 8x8 mesh alongside.
pub fn x13_figure(quick: bool) -> Figure {
    let loads = x13_loads(quick);
    let mut points = Vec::new();
    for series in 0..X13_SERIES.len() {
        for i in 0..loads.len() {
            points.push((series, i));
        }
    }
    let loads_ref = &loads;
    let goodput = par_sweep(points, move |(series, i)| match series {
        0 | 1 => {
            let policy = if series == 0 {
                RoutePolicy::Adaptive
            } else {
                RoutePolicy::Oblivious
            };
            let mut sim = RouteSim::new(&Topology::system1024());
            x13_hierarchy_goodput(&mut sim, loads_ref[i], i, quick, policy)
        }
        _ => {
            let cfg = x13_mesh_scenario(loads_ref[i], i, quick);
            run_scenario(&cfg, None).goodput_mbytes_per_s()
        }
    });

    let mut fig = Figure::new(
        "x13 (1024-node hierarchy)",
        "offered load [fraction of injection capacity]",
        "on-time goodput [Mbyte/s]",
    );
    for (k, name) in X13_SERIES.iter().enumerate() {
        let mut s = Series::new(*name);
        for (i, &load) in loads.iter().enumerate() {
            s.push(load, goodput[k * loads.len() + i]);
        }
        fig.add_series(s);
    }
    fig
}

/// The 1024-worm perfect-permutation batch the `figures --time` hot
/// path replays: every node injects simultaneously and a greedy
/// adaptive matching keeps all 1024 worms in flight at once.
pub fn x13_hot_path_worms() -> Vec<Worm> {
    // system1024 = hierarchical(16, 8, 16): 128 clusters of 8 nodes.
    permutation_worms(128, 8, 4096, 0, Time::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_load_grids_cover_both_sides_of_saturation() {
        for quick in [true, false] {
            let loads = x13_loads(quick);
            assert!(loads.iter().all(|&l| l > 0.0));
            assert!(loads.windows(2).all(|w| w[0] < w[1]), "grid must ascend");
            assert!(*loads.first().unwrap() < 1.0 && *loads.last().unwrap() > 1.0);
        }
    }

    #[test]
    fn worm_batches_are_deterministic_and_well_formed() {
        let (a, ha) = x13_worms(0.4, 1, true);
        let (b, hb) = x13_worms(0.4, 1, true);
        assert_eq!(a, b);
        assert_eq!(ha, hb);
        assert_eq!(a.len(), 25_000);
        assert!(ha > Time::ZERO);
        let mut last = Time::ZERO;
        for w in &a {
            assert!(w.src < 1024 && w.dst < 1024 && w.src != w.dst);
            assert_eq!(w.plane, 0);
            assert_eq!(w.payload, 4096);
            assert!(w.inject_at >= last, "arrivals must be time-ordered");
            last = w.inject_at;
        }
    }

    #[test]
    fn adaptive_beats_oblivious_past_the_oblivious_knee() {
        // The headline ablation at two points straddling saturation:
        // below the knee both policies deliver the offered bytes; past
        // it the oblivious middle-0 funnel collapses first.
        let mut sim = RouteSim::new(&Topology::system1024());
        let ada_hi = x13_hierarchy_goodput(&mut sim, 1.6, 3, true, RoutePolicy::Adaptive);
        let obl_hi = x13_hierarchy_goodput(&mut sim, 1.6, 3, true, RoutePolicy::Oblivious);
        assert!(
            ada_hi >= obl_hi,
            "adaptive {ada_hi:.1} < oblivious {obl_hi:.1} Mbyte/s at load 1.6"
        );
        let ada_lo = x13_hierarchy_goodput(&mut sim, 0.2, 0, true, RoutePolicy::Adaptive);
        assert!(
            ada_lo > 0.0 && ada_hi > 0.0,
            "hierarchy must deliver on-time bytes on both sides of the knee"
        );
    }

    #[test]
    fn the_hot_path_batch_is_a_full_permutation() {
        let worms = x13_hot_path_worms();
        assert_eq!(worms.len(), 1024);
        let mut sim = RouteSim::new(&Topology::system1024());
        let r = sim.run(&worms, RoutePolicy::Adaptive);
        assert_eq!(r.peak_inflight, 1024, "greedy matching must be perfect");
    }
}
