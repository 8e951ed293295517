//! The four workloads: their points, their set-up, and the two ways a
//! point runs — through the public entry points (`pm-core` `matmultrun`,
//! `RouteSim::run` / `run_resilient`), or, in a traced pass, through the
//! layer functions underneath with a span around each call.

use crate::check::{self, Output};
use crate::trace::{Counts, Layer, Tracer};
use pm_core::hierarchy::x13_injection_capacity_bytes_per_s;
use pm_core::matmultrun::{self, MatMultMeasurement};
use pm_core::resilience::X14_TRANSIENT_RATE;
use pm_core::systems::{self, System};
use pm_cpu::{run_smp_at, Cpu, CpuConfig, RunResult};
use pm_isa::{Instr, Trace};
use pm_mem::pool::with_node_mem;
use pm_mem::MemorySystem;
use pm_net::fault::FaultPlan;
use pm_net::routesim::{FailoverMode, ResilienceConfig, RoutePolicy, RouteSim, Worm};
use pm_net::topology::Topology;
use pm_sim::rng::SimRng;
use pm_sim::time::{Duration, Time};
use pm_workloads::blocked::BlockedMatMult;
use pm_workloads::matmult::{MatMult, MatMultVersion};
use pm_workloads::traffic::{TrafficConfig, TrafficGen, TrafficPattern};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    MatmultL2,
    MatmultTlb,
    HierClean,
    HierFaults,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::MatmultL2,
        Workload::MatmultTlb,
        Workload::HierClean,
        Workload::HierFaults,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MatmultL2 => "matmult_l2",
            Workload::MatmultTlb => "matmult_tlb",
            Workload::HierClean => "hier1024_clean",
            Workload::HierFaults => "hier1024_faults",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How big each workload is. The benchmark always runs [`FULL`]; the
/// tests run a reduced scale through the same code.
pub struct Scale {
    /// Fully simulated MatMult sizes (≤ 96, below row sampling).
    pub l2_sizes: &'static [usize],
    /// Row-sampled MatMult sizes (> 96).
    pub tlb_sizes: &'static [usize],
    pub clean_loads: &'static [f64],
    pub clean_lanes: usize,
    pub clean_worms: u64,
    pub fault_loads: &'static [f64],
    pub fault_lanes: usize,
    pub fault_worms: u64,
    /// Permanent link deaths in fault campaigns 2 and 3.
    pub deaths: u32,
}

pub const FULL: Scale = Scale {
    l2_sizes: &[32, 40, 48, 56, 64],
    tlb_sizes: &[160, 192, 224, 256, 288],
    clean_loads: &[0.4, 0.8, 1.6, 3.2],
    clean_lanes: 4,
    clean_worms: 100_000,
    fault_loads: &[0.4, 1.6],
    fault_lanes: 2,
    fault_worms: 50_000,
    deaths: 24,
};

/// Sizes above this are row-sampled by `pm_core::matmultrun`; the traced
/// replay mirrors its branch (a mismatch fails the bit-for-bit check).
const FULL_SIM_LIMIT: usize = 96;
/// Measured rows when sampling, as in `pm_core::matmultrun`.
const SAMPLE_ROWS: usize = 2;

/// Builds one of the modelled machines.
type MakeSystem = fn() -> System;

const MACHINES: [(&str, MakeSystem); 3] = [
    ("pm", systems::powermanna),
    ("su", systems::sun_ultra),
    ("pc", systems::pentium_180),
];

const CAMPAIGNS: [&str; 4] = ["clean", "transients", "deaths", "deaths_repairs"];

#[derive(Clone, Copy, Debug)]
enum Kind {
    Single(MatMultVersion),
    Dual(MatMultVersion),
    Blocked(usize),
}

#[derive(Clone, Copy, Debug)]
enum Point {
    MatMult {
        machine: usize,
        n: usize,
        kind: Kind,
    },
    Route {
        batch: usize,
        policy: RoutePolicy,
    },
    Resilient {
        batch: usize,
        plan: usize,
        mode: FailoverMode,
    },
}

fn version_tag(v: MatMultVersion) -> &'static str {
    match v {
        MatMultVersion::Naive => "naive",
        MatMultVersion::Transposed => "transposed",
    }
}

/// The largest tile in {32, 16, 8} dividing `n`.
fn tile_for(n: usize) -> usize {
    [32, 16, 8]
        .into_iter()
        .find(|&t| n.is_multiple_of(t))
        .expect("sizes are multiples of 8")
}

/// The points of one pass, with their labels, in canonical order. The
/// point set does not depend on the seed (see the README for why). The
/// MatMult passes hold 45 points, a count ending in 5: costs cluster by
/// point, and the pooled p50 and p90 then fall mid-cluster instead of
/// on the gap between two points' samples.
fn points(w: Workload, scale: &Scale) -> Vec<(Point, String)> {
    use MatMultVersion::{Naive, Transposed};
    let mut out = Vec::new();
    let mut mm = |machine: usize, n: usize, kind: Kind| {
        let tag = match kind {
            Kind::Single(v) => format!("single-{}", version_tag(v)),
            Kind::Dual(v) => format!("dual-{}", version_tag(v)),
            Kind::Blocked(t) => format!("blocked-t{t}"),
        };
        let label = format!("{}/{tag}/n{n}", MACHINES[machine].0);
        out.push((Point::MatMult { machine, n, kind }, label));
    };
    match w {
        Workload::MatmultL2 => {
            for &n in scale.l2_sizes {
                (0..3).for_each(|m| mm(m, n, Kind::Single(Naive)));
                (0..3).for_each(|m| mm(m, n, Kind::Dual(Transposed)));
                mm(0, n, Kind::Single(Transposed));
                mm(0, n, Kind::Blocked(tile_for(n)));
                mm(0, n, Kind::Dual(Naive));
            }
        }
        Workload::MatmultTlb => {
            for &n in scale.tlb_sizes {
                for m in 0..3 {
                    mm(m, n, Kind::Single(Naive));
                    mm(m, n, Kind::Single(Transposed));
                    mm(m, n, Kind::Dual(Naive));
                }
            }
        }
        Workload::HierClean => {
            for (li, load) in scale.clean_loads.iter().enumerate() {
                for (policy, tag) in [
                    (RoutePolicy::Adaptive, "adaptive"),
                    (RoutePolicy::Oblivious, "oblivious"),
                ] {
                    for lane in 0..scale.clean_lanes {
                        let batch = li * scale.clean_lanes + lane;
                        let label = format!("load{load}/{tag}/lane{lane}");
                        out.push((Point::Route { batch, policy }, label));
                    }
                }
            }
        }
        Workload::HierFaults => {
            for (li, load) in scale.fault_loads.iter().enumerate() {
                for (c, campaign) in CAMPAIGNS.iter().enumerate() {
                    for (mode, tag) in [
                        (FailoverMode::Detected, "detected"),
                        (FailoverMode::Oracle, "oracle"),
                    ] {
                        for lane in 0..scale.fault_lanes {
                            let batch = li * scale.fault_lanes + lane;
                            let plan = batch * CAMPAIGNS.len() + c;
                            let label = format!("load{load}/{campaign}/{tag}/lane{lane}");
                            out.push((Point::Resilient { batch, plan, mode }, label));
                        }
                    }
                }
            }
        }
    }
    out
}

/// A seed for one input stream of the run seeded `seed`. Each part is
/// hashed in turn, so no two (seed, index) pairs share a seed.
fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    [stream, index]
        .into_iter()
        .fold(seed, |h, x| SimRng::seed_from(h ^ x).next_u64())
}

const TRAFFIC_STREAM: u64 = 0x7_aff1c;
const PLAN_STREAM: u64 = 0xfa_017;

/// A Poisson batch over all 1024 nodes at `load` of plane-0 injection
/// capacity, and its last arrival.
fn poisson_batch(load: f64, worms: u64, seed: u64) -> (Vec<Worm>, Time) {
    let cfg = TrafficConfig {
        nodes: 1024,
        tenants: 1024,
        pattern: TrafficPattern::Poisson,
        offered_bytes_per_s: load * x13_injection_capacity_bytes_per_s(),
        payload: 4096,
        messages: worms,
        seed,
    };
    let mut horizon = Time::ZERO;
    let batch = TrafficGen::new(cfg)
        .map(|m| {
            horizon = m.at;
            Worm {
                src: m.src as usize,
                dst: m.dst as usize,
                plane: 0,
                payload: m.bytes as u32,
                inject_at: m.at,
            }
        })
        .collect();
    (batch, horizon)
}

/// X14's escalating campaigns: clean; transients; plus link deaths over
/// the first 60% of the horizon; plus every death repaired 500 µs later.
fn campaign_plan(
    campaign: usize,
    seed: u64,
    horizon: Time,
    topo: &Topology,
    deaths: u32,
) -> FaultPlan {
    let mut plan = FaultPlan::clean(seed);
    if campaign >= 1 {
        plan = plan
            .with_transient_rate(X14_TRANSIENT_RATE)
            .expect("rate is a probability");
    }
    if campaign >= 2 {
        let window = Duration::from_ps(horizon.as_ps() * 3 / 5);
        plan = plan.random_link_downs(topo, deaths, window);
    }
    if campaign >= 3 {
        plan = plan.repair_all_after(Duration::from_us(500));
    }
    plan
}

/// One workload, set up and ready to run its points.
pub struct Bench {
    points: Vec<Point>,
    pub labels: Vec<String>,
    systems: Vec<System>,
    sim: Option<RouteSim>,
    batches: Vec<Vec<Worm>>,
    plans: Vec<FaultPlan>,
}

impl Bench {
    /// Generates the inputs from `seed`, builds the simulator and runs
    /// the last point once, untimed, to warm host caches and the
    /// allocator (the last point is among the costliest, which keeps
    /// the set-up time well above the timer's and allocator's jitter).
    /// Spans go to `tr`.
    pub fn setup(w: Workload, seed: u64, scale: &Scale, tr: &mut Tracer) -> Result<Self, String> {
        let root = tr.begin(Layer::Setup);
        let (points, labels) = points(w, scale).into_iter().unzip();
        let mut bench = Bench {
            points,
            labels,
            systems: MACHINES.iter().map(|(_, make)| make()).collect(),
            sim: None,
            batches: Vec::new(),
            plans: Vec::new(),
        };
        if matches!(w, Workload::HierClean | Workload::HierFaults) {
            let topo = tr.span(Layer::NetSetup, || {
                let topo = Topology::system1024();
                bench.sim = Some(RouteSim::new(&topo));
                topo
            });
            let (loads, lanes, worms) = match w {
                Workload::HierClean => (scale.clean_loads, scale.clean_lanes, scale.clean_worms),
                _ => (scale.fault_loads, scale.fault_lanes, scale.fault_worms),
            };
            let stream = TRAFFIC_STREAM ^ w as u64;
            let batches: Vec<(Vec<Worm>, Time)> = tr.span(Layer::TrafficGen, || {
                let mut out = Vec::new();
                for (li, &load) in loads.iter().enumerate() {
                    for lane in 0..lanes {
                        let index = (li * lanes + lane) as u64;
                        out.push(poisson_batch(load, worms, derive(seed, stream, index)));
                    }
                }
                out
            });
            tr.counts.traffic_msgs = batches.iter().map(|(b, _)| b.len() as u64).sum();
            if w == Workload::HierFaults {
                let plan_id = tr.begin(Layer::FaultPlan);
                for (b, (_, horizon)) in batches.iter().enumerate() {
                    let plan_seed = derive(seed, PLAN_STREAM, b as u64);
                    for c in 0..CAMPAIGNS.len() {
                        let plan = campaign_plan(c, plan_seed, *horizon, &topo, scale.deaths);
                        plan.validate(&topo)
                            .map_err(|e| format!("fault plan: {e}"))?;
                        bench.plans.push(plan);
                    }
                }
                tr.end(plan_id);
            }
            bench.batches = batches.into_iter().map(|(b, _)| b).collect();
        }
        let last = bench.len() - 1;
        tr.span(Layer::Warmup, || bench.call(last, None));
        tr.end(root);
        Ok(bench)
    }

    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Runs point `i`: through the public entry point when `tr` is `None`,
    /// through the layer functions with spans otherwise.
    pub fn call(&mut self, i: usize, tr: Option<&mut Tracer>) -> Output {
        match self.points[i] {
            Point::MatMult { machine, n, kind } => {
                let sys = &self.systems[machine];
                Output::MatMult(match (tr, kind) {
                    (None, Kind::Single(v)) => matmultrun::measure_single(sys, n, v),
                    (None, Kind::Dual(v)) => matmultrun::measure_dual(sys, n, v),
                    (None, Kind::Blocked(t)) => matmultrun::measure_blocked(sys, n, t),
                    (Some(tr), kind) => {
                        tr.replay_reset(sys.node.mem);
                        match kind {
                            Kind::Single(v) => traced_single(tr, sys, n, v),
                            Kind::Dual(v) => traced_dual(tr, sys, n, v),
                            Kind::Blocked(t) => traced_blocked(tr, sys, n, t),
                        }
                    }
                })
            }
            Point::Route { batch, policy } => {
                let sim = self.sim.as_mut().expect("route workloads build a RouteSim");
                let worms = &self.batches[batch];
                Output::Route(match tr {
                    None => sim.run(worms, policy),
                    Some(tr) => tr.span(Layer::Net, || sim.run(worms, policy)),
                })
            }
            Point::Resilient { batch, plan, mode } => {
                let sim = self.sim.as_mut().expect("route workloads build a RouteSim");
                let (worms, plan) = (&self.batches[batch], &self.plans[plan]);
                let cfg = ResilienceConfig {
                    failover: mode,
                    ..ResilienceConfig::default()
                };
                let r = match tr {
                    None => sim.run_resilient(worms, plan, &cfg),
                    Some(tr) => tr.span(Layer::Net, || sim.run_resilient(worms, plan, &cfg)),
                };
                Output::Resilient(r.expect("plans were validated at set-up"))
            }
        }
    }

    /// The invariants point `i`'s output must satisfy.
    pub fn check(&self, i: usize, out: &Output) -> Result<(), String> {
        match (self.points[i], out) {
            (Point::MatMult { n, .. }, Output::MatMult(m)) => check::matmult(m, n),
            (Point::Route { batch, .. }, Output::Route(r)) => check::route(&self.batches[batch], r),
            (Point::Resilient { batch, .. }, Output::Resilient(r)) => {
                check::resilient(&self.batches[batch], r)
            }
            _ => Err("output of the wrong kind".into()),
        }
    }
}

/// Adds a network output's counters to `c`.
pub fn count_net(out: &Output, c: &mut Counts) {
    match out {
        Output::MatMult(_) => {}
        Output::Route(r) => {
            let worms = r.completions.len() as u64;
            c.worms += worms;
            c.transmissions += worms;
            c.delivered += worms;
            c.conflicts += r.conflicts;
            c.detours += r.detours;
            c.peak_inflight = c.peak_inflight.max(r.peak_inflight as u64);
        }
        Output::Resilient(r) => {
            let s = &r.stats;
            c.worms += s.offered;
            c.transmissions += s.transmissions;
            c.delivered += s.delivered;
            c.conflicts += r.conflicts;
            c.detours += r.detours;
            c.peak_inflight = c.peak_inflight.max(r.peak_inflight as u64);
            c.severed += s.severed;
            c.failed_opens += s.failed_opens;
            c.quarantines += s.quarantines;
            c.forced_reprobes += s.forced_reprobes;
            c.watchdog_scans += s.scans;
            c.recoveries += s.recoveries;
        }
    }
}

// The traced MatMult replay below repeats `pm_core::matmultrun`'s
// transpose / warm-row / sampled-row sequence call for call, so that the
// host time of each layer can be taken apart. Its result must equal the
// entry point's bit for bit, which the traced pass checks.

fn gen(tr: &mut Tracer, build: impl FnOnce() -> Trace) -> Trace {
    let t = tr.span(Layer::TraceGen, build);
    tr.counts.trace_instrs += t.len() as u64;
    let bytes = (t.len() * std::mem::size_of::<Instr>()) as u64;
    tr.counts.peak_trace_bytes = tr.counts.peak_trace_bytes.max(bytes);
    t
}

fn exec(
    tr: &mut Tracer,
    cpu: &mut Cpu,
    trace: Trace,
    mem: &mut MemorySystem,
    start: Time,
) -> RunResult {
    tr.replay(0, &trace);
    let r = tr.span(Layer::Cpu, || cpu.execute_at(trace, mem, 0, start));
    tr.counts.cpu_instrs += r.instrs;
    tr.counts.cpu_cycles += r.cycles;
    r
}

/// The slowest CPU's elapsed time of an SMP run on `traces`.
fn smp(
    tr: &mut Tracer,
    configs: &[CpuConfig],
    traces: Vec<Trace>,
    mem: &mut MemorySystem,
    start: Time,
) -> Duration {
    for (cpu, t) in traces.iter().enumerate() {
        tr.replay(cpu, t);
    }
    let results = tr.span(Layer::Smp, || run_smp_at(configs, traces, mem, start));
    for r in &results {
        tr.counts.cpu_instrs += r.instrs;
        tr.counts.cpu_cycles += r.cycles;
    }
    results
        .iter()
        .map(|r| r.elapsed)
        .fold(Duration::ZERO, Duration::max)
}

/// `with_node_mem` with the hand-over of the cold instance as a span.
fn provisioned<R>(
    tr: &mut Tracer,
    sys: &System,
    f: impl FnOnce(&mut Tracer, &mut MemorySystem) -> R,
) -> R {
    let id = tr.begin(Layer::Provision);
    tr.counts.provisions += 1;
    with_node_mem(sys.node.mem, |mem| {
        tr.end(id);
        f(tr, mem)
    })
}

fn measurement(n: usize, flops: u64, runtime: Duration, sampled: bool) -> MatMultMeasurement {
    MatMultMeasurement {
        n,
        mflops: flops as f64 / runtime.as_secs_f64() / 1e6,
        runtime,
        sampled,
    }
}

fn traced_single(
    tr: &mut Tracer,
    sys: &System,
    n: usize,
    version: MatMultVersion,
) -> MatMultMeasurement {
    let kernel = MatMult::new(n, version);
    provisioned(tr, sys, |tr, mem| {
        let mut cpu = Cpu::new(sys.node.cpu.clone());
        let mut cursor = Time::ZERO;
        let mut runtime = Duration::ZERO;
        if version == MatMultVersion::Transposed {
            let t = gen(tr, || kernel.transpose_trace());
            let r = exec(tr, &mut cpu, t, mem, cursor);
            cursor = r.finished_at;
            runtime += r.elapsed;
        }
        let sampled = n > FULL_SIM_LIMIT;
        if !sampled {
            let t = gen(tr, || kernel.trace_rows(0, n));
            runtime += exec(tr, &mut cpu, t, mem, cursor).elapsed;
        } else {
            let t = gen(tr, || kernel.trace_rows(0, 1));
            cursor = exec(tr, &mut cpu, t, mem, cursor).finished_at;
            let t = gen(tr, || kernel.trace_rows(1, 1 + SAMPLE_ROWS));
            let measured = exec(tr, &mut cpu, t, mem, cursor);
            runtime += measured.elapsed / SAMPLE_ROWS as u64 * n as u64;
        }
        measurement(n, kernel.flops_total(), runtime, sampled)
    })
}

fn traced_dual(
    tr: &mut Tracer,
    sys: &System,
    n: usize,
    version: MatMultVersion,
) -> MatMultMeasurement {
    let kernel = MatMult::new(n, version);
    let configs = [sys.node.cpu.clone(), sys.node.cpu.clone()];
    let half = n / 2;
    provisioned(tr, sys, |tr, mem| {
        let mut runtime = Duration::ZERO;
        let mut cursor = Time::ZERO;
        if version == MatMultVersion::Transposed {
            let t = gen(tr, || kernel.transpose_trace());
            let mid = t.len() / 2;
            let first: Trace = t.iter().take(mid).copied().collect();
            let second: Trace = t.iter().skip(mid).copied().collect();
            let slowest = smp(tr, &configs, vec![first, second], mem, cursor);
            runtime += slowest;
            cursor += slowest;
        }
        let sampled = n > FULL_SIM_LIMIT;
        if !sampled {
            let a = gen(tr, || kernel.trace_rows(0, half));
            let b = gen(tr, || kernel.trace_rows(half, n));
            runtime += smp(tr, &configs, vec![a, b], mem, cursor);
        } else {
            let a = gen(tr, || kernel.trace_rows(0, 1));
            let b = gen(tr, || kernel.trace_rows(half, half + 1));
            cursor += smp(tr, &configs, vec![a, b], mem, cursor);
            let a = gen(tr, || kernel.trace_rows(1, 1 + SAMPLE_ROWS));
            let b = gen(tr, || kernel.trace_rows(half + 1, half + 1 + SAMPLE_ROWS));
            let slowest = smp(tr, &configs, vec![a, b], mem, cursor);
            runtime += (slowest / SAMPLE_ROWS as u64) * half as u64;
        }
        measurement(n, kernel.flops_total(), runtime, sampled)
    })
}

fn traced_blocked(tr: &mut Tracer, sys: &System, n: usize, tile: usize) -> MatMultMeasurement {
    let kernel = BlockedMatMult::new(n, tile);
    provisioned(tr, sys, |tr, mem| {
        let mut cpu = Cpu::new(sys.node.cpu.clone());
        let blocks = kernel.block_rows();
        let mut runtime = Duration::ZERO;
        let sampled = blocks > 2;
        if !sampled {
            let t = gen(tr, || kernel.trace_block_rows(0, blocks));
            runtime += exec(tr, &mut cpu, t, mem, Time::ZERO).elapsed;
        } else {
            let t = gen(tr, || kernel.trace_block_rows(0, 1));
            let warm = exec(tr, &mut cpu, t, mem, Time::ZERO);
            let t = gen(tr, || kernel.trace_block_rows(1, 2));
            let measured = exec(tr, &mut cpu, t, mem, warm.finished_at);
            runtime += measured.elapsed * blocks as u64;
        }
        measurement(n, kernel.flops_total(), runtime, sampled)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_stay_in_their_regimes_and_tiles_divide_them() {
        assert!(FULL.l2_sizes.iter().all(|&n| n <= FULL_SIM_LIMIT));
        assert!(FULL.tlb_sizes.iter().all(|&n| n > FULL_SIM_LIMIT));
        for (point, label) in points(Workload::MatmultL2, &FULL) {
            if let Point::MatMult {
                n,
                kind: Kind::Blocked(tile),
                ..
            } = point
            {
                assert_eq!(n % tile, 0, "{label}");
            }
        }
    }

    #[test]
    fn labels_are_unique() {
        for w in Workload::ALL {
            let points = points(w, &FULL);
            let mut labels: Vec<_> = points.iter().map(|(_, l)| l.as_str()).collect();
            labels.sort_unstable();
            labels.dedup();
            assert_eq!(
                labels.len(),
                points.len(),
                "{}: labels are unique",
                w.name()
            );
        }
    }
}
