//! The traced run's span recorder and the per-layer metrics computed
//! from it. Spans live in a preallocated `Vec` and are written out when
//! the run ends; nothing here runs in an untraced pass.

use crate::stats::ratio;
use pm_mem::hierarchy::{Access, HierarchyConfig, MemorySystem};
use pm_sim::time::Time;
use std::time::Instant;

/// A layer boundary the benchmark records a span around.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// One workload set-up (root of the set-up spans).
    Setup,
    /// `pm-workloads` `TrafficGen` building the worm batches.
    TrafficGen,
    /// `pm-net` `Topology::system1024` + `RouteSim::new`.
    NetSetup,
    /// `pm-net` `FaultPlan` construction and `validate`.
    FaultPlan,
    /// The untimed warm-up point.
    Warmup,
    /// One benchmark point (root of the per-point spans).
    Point,
    /// `pm-workloads` trace generation.
    TraceGen,
    /// `pm-cpu` `Cpu::execute_at`.
    Cpu,
    /// `pm-cpu` `run_smp_at`.
    Smp,
    /// `pm-mem` `with_node_mem` handing out a cold `MemorySystem`.
    Provision,
    /// The same references replayed through `MemorySystem::access`
    /// (instrumentation: excluded from the point's time).
    MemReplay,
    /// `pm-net` `RouteSim::run` / `run_resilient`.
    Net,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Setup => "setup",
            Layer::TrafficGen => "trafficgen",
            Layer::NetSetup => "net.setup",
            Layer::FaultPlan => "fault.plan",
            Layer::Warmup => "warmup",
            Layer::Point => "point",
            Layer::TraceGen => "tracegen",
            Layer::Cpu => "cpu",
            Layer::Smp => "smp",
            Layer::Provision => "mem.provision",
            Layer::MemReplay => "mem.replay",
            Layer::Net => "net",
        }
    }
}

/// Point id of spans outside any point (set-up).
pub const NO_POINT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub point: u32,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Work counted at the layer boundaries of the traced passes.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    pub traced_passes: u64,
    pub trace_instrs: u64,
    pub peak_trace_bytes: u64,
    pub traffic_msgs: u64,
    pub cpu_instrs: u64,
    pub cpu_cycles: u64,
    pub provisions: u64,
    pub mem_accesses: u64,
    pub l1_misses: u64,
    pub l2_lookups: u64,
    pub l2_misses: u64,
    pub tlb_misses: u64,
    pub dram: u64,
    pub bus_wait_ps: u64,
    pub worms: u64,
    pub transmissions: u64,
    pub delivered: u64,
    pub conflicts: u64,
    pub detours: u64,
    pub peak_inflight: u64,
    pub severed: u64,
    pub failed_opens: u64,
    pub quarantines: u64,
    pub forced_reprobes: u64,
    pub watchdog_scans: u64,
    pub recoveries: u64,
}

/// Spans this many deep are never reallocated mid-run.
const SPAN_CAPACITY: usize = 1 << 16;

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    pub point: u32,
    pub counts: Counts,
    replay: Option<MemorySystem>,
    replay_at: [Time; 2],
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(SPAN_CAPACITY),
            stack: Vec::new(),
            point: NO_POINT,
            counts: Counts::default(),
            replay: None,
            replay_at: [Time::ZERO; 2],
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; spans nest, and each must be closed with [`Tracer::end`].
    pub fn begin(&mut self, layer: Layer) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            layer,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            point: self.point,
        });
        self.stack.push(id);
        id
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
        assert_eq!(
            self.stack.pop(),
            Some(id),
            "spans must close innermost first"
        );
    }

    pub fn span<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let id = self.begin(layer);
        let r = f();
        self.end(id);
        r
    }

    /// Starts a point's memory replay on a cold instance shaped `config`,
    /// first folding the previous point's counters into [`Counts`].
    pub fn replay_reset(&mut self, config: HierarchyConfig) {
        let id = self.begin(Layer::MemReplay);
        self.fold_replay_counts();
        match &mut self.replay {
            Some(m) => m.reset_to(config),
            None => self.replay = Some(MemorySystem::new(config)),
        }
        self.replay_at = [Time::ZERO; 2];
        self.end(id);
    }

    /// Replays the memory references of `instrs` on port `cpu`, each
    /// issued when the previous one completes.
    pub fn replay<'a>(&mut self, cpu: usize, instrs: impl IntoIterator<Item = &'a pm_isa::Instr>) {
        let id = self.begin(Layer::MemReplay);
        let mem = self.replay.as_mut().expect("replay_reset opens each point");
        let mut t = self.replay_at[cpu];
        let mut n = 0;
        for m in instrs.into_iter().filter_map(|i| i.mem) {
            let access = match m.kind {
                pm_isa::MemKind::Read => Access::read(m.addr.0),
                pm_isa::MemKind::Write => Access::write(m.addr.0),
            };
            t = mem.access(cpu, access, t).done_at;
            n += 1;
        }
        self.replay_at[cpu] = t;
        self.counts.mem_accesses += n;
        self.end(id);
    }

    /// Folds the last point's replay counters into [`Counts`]; call once
    /// after the last traced point.
    pub fn finish_replay(&mut self) {
        self.fold_replay_counts();
        self.replay = None;
    }

    fn fold_replay_counts(&mut self) {
        let Some(mem) = &self.replay else { return };
        let c = &mut self.counts;
        for cpu in 0..mem.cpu_count() {
            c.l1_misses += mem.l1_stats(cpu).misses;
            let l2 = mem.l2_stats(cpu);
            c.l2_lookups += l2.hits + l2.misses;
            c.l2_misses += l2.misses;
            c.tlb_misses += mem.tlb_stats(cpu).misses;
        }
        c.dram += mem.dram_accesses();
        let bus = mem.bus_stats();
        c.bus_wait_ps += (bus.addr_wait + bus.data_wait).as_ps();
    }

    /// Total seconds of the spans of `layer` inside points (`in_points`)
    /// or in set-up.
    fn secs(&self, layer: Layer, in_points: bool) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && (s.point != NO_POINT) == in_points)
            .fold(0.0, |sum, s| sum + s.secs())
    }

    /// Spans as CSV: `span,layer,start_ns,end_ns,parent,point`.
    pub fn csv(&self) -> String {
        let mut out = String::from("span,layer,start_ns,end_ns,parent,point\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            let point = if s.point == NO_POINT {
                String::new()
            } else {
                s.point.to_string()
            };
            out += &format!(
                "{i},{},{},{},{parent},{point}\n",
                s.layer.name(),
                s.start_ns,
                s.end_ns
            );
        }
        out
    }

    /// The per-layer metrics, per traced pass. Layer times are shares so
    /// that every metric is defined on every workload: shares of the
    /// traced point time (replay excluded) or of the set-up time.
    /// `untraced_wall_s` is the median untraced pass time of the same run.
    pub fn layer_metrics(&self, untraced_wall_s: f64) -> Vec<(&'static str, f64, &'static str)> {
        let c = &self.counts;
        let passes = c.traced_passes.max(1) as f64;
        let per_pass = |x: u64| x as f64 / passes;
        let replay = self.secs(Layer::MemReplay, true);
        let point = self.secs(Layer::Point, true) - replay;
        let gen = self.secs(Layer::TraceGen, true);
        let cpu = self.secs(Layer::Cpu, true);
        let smp = self.secs(Layer::Smp, true);
        let provision = self.secs(Layer::Provision, true);
        let net = self.secs(Layer::Net, true);
        let core_self = point - gen - cpu - smp - provision - net;
        let setup = self.secs(Layer::Setup, false);
        let engine = cpu + smp;
        let point_per_pass = point / passes;
        vec![
            ("point.busy_s", point_per_pass, "s"),
            ("point.self_frac", ratio(core_self, point), "ratio"),
            (
                "trace.overhead_frac",
                ratio(point_per_pass - untraced_wall_s, untraced_wall_s),
                "ratio",
            ),
            ("tracegen.frac", ratio(gen, point), "ratio"),
            ("tracegen.instrs", per_pass(c.trace_instrs), "count"),
            (
                "tracegen.minstr_per_s",
                ratio(c.trace_instrs as f64 / 1e6, gen),
                "Minstr/s",
            ),
            (
                "tracegen.peak_trace_mb",
                c.peak_trace_bytes as f64 / (1 << 20) as f64,
                "MiB",
            ),
            (
                "trafficgen.setup_frac",
                ratio(self.secs(Layer::TrafficGen, false), setup),
                "ratio",
            ),
            ("trafficgen.msgs", c.traffic_msgs as f64, "count"),
            ("cpu.frac", ratio(cpu, point), "ratio"),
            ("smp.frac", ratio(smp, point), "ratio"),
            ("cpu.self_frac", ratio(engine - replay, point), "ratio"),
            ("cpu.instrs", per_pass(c.cpu_instrs), "count"),
            (
                "cpu.minstr_per_s",
                ratio(c.cpu_instrs as f64 / 1e6, engine),
                "Minstr/s",
            ),
            (
                "cpu.sim_cpi",
                ratio(c.cpu_cycles as f64, c.cpu_instrs as f64),
                "ratio",
            ),
            ("mem.replay_frac", ratio(replay, engine), "ratio"),
            ("mem.accesses", per_pass(c.mem_accesses), "count"),
            (
                "mem.maccess_per_s",
                ratio(c.mem_accesses as f64 / 1e6, replay),
                "Maccess/s",
            ),
            (
                "mem.l1_miss_ratio",
                ratio(c.l1_misses as f64, c.mem_accesses as f64),
                "ratio",
            ),
            (
                "mem.l2_miss_ratio",
                ratio(c.l2_misses as f64, c.l2_lookups as f64),
                "ratio",
            ),
            (
                "mem.tlb_miss_ratio",
                ratio(c.tlb_misses as f64, c.mem_accesses as f64),
                "ratio",
            ),
            (
                "mem.dram_per_kaccess",
                ratio(1e3 * c.dram as f64, c.mem_accesses as f64),
                "per-kaccess",
            ),
            (
                "mem.bus_wait_ns_per_access",
                ratio(c.bus_wait_ps as f64 / 1e3, c.mem_accesses as f64),
                "sim-ns",
            ),
            ("mem.provision_frac", ratio(provision, point), "ratio"),
            ("mem.provisions", per_pass(c.provisions), "count"),
            (
                "net.setup_frac",
                ratio(self.secs(Layer::NetSetup, false), setup),
                "ratio",
            ),
            (
                "fault.plan_frac",
                ratio(self.secs(Layer::FaultPlan, false), setup),
                "ratio",
            ),
            ("net.frac", ratio(net, point), "ratio"),
            ("net.worms", per_pass(c.worms), "count"),
            (
                "net.kworm_per_s",
                ratio(c.worms as f64 / 1e3, net),
                "kworm/s",
            ),
            (
                "net.conflicts_per_worm",
                ratio(c.conflicts as f64, c.worms as f64),
                "ratio",
            ),
            (
                "net.detour_ratio",
                ratio(c.detours as f64, c.worms as f64),
                "ratio",
            ),
            ("net.peak_inflight", c.peak_inflight as f64, "count"),
            (
                "net.tx_per_worm",
                ratio(c.transmissions as f64, c.worms as f64),
                "ratio",
            ),
            (
                "net.delivery_yield",
                ratio(c.delivered as f64, c.transmissions as f64),
                "ratio",
            ),
            ("net.severed", per_pass(c.severed), "count"),
            ("net.failed_opens", per_pass(c.failed_opens), "count"),
            ("net.quarantines", per_pass(c.quarantines), "count"),
            ("net.forced_reprobes", per_pass(c.forced_reprobes), "count"),
            ("net.watchdog_scans", per_pass(c.watchdog_scans), "count"),
            ("net.recoveries", per_pass(c.recoveries), "count"),
        ]
    }
}
