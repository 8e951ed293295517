//! One runner per paper artefact, plus the ablations the prose motivates.
//!
//! Each experiment regenerates the data behind one table or figure of
//! the paper's evaluation (§5) as a [`Figure`] or [`Table`]. The
//! [`all_experiments`] registry is what the `figures` binary in
//! `pm-bench` iterates over.

use crate::hintrun::run_hint;
use crate::matmultrun::{measure_blocked, measure_single, speedup};
use crate::systems::{self};
use pm_comm::baselines::LoggpModel;
use pm_comm::config::CommConfig;
use pm_comm::driver;
use pm_comm::mpi::MpiWorld;
use pm_cpu::run_smp;
use pm_mem::MemorySystem;
use pm_net::crossbar::CrossbarConfig;
use pm_net::network::{Network, RouteBackpressure};
use pm_net::routesim::{self, Backpressure, RoutePolicy, RouteSim};
use pm_net::topology::{LinkKind, Topology};
use pm_sim::metrics::MetricRegistry;
use pm_sim::par::par_sweep;
use pm_sim::stats::{Figure, Series, Table};
use pm_sim::time::Time;
use pm_workloads::hint::HintType;
use pm_workloads::matmult::MatMultVersion;
use pm_workloads::stream;

/// A produced artefact: one figure or one table.
#[derive(Clone, Debug, PartialEq)]
pub enum Artifact {
    /// A multi-series figure.
    Figure(Figure),
    /// A table.
    Table(Table),
}

impl Artifact {
    /// The artefact's identifier.
    pub fn id(&self) -> &str {
        match self {
            Artifact::Figure(f) => f.id(),
            Artifact::Table(t) => t.id(),
        }
    }

    /// Renders to CSV.
    pub fn to_csv(&self) -> String {
        match self {
            Artifact::Figure(f) => f.to_csv(),
            Artifact::Table(t) => t.to_csv(),
        }
    }

    /// Renders to markdown.
    pub fn to_markdown(&self) -> String {
        match self {
            Artifact::Figure(f) => f.to_markdown(),
            Artifact::Table(t) => t.to_markdown(),
        }
    }
}

/// A registered experiment.
pub struct Experiment {
    /// Short id used on the command line (`table1`, `fig9`, …).
    pub id: &'static str,
    /// The paper artefact it reproduces.
    pub title: &'static str,
    /// Runs the experiment. `quick` shrinks sweeps for CI/tests.
    /// Every run gets its own [`MetricRegistry`]: experiments with
    /// internal counter ledgers (X14's detection/recovery trees)
    /// publish them here, and the bundle writer dumps each registry to
    /// `out/<id>_metrics.csv` beside the artefact.
    pub run: fn(quick: bool, metrics: &mut MetricRegistry) -> Artifact,
}

/// Every experiment, in paper order.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "table1",
            title: "Table 1 — configuration of test systems",
            run: |_, _| Artifact::Table(systems::table1()),
        },
        Experiment {
            id: "fig6a",
            title: "Figure 6a — HINT DOUBLE, QUIPS over time",
            run: |quick, _| Artifact::Figure(fig6(HintType::Double, quick)),
        },
        Experiment {
            id: "fig6b",
            title: "Figure 6b — HINT INT, QUIPS over time",
            run: |quick, _| Artifact::Figure(fig6(HintType::Int, quick)),
        },
        Experiment {
            id: "fig7a",
            title: "Figure 7a — MatMult naive, single CPU, MFLOPS",
            run: |quick, _| Artifact::Figure(fig7(MatMultVersion::Naive, quick)),
        },
        Experiment {
            id: "fig7b",
            title: "Figure 7b — MatMult transposed, single CPU, MFLOPS",
            run: |quick, _| Artifact::Figure(fig7(MatMultVersion::Transposed, quick)),
        },
        Experiment {
            id: "fig8a",
            title: "Figure 8a — MatMult naive, dual-CPU speedup",
            run: |quick, _| Artifact::Figure(fig8(MatMultVersion::Naive, quick)),
        },
        Experiment {
            id: "fig8b",
            title: "Figure 8b — MatMult transposed, dual-CPU speedup",
            run: |quick, _| Artifact::Figure(fig8(MatMultVersion::Transposed, quick)),
        },
        Experiment {
            id: "fig9",
            title: "Figure 9 — one-way latency vs message size",
            run: |quick, _| Artifact::Figure(fig9(quick)),
        },
        Experiment {
            id: "fig10",
            title: "Figure 10 — send time at network saturation (gap)",
            run: |quick, _| Artifact::Figure(fig10(quick)),
        },
        Experiment {
            id: "fig11",
            title: "Figure 11 — unidirectional bandwidth",
            run: |quick, _| Artifact::Figure(fig11(quick)),
        },
        Experiment {
            id: "fig12",
            title: "Figure 12 — simultaneous bidirectional bandwidth",
            run: |quick, _| Artifact::Figure(fig12(quick)),
        },
        Experiment {
            id: "scale4",
            title: "X1 — node scaling to four CPUs (design-study claim, §2)",
            run: |quick, _| Artifact::Figure(x1_scale4(quick)),
        },
        Experiment {
            id: "routing",
            title: "X2 — connection setup vs crossbars on path (§3.1)",
            run: |_, _| Artifact::Figure(x2_routing()),
        },
        Experiment {
            id: "fifo_ablation",
            title: "X3 — bidirectional bandwidth vs NI FIFO depth (§5.2)",
            run: |quick, _| Artifact::Figure(x3_fifo(quick)),
        },
        Experiment {
            id: "duallink",
            title: "X4 — duplicated network aggregate bandwidth (§3)",
            run: |_, _| Artifact::Figure(x4_duallink()),
        },
        Experiment {
            id: "blocking",
            title: "X5 — crossbar blocking under traffic patterns (§3, flit level)",
            run: |quick, _| Artifact::Figure(x5_blocking(quick)),
        },
        Experiment {
            id: "mesh_vs_xbar",
            title: "X6 — mesh vs crossbar blocking behaviour (§3)",
            run: |quick, _| Artifact::Figure(x6_mesh_vs_xbar(quick)),
        },
        Experiment {
            id: "collectives",
            title: "X7 — MPI collective scaling over the hierarchy (§4)",
            run: |quick, _| Artifact::Figure(x7_collectives(quick)),
        },
        Experiment {
            id: "faults",
            title: "X8 — goodput vs injected fault rate (fault injection & failover)",
            run: |quick, _| Artifact::Figure(x8_faults(quick)),
        },
        Experiment {
            id: "tiling",
            title: "X9 — cache blocking vs transposition vs naive (§5.1.1 ablation)",
            run: |quick, _| Artifact::Figure(x9_tiling(quick)),
        },
        Experiment {
            id: "app_stencil",
            title: "X10 — Jacobi stencil weak scaling (the §7 application study)",
            run: |quick, _| Artifact::Figure(x10_stencil(quick)),
        },
        Experiment {
            id: "earth",
            title: "X11 — EARTH fibers hiding remote latency (§7 future work)",
            run: |quick, _| Artifact::Figure(x11_earth(quick)),
        },
        Experiment {
            id: "traffic",
            title: "X12 — offered load vs goodput collapse per topology",
            run: |quick, _| Artifact::Figure(crate::traffic::x12_figure(quick)),
        },
        Experiment {
            id: "hierarchy",
            title: "X13 — 1024-node hierarchy: adaptive vs oblivious routing vs mesh",
            run: |quick, _| Artifact::Figure(crate::hierarchy::x13_figure(quick)),
        },
        Experiment {
            id: "resilience",
            title: "X14 — self-healing hierarchy: fault campaigns, oracle vs detected failover",
            run: |quick, m| Artifact::Figure(crate::resilience::x14_figure(quick, m)),
        },
    ]
}

/// Looks up an experiment by id.
pub fn find(id: &str) -> Option<Experiment> {
    all_experiments().into_iter().find(|e| e.id == id)
}

// --- Figure 6: HINT ---------------------------------------------------

fn fig6(dtype: HintType, quick: bool) -> Figure {
    let label = match dtype {
        HintType::Double => "fig6a (HINT DOUBLE)",
        HintType::Int => "fig6b (HINT INT)",
    };
    let max_mem: u64 = if quick { 1 << 17 } else { 24 << 20 };
    let mut fig = Figure::new(label, "time [s]", "QUIPS");
    // One sweep point per test system: the HINT runs dominate the full
    // bundle, so they fan out across whatever cores the pool has free.
    for series in par_sweep(systems::all_nodes(), |sys| {
        run_hint(&sys, dtype, max_mem).to_series()
    }) {
        fig.add_series(series);
    }
    fig
}

// --- Figure 7: MatMult single CPU --------------------------------------

fn matmult_sizes(quick: bool) -> Vec<usize> {
    if quick {
        vec![32, 64, 128]
    } else {
        vec![32, 48, 64, 96, 128, 192, 256, 320, 384, 512]
    }
}

/// Sweeps every `(system, N)` pair through `point` across the worker
/// pool and assembles one series per system, points in size order.
fn matmult_figure(
    label: &str,
    ylabel: &str,
    quick: bool,
    point: impl Fn(&systems::System, usize) -> f64 + Sync,
) -> Figure {
    // The paper uses the clock-matched Pentium for Figures 7 and 8.
    let machines = [
        systems::powermanna(),
        systems::sun_ultra(),
        systems::pentium_180(),
    ];
    let sizes = matmult_sizes(quick);
    let pairs: Vec<(&systems::System, usize)> = machines
        .iter()
        .flat_map(|sys| sizes.iter().map(move |&n| (sys, n)))
        .collect();
    let values = par_sweep(pairs, |(sys, n)| point(sys, n));
    let mut fig = Figure::new(label, "matrix size N", ylabel);
    let mut values = values.into_iter();
    for sys in &machines {
        let mut s = Series::new(sys.name);
        for &n in &sizes {
            s.push(n as f64, values.next().expect("one value per (system, N)"));
        }
        fig.add_series(s);
    }
    fig
}

fn fig7(version: MatMultVersion, quick: bool) -> Figure {
    let label = match version {
        MatMultVersion::Naive => "fig7a (MatMult naive)",
        MatMultVersion::Transposed => "fig7b (MatMult transposed)",
    };
    matmult_figure(label, "MFLOPS", quick, |sys, n| {
        measure_single(sys, n, version).mflops
    })
}

// --- Figure 8: dual-CPU speedup ----------------------------------------

fn fig8(version: MatMultVersion, quick: bool) -> Figure {
    let label = match version {
        MatMultVersion::Naive => "fig8a (MatMult naive speedup)",
        MatMultVersion::Transposed => "fig8b (MatMult transposed speedup)",
    };
    matmult_figure(label, "dual-CPU speedup", quick, |sys, n| {
        speedup(sys, n, version)
    })
}

// --- Figures 9-12: communication ---------------------------------------

fn message_sizes(quick: bool) -> Vec<u32> {
    if quick {
        vec![8, 256, 4096]
    } else {
        vec![
            4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 65536,
        ]
    }
}

fn comm_config() -> CommConfig {
    systems::powermanna()
        .comm
        .expect("PowerMANNA has a comm stack")
}

/// Sweeps every message size through `point` — which returns the
/// `[PowerMANNA, BIP, FM]` values for that size — across the worker
/// pool, and assembles the three comparison series.
fn comm_figure(
    title: &str,
    ylabel: &str,
    quick: bool,
    point: impl Fn(&CommConfig, u32) -> [f64; 3] + Sync,
) -> Figure {
    let cfg = comm_config();
    let sizes = message_sizes(quick);
    let values = par_sweep(sizes.clone(), |n| point(&cfg, n));
    let mut fig = Figure::new(title, "message size [byte]", ylabel);
    for (k, name) in ["PowerMANNA", "BIP", "FM"].into_iter().enumerate() {
        let mut s = Series::new(name);
        for (&n, v) in sizes.iter().zip(&values) {
            s.push(n as f64, v[k]);
        }
        fig.add_series(s);
    }
    fig
}

fn fig9(quick: bool) -> Figure {
    comm_figure("fig9 (one-way latency)", "latency [us]", quick, |cfg, n| {
        [
            driver::one_way_latency(cfg, n).as_us_f64(),
            LoggpModel::bip().one_way_latency(n).as_us_f64(),
            LoggpModel::fm().one_way_latency(n).as_us_f64(),
        ]
    })
}

fn fig10(quick: bool) -> Figure {
    comm_figure(
        "fig10 (send time at saturation)",
        "gap [us]",
        quick,
        |cfg, n| {
            [
                driver::gap_at_saturation(cfg, n).as_us_f64(),
                LoggpModel::bip().gap(n).as_us_f64(),
                LoggpModel::fm().gap(n).as_us_f64(),
            ]
        },
    )
}

fn fig11(quick: bool) -> Figure {
    comm_figure(
        "fig11 (unidirectional bandwidth)",
        "bandwidth [Mbyte/s]",
        quick,
        |cfg, n| {
            [
                driver::unidirectional_bandwidth(cfg, n),
                LoggpModel::bip().unidirectional_bandwidth(n),
                LoggpModel::fm().unidirectional_bandwidth(n),
            ]
        },
    )
}

fn fig12(quick: bool) -> Figure {
    comm_figure(
        "fig12 (bidirectional bandwidth)",
        "aggregate bandwidth [Mbyte/s]",
        quick,
        |cfg, n| {
            [
                driver::bidirectional_bandwidth(cfg, n),
                LoggpModel::bip().bidirectional_bandwidth(n),
                LoggpModel::fm().bidirectional_bandwidth(n),
            ]
        },
    )
}

// --- Ablations ----------------------------------------------------------

/// X1: §2 claims the node design sustains four processors, the limit
/// being the sequentialised snoop address phases, not memory bandwidth.
/// We scale a memory-streaming workload across 1–4 CPUs.
fn x1_scale4(quick: bool) -> Figure {
    let mut fig = Figure::new(
        "x1 (node scaling)",
        "CPUs",
        "aggregate bandwidth speedup vs 1 CPU",
    );
    let lines_per_cpu: u64 = if quick { 512 } else { 4096 };
    let sys = systems::powermanna();
    let mut s = Series::new("PowerMANNA (ADSP, split transactions)");
    let base = run_smp(
        std::slice::from_ref(&sys.node.cpu),
        vec![stream::triad(0, lines_per_cpu as usize * 8)],
        &mut MemorySystem::new(sys.node.mem),
    )[0]
    .elapsed
    .as_secs_f64();
    for cpus in 1..=4usize {
        let cfg = {
            let mut c = sys.node.mem;
            c.cpus = cpus;
            c
        };
        let configs = vec![sys.node.cpu.clone(); cpus];
        let traces = (0..cpus)
            .map(|i| stream::triad((i as u64) << 28, lines_per_cpu as usize * 8))
            .collect();
        let results = run_smp(&configs, traces, &mut MemorySystem::new(cfg));
        let slowest = results
            .iter()
            .map(|r| r.elapsed.as_secs_f64())
            .fold(0.0f64, f64::max);
        // Aggregate throughput speedup: total work grew with cpus.
        s.push(cpus as f64, cpus as f64 * base / slowest);
    }
    fig.add_series(s);
    fig
}

/// X2: §3.1's 0.2 µs through-routing, across 1–3 crossbars (intra-cluster
/// vs the worst case of the 256-processor system).
fn x2_routing() -> Figure {
    let mut fig = Figure::new(
        "x2 (route setup)",
        "crossbars on path",
        "connection setup [us]",
    );
    let mut s = Series::new("PowerMANNA route setup");
    // 1 crossbar: two nodes in a cluster. An intra-cluster pair of the
    // 256-processor system crosses the same one crossbar.
    let mut cluster = Network::new(Topology::cluster8());
    let c1 = cluster.open(0, 5, 0, Time::ZERO).expect("cluster route");
    s.push(1.0, c1.ready_at().as_us_f64());
    // 3 crossbars: across the 256-processor system.
    let mut big = Network::new(Topology::system256());
    let far = big.open(8, 127, 0, Time::ZERO).expect("inter-cluster");
    s.push(far.route().crossbars() as f64, far.ready_at().as_us_f64());
    fig.add_series(s);
    fig
}

/// X3: §5.2's suggested fix — deeper NI FIFOs recover the bidirectional
/// bandwidth of Figure 12.
fn x3_fifo(quick: bool) -> Figure {
    let mut fig = Figure::new(
        "x3 (NI FIFO depth ablation)",
        "FIFO depth [x 256 byte]",
        "aggregate bidirectional bandwidth [Mbyte/s]",
    );
    let msg: u32 = if quick { 4096 } else { 16384 };
    let mut s = Series::new("PowerMANNA bidirectional");
    let factors = vec![1u32, 2, 4, 8, 16];
    let bw = par_sweep(factors.clone(), |factor| {
        let cfg = comm_config().with_fifo_factor(factor);
        driver::bidirectional_bandwidth(&cfg, msg)
    });
    for (factor, bw) in factors.into_iter().zip(bw) {
        s.push(factor as f64, bw);
    }
    fig.add_series(s);
    fig
}

/// X4: the duplicated network — two link interfaces double aggregate
/// node bandwidth (the §1 claim of 240 Mbyte/s total for both
/// directions of both links).
fn x4_duallink() -> Figure {
    let mut fig = Figure::new(
        "x4 (duplicated network)",
        "network planes used",
        "aggregate bandwidth [Mbyte/s]",
    );
    let mut net = Network::new(Topology::two_nodes());
    let bytes: u64 = 1 << 20;
    let mut s = Series::new("PowerMANNA aggregate");
    // One plane, one direction.
    let mut one = net.open(0, 1, 0, Time::ZERO).expect("plane 0");
    let t1 = one.transfer(one.ready_at(), bytes).finished;
    s.push(1.0, bytes as f64 / t1.as_secs_f64() / 1e6);
    // Both planes in parallel.
    let mut a = net.open(1, 0, 0, Time::ZERO).expect("plane 0 reverse");
    let mut b = net.open(0, 1, 1, Time::ZERO).expect("plane 1");
    let ta = a.transfer(a.ready_at(), bytes).finished;
    let tb = b.transfer(b.ready_at(), bytes).finished;
    let t2 = ta.max(tb);
    s.push(2.0, 2.0 * bytes as f64 / t2.as_secs_f64() / 1e6);
    fig.add_series(s);
    fig
}

/// The 16-node single-crossbar fabric X5 and X6 run on: node `i` on
/// port `i` of one PowerMANNA crossbar, plane 0 only.
fn crossbar16() -> Topology {
    let mut topo = Topology::with_nodes(16);
    let xb = topo.add_crossbar(CrossbarConfig::powermanna());
    for nid in 0..16 {
        topo.connect_node(nid, 0, xb, nid as u32, LinkKind::Synchronous);
    }
    topo
}

/// X5: crossbar throughput under permutation, uniform-random and
/// hot-spot traffic, worm by worm through `RouteSim` on one 16x16
/// crossbar — the §3 blocking-behaviour argument, measured.
fn x5_blocking(quick: bool) -> Figure {
    let mut fig = Figure::new(
        "x5 (crossbar blocking)",
        "pattern (1=permutation, 2=uniform, 3=hotspot)",
        "aggregate throughput [Mbyte/s]",
    );
    let per_node = if quick { 8 } else { 64 };
    let payload = 512;
    let mut s = Series::new("16x16 crossbar");
    let mut s_bp = Series::new("16x16 crossbar (stalled consumers)");
    let patterns = vec![
        routesim::rotation_worms(16, per_node, payload, 1),
        routesim::uniform_random_worms(16, per_node, payload, 11),
        routesim::hotspot_worms(16, per_node, payload),
    ];
    let topo = crossbar16();
    let bt = pm_net::wire::WireConfig::synchronous().byte_time.as_ps();
    let throughput = par_sweep(patterns, move |worms| {
        // Every destination pauses for 200 of every 1000 link ticks —
        // deterministic duty-cycle backpressure that forces the stop
        // wires to pace the worms — for twice the ticks the whole batch
        // takes to cross one link, which outlasts even the hot spot's
        // serialised run.
        let batch_ticks: u64 = worms.iter().map(|w| u64::from(w.payload) + 2).sum();
        let periods = (2 * batch_ticks).div_ceil(1000);
        let bp = Backpressure {
            stop: pm_net::StopWireConfig::powermanna(),
            windows: vec![(0..periods).map(|i| (i * 1000, i * 1000 + 200)).collect(); 16],
        };
        let mut sim = RouteSim::new(&topo);
        let plain = sim.run(&worms, RoutePolicy::Oblivious).throughput_mbs();
        let stalled = sim.run_with_backpressure(&worms, &bp);
        assert!(
            stalled.finished_at <= Time::from_ps(periods * 1000 * bt),
            "X5's stall schedule ends before its stalled run does"
        );
        (plain, stalled.throughput_mbs())
    });
    for (i, (plain, stalled)) in throughput.into_iter().enumerate() {
        s.push(i as f64 + 1.0, plain);
        s_bp.push(i as f64 + 1.0, stalled);
    }
    fig.add_series(s);
    fig.add_series(s_bp);
    fig
}

/// X6: the same random pairs through a 4x4 mesh and a single 16x16
/// crossbar, built from the same link/router technology.
fn x6_mesh_vs_xbar(quick: bool) -> Figure {
    let mut fig = Figure::new("x6 (mesh vs crossbar)", "trial", "makespan [us]");
    let trials = if quick { 3 } else { 10 };
    let mut series = [
        Series::new("4x4 mesh (XY wormhole)"),
        Series::new("16x16 crossbar"),
        Series::new("4x4 mesh (blocked receivers)"),
        Series::new("16x16 crossbar (blocked receivers)"),
    ];
    let topo = crossbar16();
    // Each trial seeds its own SimRng, so trials are independent sweep
    // points and fan across the pool without changing the drawn pairs.
    let per_trial = par_sweep((0..trials).collect(), |trial| {
        let mut rng = pm_sim::rng::SimRng::seed_from(1000 + trial);
        let mut pairs = Vec::new();
        while pairs.len() < 16 {
            let a = rng.gen_range(0, 16) as usize;
            let b = rng.gen_range(0, 16) as usize;
            if a != b {
                pairs.push((a, b));
            }
        }
        let xbar = || Network::new(topo.clone());
        [
            x6_makespan_us(Network::mesh(4, 4), &pairs, false),
            x6_makespan_us(xbar(), &pairs, false),
            x6_makespan_us(Network::mesh(4, 4), &pairs, true),
            x6_makespan_us(xbar(), &pairs, true),
        ]
    });
    for (trial, makespans) in per_trial.into_iter().enumerate() {
        for (s, us) in series.iter_mut().zip(makespans) {
            s.push(trial as f64, us);
        }
    }
    for s in series {
        fig.add_series(s);
    }
    fig
}

/// X6's makespan in µs: each of `pairs` opens on `net`, streams 2 KB
/// and closes before the next opens. With `blocked`, each receiver
/// pauses for the first 1500 link ticks of its transfer — the same
/// schedule on either fabric, so the comparison stays apples-to-apples
/// under backpressure.
fn x6_makespan_us(mut net: Network, pairs: &[(usize, usize)], blocked: bool) -> f64 {
    let payload = 2048;
    let bt = pm_net::wire::WireConfig::synchronous().byte_time.as_ps();
    let mut finish = Time::ZERO;
    for &(a, b) in pairs {
        // Connections close in program order, so no port is ever left
        // held — open cannot fail.
        let mut c = net.open(a, b, 0, Time::ZERO).expect("closed in order");
        let start = c.ready_at();
        let done = if blocked {
            let t0 = start.as_ps().div_ceil(bt);
            let stall = RouteBackpressure::powermanna(vec![(t0, t0 + 1500)]);
            c.transfer_backpressured(start, payload, &stall).finished
        } else {
            c.transfer(start, payload).finished
        };
        c.close(&mut net, done);
        finish = finish.max(done);
    }
    finish.as_us_f64()
}

/// X7: MPI collective completion times across system sizes — the §4
/// software stack exercising the cluster hierarchy (intra-cluster pairs
/// pay one crossbar, inter-cluster pairs three).
fn x7_collectives(quick: bool) -> Figure {
    let mut fig = Figure::new("x7 (MPI collectives)", "ranks", "completion time [us]");
    let sizes: &[usize] = if quick {
        &[2, 8, 32]
    } else {
        &[2, 4, 8, 16, 32, 64, 128]
    };
    let cfg = comm_config();
    let mut barrier = Series::new("barrier");
    let mut bcast = Series::new("bcast 1KB");
    let mut allreduce = Series::new("allreduce 1KB");
    let per_size = par_sweep(sizes.to_vec(), |n| {
        let mut w = MpiWorld::new(n, cfg);
        let t_barrier = w.barrier().as_us_f64();
        let mut w = MpiWorld::new(n, cfg);
        let t_bcast = w.bcast(0, 1024).as_us_f64();
        let mut w = MpiWorld::new(n, cfg);
        let t_allreduce = w.allreduce(1024).as_us_f64();
        (t_barrier, t_bcast, t_allreduce)
    });
    for (&n, (t_barrier, t_bcast, t_allreduce)) in sizes.iter().zip(per_size) {
        barrier.push(n as f64, t_barrier);
        bcast.push(n as f64, t_bcast);
        allreduce.push(n as f64, t_allreduce);
    }
    fig.add_series(barrier);
    fig.add_series(bcast);
    fig.add_series(allreduce);
    fig
}

/// X8: goodput under injected faults — the duplicated network earning
/// its keep. Three series over the transient fault rate: a clean
/// reference, transient corruption recovered by CRC + retransmission,
/// and the same with a plane-0 link killed mid-run so every later
/// transfer fails over to the secondary plane (240 → 120 Mbyte/s).
fn x8_faults(quick: bool) -> Figure {
    let mut fig = Figure::new(
        "x8 (goodput vs fault rate)",
        "injected transient fault rate",
        "goodput [Mbyte/s]",
    );
    let rates: &[f64] = if quick {
        &[0.0, 0.2, 0.4]
    } else {
        &[0.0, 0.02, 0.05, 0.1, 0.2, 0.4]
    };
    let per_rate = par_sweep(rates.to_vec(), move |rate| {
        (
            x8_goodput(quick, 0.0, false),
            x8_goodput(quick, rate, false),
            x8_goodput(quick, rate, true),
        )
    });
    let mut clean = Series::new("clean (duplicated network)");
    let mut transient = Series::new("transient faults + retransmission");
    let mut degraded = Series::new("one plane dead + failover");
    for (&rate, (c, tr, dg)) in rates.iter().zip(per_rate) {
        clean.push(rate, c);
        transient.push(rate, tr);
        degraded.push(rate, dg);
    }
    fig.add_series(clean);
    fig.add_series(transient);
    fig.add_series(degraded);
    fig
}

/// One X8 measurement: two worm streams from node 0 to node 1, one
/// queued on each of node 0's link interfaces at t = 0, driven through
/// [`RouteSim::run_resilient`] with detected failover under a seeded
/// fault plan; returns goodput in Mbyte/s. `kill_plane0` adds a
/// scheduled death of node 0's plane-0 link mid-run.
fn x8_goodput(quick: bool, rate: f64, kill_plane0: bool) -> f64 {
    use pm_net::fault::{FaultPlan, LinkRef};
    use pm_net::routesim::{ResilienceConfig, RouteSim, Worm};

    let (messages, payload) = if quick { (16, 4096) } else { (64, 16384) };
    let kill_at = if quick {
        Time::from_ps(150_000_000) // 150 us: after ~2 worms per plane
    } else {
        Time::from_ps(2_000_000_000) // 2 ms: about a quarter through
    };
    let mut plan = FaultPlan::clean(0xFA17)
        .with_transient_rate(rate)
        .expect("sweep rates are in range");
    if kill_plane0 {
        plan = plan.kill_link(kill_at, LinkRef::NodeLink { node: 0, plane: 0 });
    }
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
    r.stats.delivered_bytes as f64 / r.finished_at.as_secs_f64() / 1e6
}

/// X11: EARTH-style split-phase multithreading — remote-operation
/// throughput vs fiber count (the §7 latency-tolerance claim).
fn x11_earth(quick: bool) -> Figure {
    use pm_comm::earth::{tolerance_curve, EarthConfig};
    let mut fig = Figure::new(
        "x11 (EARTH latency tolerance)",
        "fibers",
        "remote ops [Mops/s]",
    );
    let max_fibers = if quick { 6 } else { 16 };
    let curve = tolerance_curve(
        &EarthConfig::powermanna(),
        &comm_config(),
        max_fibers,
        pm_sim::time::Duration::from_ns(500),
        64,
    );
    let mut s = Series::new("PowerMANNA + EARTH fibers");
    for (f, mops) in curve {
        s.push(f as f64, mops);
    }
    fig.add_series(s);
    fig
}

/// X9: the software fix the paper did not take — tiles vs the paper's
/// transposition vs the naive loop, on PowerMANNA across sizes.
fn x9_tiling(quick: bool) -> Figure {
    let mut fig = Figure::new(
        "x9 (blocking ablation)",
        "matrix size N",
        "MFLOPS (PowerMANNA)",
    );
    let sizes: &[usize] = if quick {
        &[64, 128]
    } else {
        &[64, 128, 256, 384, 512]
    };
    let pm = systems::powermanna();
    let mut naive = Series::new("naive");
    let mut transposed = Series::new("transposed");
    let mut blocked = Series::new("blocked 32x32");
    for &n in sizes {
        naive.push(
            n as f64,
            measure_single(&pm, n, MatMultVersion::Naive).mflops,
        );
        transposed.push(
            n as f64,
            measure_single(&pm, n, MatMultVersion::Transposed).mflops,
        );
        blocked.push(n as f64, measure_blocked(&pm, n, 32).mflops);
    }
    fig.add_series(naive);
    fig.add_series(transposed);
    fig.add_series(blocked);
    fig
}

/// X10: the application study §7 defers — a 5-point Jacobi slab per
/// node (compute through the node timing model) plus per-iteration halo
/// exchanges (through the MPI layer). Weak scaling: the slab stays
/// constant per node, so efficiency = one-node iteration time over the
/// n-node iteration time.
fn x10_stencil(quick: bool) -> Figure {
    use pm_workloads::stencil::Stencil;
    let mut fig = Figure::new("x10 (stencil weak scaling)", "nodes", "parallel efficiency");
    let width = if quick { 128 } else { 512 };
    let rows = if quick { 32 } else { 128 };
    let stencil = Stencil::new(width, rows);
    let sys = systems::powermanna();

    // Per-node compute time for one sweep: warm once, measure the next
    // sweep (the slab stays cached across iterations where it fits).
    let mem = &mut MemorySystem::new(sys.node.mem);
    let mut cpu = pm_cpu::Cpu::new(sys.node.cpu.clone());
    let warm = cpu.execute_at(stencil.sweep_rows(0, rows), mem, 0, Time::ZERO);
    let compute = cpu
        .execute_at(stencil.sweep_rows(0, rows), mem, 0, warm.finished_at)
        .elapsed;

    let cfg = comm_config();
    let mut s = Series::new("PowerMANNA, 512x128 slab/node");
    let sizes: &[usize] = if quick {
        &[1, 4, 16]
    } else {
        &[1, 2, 4, 8, 16, 32, 64]
    };
    for &n in sizes {
        let comm = if n == 1 {
            pm_sim::time::Duration::ZERO
        } else {
            let mut world = MpiWorld::new(n, cfg);
            world.halo_exchange(stencil.halo_bytes())
        };
        let per_iter = compute + comm;
        let efficiency = compute.as_secs_f64() / per_iter.as_secs_f64();
        s.push(n as f64, efficiency);
    }
    fig.add_series(s);
    fig
}

/// Key "shape" assertions the reproduction must satisfy, used by the
/// integration tests and EXPERIMENTS.md: each returns (check name,
/// passed, detail).
pub fn headline_checks() -> Vec<(String, bool, String)> {
    let mut out = Vec::new();
    let cfg = comm_config();

    let lat8 = driver::one_way_latency(&cfg, 8).as_us_f64();
    out.push((
        "fig9: PowerMANNA 8-byte one-way ≈ 2.75 us".into(),
        (2.3..3.2).contains(&lat8),
        format!("measured {lat8:.2} us (paper: 2.75)"),
    ));
    let bip8 = LoggpModel::bip().one_way_latency(8).as_us_f64();
    let fm8 = LoggpModel::fm().one_way_latency(8).as_us_f64();
    out.push((
        "fig9: PowerMANNA beats BIP (6.4) and FM (9.2) at 8 bytes".into(),
        lat8 < bip8 && bip8 < fm8,
        format!("PM {lat8:.2} / BIP {bip8:.2} / FM {fm8:.2} us"),
    ));

    let uni = driver::unidirectional_bandwidth(&cfg, 65536);
    out.push((
        "fig11: PowerMANNA saturates at ~60 Mbyte/s single link".into(),
        (50.0..61.0).contains(&uni),
        format!("measured {uni:.1} Mbyte/s"),
    ));
    let bip_big = LoggpModel::bip().unidirectional_bandwidth(1 << 20);
    out.push((
        "fig11: Myrinet/BIP exceeds PowerMANNA for large messages".into(),
        bip_big > uni,
        format!("BIP {bip_big:.1} vs PM {uni:.1} Mbyte/s"),
    ));

    let bi = driver::bidirectional_bandwidth(&cfg, 16384);
    out.push((
        "fig12: bidirectional falls short of 2x unidirectional".into(),
        bi < 1.7 * uni,
        format!("bidirectional {bi:.1} vs 2x{uni:.1} Mbyte/s"),
    ));

    let s_pm = speedup(&systems::powermanna(), 384, MatMultVersion::Naive);
    let s_pc = speedup(&systems::pentium_180(), 384, MatMultVersion::Naive);
    out.push((
        "fig8: PowerMANNA speedup ~2.0; Pentium lags when memory-bound".into(),
        s_pm > 1.9 && s_pc < 1.8,
        format!("PM {s_pm:.2}, PC {s_pc:.2} at N=384 naive"),
    ));

    let pm = systems::powermanna();
    let naive = measure_single(&pm, 384, MatMultVersion::Naive).mflops;
    let trans = measure_single(&pm, 384, MatMultVersion::Transposed).mflops;
    out.push((
        "fig7: PowerMANNA naive/transposed gap large at big N".into(),
        trans / naive > 3.0,
        format!(
            "transposed {trans:.1} / naive {naive:.1} = {:.1}x",
            trans / naive
        ),
    ));

    let clean = x8_goodput(true, 0.0, false);
    let transient = x8_goodput(true, 0.2, false);
    let degraded = x8_goodput(true, 0.2, true);
    out.push((
        "x8: faults only ever cost goodput (degraded ≤ transient ≤ clean)".into(),
        degraded <= transient && transient <= clean,
        format!(
            "clean {clean:.1} / transient {transient:.1} / one-plane-dead {degraded:.1} Mbyte/s"
        ),
    ));

    let x12 = crate::traffic::x12_figure(true);
    let mut x12_ok = true;
    let mut x12_detail = String::new();
    for s in x12.series() {
        let knee = crate::traffic::collapse_knee(s.points());
        let monotone = crate::traffic::monotone_after_knee(s.points());
        x12_ok &= monotone;
        if !x12_detail.is_empty() {
            x12_detail.push_str("; ");
        }
        let (kx, ky) = s.points()[knee];
        x12_detail.push_str(&format!("{}: knee {ky:.0} MB/s @ {kx:.1}", s.name()));
        if !monotone {
            x12_detail.push_str(" NOT MONOTONE PAST KNEE");
        }
    }
    out.push((
        "x12: goodput monotone non-increasing past the collapse knee".into(),
        x12_ok,
        x12_detail,
    ));

    let x13 = crate::hierarchy::x13_figure(true);
    let ada = x13.series()[0].points();
    let obl = x13.series()[1].points();
    let knee = crate::traffic::collapse_knee(ada);
    // Past saturation the oblivious middle-0 funnel must never beat
    // the policy that spreads over all the middle crossbars (a small
    // relative slack absorbs float noise in the goodput division).
    let past_knee_ok = ada[knee..]
        .iter()
        .zip(&obl[knee..])
        .all(|(a, o)| a.1 >= o.1 * (1.0 - 1e-9));
    let (kx, ky) = ada[knee];
    out.push((
        "x13: adaptive >= oblivious goodput past the collapse knee".into(),
        past_knee_ok,
        format!(
            "adaptive knee {ky:.0} MB/s @ {kx:.1}; oblivious {:.0} MB/s there",
            obl[knee].1
        ),
    ));

    let x14 = crate::resilience::x14_figure(true, &mut MetricRegistry::new());
    let g_oracle = x14.series()[0].points();
    let g_detected = x14.series()[1].points();
    let clean = g_oracle[0].1;
    // Less knowledge can't buy goodput: detected ≤ oracle ≤ clean at
    // every campaign. The 1% slack absorbs routing noise — the two
    // modes steer worms down different surviving candidates, and the
    // resulting conflict patterns can nudge either one by a fraction of
    // a percent — without masking a real failover regression.
    let ordered = g_oracle
        .iter()
        .zip(g_detected)
        .all(|(o, d)| d.1 <= o.1 * 1.01 && o.1 <= clean * 1.01);
    out.push((
        "x14: detected ≤ oracle ≤ clean on-time goodput per campaign".into(),
        ordered,
        format!(
            "clean {clean:.0}; deaths+repairs oracle {:.0} / detected {:.0} MB/s",
            g_oracle[3].1, g_detected[3].1
        ),
    ));
    // The self-healing bar: learning the dead links from symptoms alone
    // keeps at least 80% of the oracle's goodput under every campaign.
    let recovers = g_oracle
        .iter()
        .zip(g_detected)
        .all(|(o, d)| d.1 >= 0.8 * o.1);
    out.push((
        "x14: detected failover recovers >= 80% of oracle goodput".into(),
        recovers,
        format!(
            "worst campaign ratio {:.3}",
            g_oracle
                .iter()
                .zip(g_detected)
                .map(|(o, d)| d.1 / o.1)
                .fold(f64::INFINITY, f64::min)
        ),
    ));

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs an experiment in quick mode with a throwaway registry.
    fn run_quick(id: &str) -> Artifact {
        (find(id).unwrap().run)(true, &mut MetricRegistry::new())
    }

    #[test]
    fn registry_covers_every_paper_artifact() {
        let ids: Vec<&str> = all_experiments().iter().map(|e| e.id).collect();
        for required in [
            "table1", "fig6a", "fig6b", "fig7a", "fig7b", "fig8a", "fig8b", "fig9", "fig10",
            "fig11", "fig12",
        ] {
            assert!(ids.contains(&required), "missing experiment {required}");
        }
        assert!(ids.len() >= 15, "ablations missing");
    }

    #[test]
    fn find_locates_experiments() {
        assert!(find("fig9").is_some());
        assert!(find("nope").is_none());
    }

    #[test]
    fn quick_fig9_has_three_series() {
        let Artifact::Figure(f) = run_quick("fig9") else {
            panic!("fig9 is a figure");
        };
        assert_eq!(f.series().len(), 3);
        assert!(f.series().iter().all(|s| !s.is_empty()));
    }

    #[test]
    fn quick_fig7a_orders_machines_plausibly() {
        let Artifact::Figure(f) = run_quick("fig7a") else {
            panic!("fig7a is a figure");
        };
        // All series produce positive MFLOPS.
        for s in f.series() {
            assert!(
                s.points().iter().all(|&(_, y)| y > 0.0),
                "{} has junk",
                s.name()
            );
        }
    }

    #[test]
    fn table1_artifact_renders() {
        let a = run_quick("table1");
        assert!(a.to_csv().contains("PPC620"));
        assert!(a.to_markdown().contains("PPC620"));
        assert_eq!(a.id(), "Table 1 — Configuration of test systems");
    }

    #[test]
    fn x2_routing_shows_hop_scaling() {
        let Artifact::Figure(f) = run_quick("routing") else {
            panic!("routing is a figure");
        };
        let pts = f.series()[0].points();
        // Setup grows with crossbar count.
        let one = pts.iter().find(|p| p.0 == 1.0).unwrap().1;
        let three = pts.iter().find(|p| p.0 == 3.0).unwrap().1;
        assert!(three > 2.0 * one, "3-hop {three:.2} vs 1-hop {one:.2}");
        // An intra-cluster pair of the 256-processor system sets up
        // exactly like the plotted cluster8 pair.
        let mut big = Network::new(Topology::system256());
        let near = big.open(0, 7, 0, Time::ZERO).expect("intra-cluster");
        assert_eq!(near.route().crossbars(), 1);
        assert_eq!(near.ready_at().as_us_f64(), one);
    }

    #[test]
    fn x4_duallink_doubles_bandwidth() {
        let Artifact::Figure(f) = run_quick("duallink") else {
            panic!("duallink is a figure");
        };
        let pts = f.series()[0].points();
        assert!(pts[1].1 > 1.9 * pts[0].1 * 0.98);
    }

    #[test]
    fn x8_faults_degrade_monotonically_in_kind() {
        let Artifact::Figure(f) = run_quick("faults") else {
            panic!("faults is a figure");
        };
        assert_eq!(f.series().len(), 3);
        let clean = f.series()[0].points().to_vec();
        let transient = f.series()[1].points().to_vec();
        let degraded = f.series()[2].points().to_vec();
        for ((c, t), d) in clean.iter().zip(&transient).zip(&degraded) {
            assert!(c.1 > 0.0 && t.1 > 0.0 && d.1 > 0.0);
            assert!(
                t.1 <= c.1,
                "transient {:.1} must not beat clean {:.1}",
                t.1,
                c.1
            );
            assert!(
                d.1 <= t.1,
                "plane-dead {:.1} must not beat transient {:.1}",
                d.1,
                t.1
            );
        }
        // At rate 0 the transient series equals the clean reference.
        assert_eq!(clean[0].1, transient[0].1);
        // Losing a plane costs real bandwidth even with no bit errors.
        assert!(degraded[0].1 < 0.75 * clean[0].1);
    }

    #[test]
    fn headline_checks_all_pass() {
        for (name, ok, detail) in headline_checks() {
            assert!(ok, "{name}: {detail}");
        }
    }
}
