//! Wall-clock benches of the simulator's substrate hot paths: the cache
//! hierarchy, the DRAM model, the CPU engine, the crossbar and the CRC.
//! These are the loops every experiment spends its time in.
//!
//! Built on the in-repo `tinybench` harness (no Criterion — see the
//! build policy in DESIGN.md). Run with `cargo bench -p pm-bench`;
//! tune the per-bench time budget with `PM_BENCH_BUDGET_MS`.

use pm_bench::tinybench::Runner;
use pm_comm::config::CommConfig;
use pm_comm::earth::{run_fibers, EarthConfig};
use pm_comm::mpi::MpiWorld;
use pm_cpu::{Cpu, CpuConfig};
use pm_isa::parse_kernel;
use pm_mem::{Access, HierarchyConfig, MemorySystem};
use pm_net::crossbar::{Crossbar, CrossbarConfig};
use pm_net::fifo::TimedFifo;
use pm_net::network::Network;
use pm_net::routesim::{self, RoutePolicy, RouteSim};
use pm_net::stopwire::{self, StopWireConfig};
use pm_net::topology::{LinkKind, Topology};
use pm_node::crc::crc16;
use pm_node::ni::{NiConfig, NiDirection};
use pm_sim::time::{Duration, Time};
use pm_workloads::stream;
use std::hint::black_box;

fn bench_hierarchy(r: &mut Runner) {
    let mut mem = MemorySystem::new(HierarchyConfig::mpc620_node(1));
    let w = mem.access(0, Access::read(0), Time::ZERO);
    let mut t = w.done_at;
    r.bench("hierarchy/l1_hits_4k", || {
        for _ in 0..4096 {
            let res = mem.access(0, Access::read(8), t);
            t = res.done_at;
        }
        t
    });
    r.bench("hierarchy/streaming_misses_4k", || {
        let mut mem = MemorySystem::new(HierarchyConfig::mpc620_node(1));
        let mut t = Time::ZERO;
        for i in 0..4096u64 {
            let res = mem.access(0, Access::read(i * 64), t);
            t = res.done_at;
        }
        t
    });
}

fn bench_cpu_engine(r: &mut Runner) {
    let trace = stream::triad(0, 4096);
    r.bench("cpu_engine/triad_4k_elements", || {
        let mut mem = MemorySystem::new(HierarchyConfig::mpc620_node(1));
        let mut cpu = Cpu::new(CpuConfig::mpc620());
        cpu.execute(trace.clone(), &mut mem, 0)
    });
}

fn bench_crossbar(r: &mut Runner) {
    let mut xb = Crossbar::new(CrossbarConfig::powermanna());
    let mut t = Time::ZERO;
    r.bench("crossbar/route_close_cycle", || {
        let g = xb.route(0, 5, t);
        t = g.established + Duration::from_us(1);
        xb.close(5, t);
        t
    });
}

fn bench_fifo(r: &mut Runner) {
    r.bench("timed_fifo/push_pop_1k", || {
        let mut f = TimedFifo::new(256);
        let mut t = Time::ZERO;
        for _ in 0..1024 {
            f.push(t, 64);
            t += Duration::from_ns(100);
            f.pop(t, 64);
        }
        f.level(t)
    });
}

fn bench_ni(r: &mut Runner) {
    r.bench("ni/stream_64k", || {
        let mut dir = NiDirection::new(NiConfig::powermanna());
        let mut st = Time::ZERO;
        let mut rt = Time::ZERO;
        let mut sent = 0u32;
        let mut recv = 0u32;
        while recv < 64 * 1024 {
            if sent < 64 * 1024 {
                if let Some(done) = dir.push(st, 64) {
                    st = done;
                    sent += 64;
                    continue;
                }
            }
            rt = dir.pop(rt, 64).expect("sender ahead");
            recv += 64;
        }
        rt
    });
}

fn bench_crc(r: &mut Runner) {
    let data: Vec<u8> = (0..65536u32).map(|x| x as u8).collect();
    r.bench("crc16/64k", || crc16(&data));
}

fn bench_crossbar_worms(r: &mut Runner) {
    // X5's fabric: 16 nodes on one crossbar.
    let mut topo = Topology::with_nodes(16);
    let xb = topo.add_crossbar(CrossbarConfig::powermanna());
    for n in 0..16 {
        topo.connect_node(n, 0, xb, n as u32, LinkKind::Synchronous);
    }
    let worms = routesim::uniform_random_worms(16, 32, 256, 5);
    r.bench("routesim/crossbar16_uniform_512worms_fresh", || {
        RouteSim::new(&topo).run(&worms, RoutePolicy::Oblivious)
    });
    // The sweep-reuse hot path: one simulator across all runs.
    let mut sim = RouteSim::new(&topo);
    r.bench("routesim/crossbar16_uniform_512worms_reused", move || {
        sim.run(&worms, RoutePolicy::Oblivious)
    });
}

fn bench_stopwire(r: &mut Runner) {
    // A 64-KB worm through an output whose downstream side stalls half
    // of every millisecond-scale window: the per-flit reference walks
    // every link tick, the batched engine only the transitions.
    let c = StopWireConfig::powermanna();
    let windows: Vec<(u64, u64)> = (0..256u64).map(|i| (i * 1024, i * 1024 + 512)).collect();
    r.bench("stopwire/64k_saturated_per_flit", {
        let windows = windows.clone();
        move || stopwire::stream_per_flit(c, 0, 65536, &windows)
    });
    r.bench("stopwire/64k_saturated_batched", move || {
        stopwire::stream_batched(c, 0, 65536, &windows)
    });

    // End to end: a 64-KB worm over a 4-segment route (sync, async,
    // async, sync — an inter-cluster path) whose destination stalls
    // half of every window, chained per segment.
    let asynchronous = pm_net::transceiver::TransceiverConfig::default().stop_wire();
    let segments = [c, asynchronous, asynchronous, c];
    let windows: Vec<(u64, u64)> = (0..256u64).map(|i| (i * 1024, i * 1024 + 512)).collect();
    r.bench("stopwire/route_64k_saturated_batched", move || {
        stopwire::stream_route(&segments, 0, 65536, &windows)
    });
}

fn bench_mesh(r: &mut Runner) {
    r.bench("mesh/16_random_connections", || {
        let mut mesh = Network::mesh(4, 4);
        let mut rng = pm_sim::rng::SimRng::seed_from(3);
        let mut finish = Time::ZERO;
        for _ in 0..16 {
            let a = rng.gen_range(0, 16) as usize;
            let b2 = rng.gen_range(0, 16) as usize;
            if a == b2 {
                continue;
            }
            let mut conn = mesh.open(a, b2, 0, Time::ZERO).expect("closed in order");
            let done = conn.transfer(conn.ready_at(), 1024).finished;
            conn.close(&mut mesh, done);
            finish = finish.max(done);
        }
        finish
    });
}

fn bench_mpi(r: &mut Runner) {
    let cfg = CommConfig::powermanna();
    r.bench("mpi/allreduce_64ranks_1k", || {
        let mut w = MpiWorld::new(64, cfg);
        w.allreduce(1024)
    });
}

fn bench_earth(r: &mut Runner) {
    let e = EarthConfig::powermanna();
    let cm = CommConfig::powermanna();
    r.bench("earth/16_fibers_64ops", || {
        run_fibers(&e, &cm, 16, 64, Duration::from_ns(500), 64)
    });
}

fn bench_traffic(r: &mut Runner) {
    use pm_core::traffic::{quick_scenario, run_scenario, ScenarioTopology};
    use pm_sim::metrics::MetricRegistry;
    use pm_workloads::traffic::{TrafficConfig, TrafficGen, TrafficPattern};

    // Pure generation throughput: 10k Poisson draws, no fabric.
    let cfg = TrafficConfig {
        nodes: 8,
        tenants: 1024,
        pattern: TrafficPattern::Poisson,
        offered_bytes_per_s: 480e6,
        payload: 4096,
        messages: 10_000,
        seed: 0xBE,
    };
    r.bench("traffic/generate_10k_poisson", move || {
        TrafficGen::new(cfg.clone())
            .map(|m| m.at.as_ps())
            .sum::<u64>()
    });

    // The full scenario loop at moderate load, metrics on: generator +
    // route setup + backpressured transfer + per-message registry
    // updates through the preallocated handles.
    r.bench("traffic/scenario_2k_msgs_with_metrics", || {
        let cfg = quick_scenario(ScenarioTopology::Cluster8Xbar, 0.5, 2_000, 0xEB);
        let mut reg = MetricRegistry::new();
        run_scenario(&cfg, Some(&mut reg)).delivered_bytes
    });
}

fn bench_parser(r: &mut Runner) {
    let text = "loop 64 {\n r1 = load 0x1000 + i*8\n r2 = load 0x9000 + i*8\n r3 = fmadd r1, r2, r3\n branch 0x10 taken\n}\nstore r3, 0x20000\n";
    r.bench("parse_kernel/dot64", || {
        parse_kernel(text).expect("valid kernel")
    });
}

fn main() {
    Runner::header("substrates");
    let mut r = Runner::new();
    bench_hierarchy(&mut r);
    bench_cpu_engine(&mut r);
    bench_crossbar(&mut r);
    bench_fifo(&mut r);
    bench_ni(&mut r);
    bench_crc(&mut r);
    bench_crossbar_worms(&mut r);
    bench_stopwire(&mut r);
    bench_mesh(&mut r);
    bench_mpi(&mut r);
    bench_earth(&mut r);
    bench_traffic(&mut r);
    bench_parser(&mut r);
    black_box(r.samples().len());
}
