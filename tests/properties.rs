//! Property-based tests spanning the workspace's core data structures.
//!
//! These used to run under `proptest`; they are now driven by the
//! in-repo deterministic [`SimRng`] so the whole workspace builds and
//! tests with an empty cargo registry (see the "no external
//! dependencies" policy in DESIGN.md). Each property draws a fixed
//! number of pseudo-random cases from a fixed seed, so failures are
//! exactly reproducible — rerun the test, get the same cases.

use powermanna::isa::{Instr, Trace};
use powermanna::mem::{Access, Cache, CacheGeometry, HierarchyConfig, MemorySystem, MesiState};
use powermanna::net::fifo::TimedFifo;
use powermanna::net::topology::Topology;
use powermanna::node::crc::{crc16, Crc16};
use powermanna::sim::rng::SimRng;
use powermanna::sim::time::{Clock, Duration, Time};

/// One generator per property, derived from a property-specific tag so
/// adding cases to one test never shifts another test's inputs.
fn cases(tag: u64) -> SimRng {
    SimRng::seed_from(0x50776D_414E4E41 ^ tag)
}

/// Clock conversion never drifts: time_of_cycle is additive.
#[test]
fn clock_cycles_compose() {
    let mut rng = cases(1);
    for _ in 0..256 {
        let khz = rng.gen_range(1_000, 1_000_000);
        let a = rng.gen_range(0, 1_000_000);
        let b = rng.gen_range(0, 1_000_000);
        let clk = Clock::from_khz(khz);
        let sum = clk.time_of_cycle(a + b).as_ps() as i128;
        let parts = clk.duration_of(a).as_ps() as i128 + clk.duration_of(b).as_ps() as i128;
        // Rounded once vs twice: differ by at most one picosecond.
        assert!(
            (sum - parts).abs() <= 1,
            "khz={khz} a={a} b={b}: {sum} vs {parts}"
        );
    }
}

/// cycle_at inverts time_of_cycle.
#[test]
fn clock_cycle_roundtrip() {
    let mut rng = cases(2);
    for _ in 0..256 {
        let khz = rng.gen_range(1_000, 1_000_000);
        let n = rng.gen_range(0, 10_000_000);
        let clk = Clock::from_khz(khz);
        let t = clk.time_of_cycle(n);
        let back = clk.cycle_at(t);
        assert!(
            back == n || back == n.saturating_sub(1) || back == n + 1,
            "khz={khz} n={n} back={back}"
        );
    }
}

/// Duration arithmetic is associative over sums.
#[test]
fn duration_sum_order_free() {
    let mut rng = cases(3);
    for _ in 0..128 {
        let len = rng.gen_range(1, 20) as usize;
        let mut xs: Vec<u64> = (0..len).map(|_| rng.gen_range(0, 1_000_000_000)).collect();
        let fwd: Duration = xs.iter().map(|&x| Duration::from_ps(x)).sum();
        xs.reverse();
        let rev: Duration = xs.iter().map(|&x| Duration::from_ps(x)).sum();
        assert_eq!(fwd, rev);
    }
}

/// The FIFO's occupancy equals pushes minus pops at every probe point,
/// and never exceeds capacity when gated by space_available.
#[test]
fn fifo_occupancy_invariant() {
    let mut rng = cases(4);
    for _ in 0..64 {
        let n_ops = rng.gen_range(1, 200) as usize;
        let mut f = TimedFifo::new(256);
        let mut t = Time::ZERO;
        let mut level: i64 = 0;
        for _ in 0..n_ops {
            let kind = rng.gen_range(0, 2);
            let bytes = rng.gen_range(1, 65) as u32;
            t += Duration::from_ns(10);
            if kind == 0 {
                if let Some(at) = f.space_available(t, bytes) {
                    let at = at.max(t);
                    f.push(at, bytes);
                    t = at;
                    level += i64::from(bytes);
                }
            } else {
                let lvl = f.level(t);
                if lvl >= bytes {
                    f.pop(t, bytes);
                    level -= i64::from(bytes);
                }
            }
            assert!((0..=256).contains(&level));
            assert_eq!(i64::from(f.level(t)), level);
        }
    }

    // Pops recorded ahead of the queried time, as `NiDirection` records
    // a chunk leaving the send FIFO when its last byte will have
    // serialised: several pops share an instant, and some queries land
    // exactly on a pop. Every answer must match a scan over all pops.
    for case in 0..64 {
        let capacity = rng.gen_range(64, 513) as u32;
        let mut f = TimedFifo::new(capacity);
        let mut pops: Vec<(Time, u64)> = Vec::new();
        let (mut pushed, mut popped) = (0u64, 0u64);
        let mut q = Time::ZERO;
        let check = |f: &TimedFifo, pops: &[(Time, u64)], pushed, t, bytes| {
            let got = f.space_available(t, bytes);
            let want = space_by_scan(pops, pushed, capacity, t, bytes);
            assert_eq!(got, want, "case {case}: {bytes} bytes at {t:?}");
            got
        };
        for _ in 0..rng.gen_range(1, 300) {
            let bytes = rng.gen_range(1, 65) as u32;
            match rng.gen_range(0, 4) {
                // The producer pushes as soon as there is room.
                0 => {
                    if let Some(at) = check(&f, &pops, pushed, q, bytes) {
                        f.push(at, bytes);
                        pushed += u64::from(bytes);
                        q = at;
                    }
                }
                // The consumer records a pop at or after `q`, half the
                // time at the instant of the previous pop.
                1 => {
                    let bytes = u64::from(bytes).min(pushed - popped);
                    let last = pops.last().map_or(Time::ZERO, |&(pt, _)| pt);
                    let at = if last >= q && rng.gen_bool(0.5) {
                        last
                    } else {
                        last.max(q) + Duration::from_ns(rng.gen_range(0, 200))
                    };
                    if bytes > 0 {
                        f.pop(at, bytes as u32);
                        popped += bytes;
                        pops.push((at, popped));
                    }
                }
                // A query at exactly a recorded pop's time.
                2 => {
                    if !pops.is_empty() {
                        let (pt, _) = pops[rng.gen_range(0, pops.len() as u64) as usize];
                        check(&f, &pops, pushed, pt, bytes);
                    }
                }
                // Time passes for the producer.
                _ => q += Duration::from_ns(rng.gen_range(0, 100)),
            }
        }
    }
}

/// `TimedFifo::space_available` by a scan over every recorded pop,
/// `pops` holding (time, cumulative bytes popped) in time order.
fn space_by_scan(
    pops: &[(Time, u64)],
    pushed: u64,
    capacity: u32,
    t: Time,
    bytes: u32,
) -> Option<Time> {
    let fits = |popped: u64| pushed - popped + u64::from(bytes) <= u64::from(capacity);
    let popped_by_t = pops
        .iter()
        .filter(|&&(pt, _)| pt <= t)
        .map(|&(_, cum)| cum)
        .max()
        .unwrap_or(0);
    if fits(popped_by_t) {
        return Some(t);
    }
    pops.iter()
        .find(|&&(pt, cum)| pt > t && fits(cum))
        .map(|&(pt, _)| pt)
}

/// A cache never holds more lines than its capacity, and a probe after
/// fill always finds the line (until something evicts it).
#[test]
fn cache_capacity_invariant() {
    let mut rng = cases(5);
    for _ in 0..32 {
        let n_addrs = rng.gen_range(1, 300) as usize;
        let geometry = CacheGeometry::new(4096, 2, 64);
        let mut c = Cache::new(geometry);
        for _ in 0..n_addrs {
            let addr = rng.gen_range(0, 1_000_000);
            let base = geometry.line_base(addr);
            if c.lookup(base) == MesiState::Invalid {
                c.fill(base, MesiState::Exclusive);
            }
            assert!(c.resident_lines() as u64 <= geometry.size_bytes() / 64);
            assert!(c.probe(base) != MesiState::Invalid);
        }
    }
}

/// MESI single-writer invariant: after any access pattern from two
/// CPUs, a line is never Modified/Exclusive in both caches at once.
#[test]
fn mesi_single_writer() {
    let mut rng = cases(6);
    for _ in 0..32 {
        let n_ops = rng.gen_range(1, 120) as usize;
        let mut mem = MemorySystem::new(HierarchyConfig::mpc620_node(2));
        let mut t = Time::ZERO;
        for _ in 0..n_ops {
            let cpu = rng.gen_range(0, 2) as usize;
            let line = rng.gen_range(0, 4);
            let write = rng.gen_range(0, 2) == 1;
            let addr = line * 64;
            let access = if write {
                Access::write(addr)
            } else {
                Access::read(addr)
            };
            let r = mem.access(cpu, access, t);
            t = r.done_at;
        }
        // Validate by forcing a read on each line from each CPU: if both
        // caches believed they owned a line, interventions would exceed
        // the write count; instead we assert the model settles: every
        // line readable from both sides afterwards.
        for line in 0u64..4 {
            let r0 = mem.access(0, Access::read(line * 64), t);
            let r1 = mem.access(1, Access::read(line * 64), r0.done_at);
            t = r1.done_at;
        }
        assert!(mem.interventions() <= 200);
    }
}

/// CRC catches every single-bit corruption.
#[test]
fn crc_detects_single_bit() {
    let mut rng = cases(7);
    for _ in 0..128 {
        let len = rng.gen_range(1, 64) as usize;
        let data: Vec<u8> = (0..len).map(|_| rng.gen_range(0, 256) as u8).collect();
        let sum = crc16(&data);
        let mut bad = data.clone();
        let idx = rng.gen_range(0, 64) as usize % bad.len();
        let bit = rng.gen_range(0, 8) as u8;
        bad[idx] ^= 1 << bit;
        assert!(
            !Crc16::verify(&bad, sum),
            "flip at byte {idx} bit {bit} undetected"
        );
    }
}

/// CRC is stable under chunked computation.
#[test]
fn crc_chunking_invariant() {
    let mut rng = cases(8);
    for _ in 0..128 {
        let len = rng.gen_range(0, 256) as usize;
        let data: Vec<u8> = (0..len).map(|_| rng.gen_range(0, 256) as u8).collect();
        let split = (rng.gen_range(0, 256) as usize).min(data.len());
        let mut inc = Crc16::new();
        inc.update(&data[..split]);
        inc.update(&data[split..]);
        assert_eq!(inc.finish(), crc16(&data));
    }
}

/// Every node pair in the 256-processor system routes on both planes
/// with at most three crossbars, and routes are symmetric in length.
#[test]
fn system256_routing_properties() {
    let mut rng = cases(9);
    let topo = Topology::system256();
    for _ in 0..128 {
        let a = rng.gen_range(0, 128) as usize;
        let b = rng.gen_range(0, 128) as usize;
        if a == b {
            continue;
        }
        let plane = rng.gen_range(0, 2) as u32;
        let fwd = topo.route(a, b, plane).expect("route exists");
        let rev = topo.route(b, a, plane).expect("reverse route exists");
        assert!(fwd.crossbars() <= 3);
        assert_eq!(fwd.crossbars(), rev.crossbars());
    }
}

/// The deterministic RNG respects requested ranges.
#[test]
fn rng_range_property() {
    let mut rng = cases(10);
    for _ in 0..64 {
        let seed = rng.next_u64();
        let lo = rng.gen_range(0, 1000);
        let span = rng.gen_range(1, 1000);
        let mut r = SimRng::seed_from(seed);
        for _ in 0..50 {
            let v = r.gen_range(lo, lo + span);
            assert!((lo..lo + span).contains(&v));
        }
    }
}

/// Trace statistics equal a recount over the instruction stream.
#[test]
fn trace_stats_match_recount() {
    let mut rng = cases(11);
    for _ in 0..64 {
        let n_loads = rng.gen_range(0, 40) as usize;
        let n_stores = rng.gen_range(0, 40) as usize;
        let mut instrs = Vec::new();
        for i in 0..n_loads {
            instrs.push(Instr::load(
                powermanna::isa::Reg(i as u16),
                powermanna::isa::VAddr(i as u64 * 8),
                8,
                None,
            ));
        }
        for i in 0..n_stores {
            instrs.push(Instr::store(
                powermanna::isa::Reg(i as u16),
                powermanna::isa::VAddr(i as u64 * 8),
                8,
            ));
        }
        let trace = Trace::from_instrs(instrs);
        assert_eq!(trace.stats().loads, n_loads as u64);
        assert_eq!(trace.stats().stores, n_stores as u64);
        assert_eq!(trace.stats().instrs, (n_loads + n_stores) as u64);
    }
}

/// Memory-system latency is monotone under contention: adding a second
/// CPU's traffic never makes the first CPU's identical access stream
/// complete earlier. (Not randomised: a fixed adversarial schedule.)
#[test]
fn contention_is_monotone() {
    let stream = |mem: &mut MemorySystem, cpu: usize| -> Time {
        let mut t = Time::ZERO;
        for i in 0..128u64 {
            let r = mem.access(cpu, Access::read((cpu as u64) << 30 | (i * 64)), t);
            t = r.done_at;
        }
        t
    };
    let mut solo = MemorySystem::new(HierarchyConfig::mpc620_node(2));
    let solo_done = stream(&mut solo, 0);

    let mut shared = MemorySystem::new(HierarchyConfig::mpc620_node(2));
    // CPU 1 floods the bus first.
    let _ = stream(&mut shared, 1);
    let contended_done = stream(&mut shared, 0);
    assert!(contended_done >= solo_done);
}

// --- Extended cross-crate properties ------------------------------------

use powermanna::comm::config::CommConfig;
use powermanna::comm::mpi::MpiWorld;
use powermanna::cpu::{Cpu, CpuConfig};
use powermanna::isa::parse_kernel;
use powermanna::net::crossbar::CrossbarConfig;
use powermanna::net::routesim::{self, RoutePolicy, RouteSim};
use powermanna::net::topology::LinkKind;

/// Sixteen nodes on one PowerMANNA crossbar, node `i` on port `i`.
fn crossbar16() -> Topology {
    let mut t = Topology::with_nodes(16);
    let x = t.add_crossbar(CrossbarConfig::powermanna());
    for n in 0..16 {
        t.connect_node(n, 0, x, n as u32, LinkKind::Synchronous);
    }
    t
}

/// Executing a prefix of a trace never takes longer than the whole
/// trace (time is monotone in work).
#[test]
fn cpu_time_monotone_in_work() {
    let mut rng = cases(12);
    for _ in 0..24 {
        let n = rng.gen_range(2, 200) as usize;
        let cut = (rng.gen_range(1, 200) as usize).min(n - 1).max(1);
        let mut tb = powermanna::isa::TraceBuilder::new();
        for i in 0..n as u64 {
            tb.load((i * 72) % 65536, 8);
        }
        let full = tb.finish();
        let prefix: powermanna::isa::Trace = full.iter().take(cut).copied().collect();

        let run = |t: powermanna::isa::Trace| {
            let mut mem = MemorySystem::new(HierarchyConfig::mpc620_node(1));
            let mut cpu = Cpu::new(CpuConfig::mpc620());
            cpu.execute(t, &mut mem, 0).elapsed
        };
        assert!(run(prefix) <= run(full), "n={n} cut={cut}");
    }
}

/// A single-crossbar `RouteSim` conserves worms and payload for any
/// uniform traffic.
#[test]
fn routesim_crossbar_conserves_payload() {
    let mut rng = cases(13);
    let mut sim = RouteSim::new(&crossbar16());
    for _ in 0..24 {
        let per_node = rng.gen_range(1, 8) as u32;
        let payload = rng.gen_range(1, 512) as u32;
        let seed = rng.next_u64();
        let worms = routesim::uniform_random_worms(16, per_node, payload, seed);
        let r = sim.run(&worms, RoutePolicy::Oblivious);
        assert_eq!(r.completions.len(), worms.len());
        assert_eq!(r.payload_bytes, (worms.len() as u64) * u64::from(payload));
        assert!(r.completions.iter().all(|&c| c > Time::ZERO));
        // Aggregate throughput can never exceed all 16 links flat out.
        assert!(r.throughput_mbs() <= 16.0 * 60.5);
    }
}

/// MPI collectives: time grows (weakly) with message size.
#[test]
fn mpi_collectives_monotone_in_bytes() {
    let mut rng = cases(14);
    for _ in 0..32 {
        let n = rng.gen_range(2, 33) as usize;
        let small = rng.gen_range(1, 512) as u32;
        let extra = rng.gen_range(1, 4096) as u32;
        let cfg = CommConfig::powermanna();
        let mut w1 = MpiWorld::new(n, cfg);
        let t_small = w1.bcast(0, small);
        let mut w2 = MpiWorld::new(n, cfg);
        let t_big = w2.bcast(0, small + extra);
        assert!(t_big >= t_small, "n={n} small={small} extra={extra}");
    }
}

/// The kernel parser accepts everything the generator prints and
/// produces the same op counts.
#[test]
fn parser_roundtrips_generated_kernels() {
    let mut rng = cases(15);
    for _ in 0..64 {
        let loads = rng.gen_range(1, 20) as usize;
        let flops = rng.gen_range(0, 20) as usize;
        let mut text = String::new();
        for i in 0..loads {
            text.push_str(&format!("r{} = load {}\n", i + 1, i * 64));
        }
        for i in 0..flops {
            text.push_str(&format!("r{} = fadd r1, r1\n", 100 + i));
        }
        let t = parse_kernel(&text).expect("generated kernel is valid");
        assert_eq!(t.stats().loads, loads as u64);
        assert_eq!(t.stats().flops, flops as u64);
    }
}

// --- Memory-system invariants (pm-mem) ----------------------------------

use powermanna::mem::dram::{Dram, DramConfig};
use powermanna::mem::tlb::{Tlb, TlbConfig};

/// After any random access stream from any number of CPUs, every
/// touched line is in a legal MESI configuration across the caches:
/// `check_coherence` validates single-writer, no-stale-sharer and
/// L1⊆L2 inclusion per line.
#[test]
fn mesi_states_stay_legal_under_random_streams() {
    let mut rng = cases(17);
    for cpus in [2usize, 4] {
        for _ in 0..16 {
            let n_ops = rng.gen_range(50, 400) as usize;
            let mut mem = MemorySystem::new(HierarchyConfig::mpc620_node(cpus));
            let mut t = Time::ZERO;
            let mut touched = Vec::new();
            for _ in 0..n_ops {
                let cpu = rng.gen_range(0, cpus as u64) as usize;
                // A small hot set so lines migrate between caches a lot.
                let addr = rng.gen_range(0, 32) * 64;
                let access = if rng.gen_range(0, 2) == 1 {
                    Access::write(addr)
                } else {
                    Access::read(addr)
                };
                t = mem.access(cpu, access, t).done_at;
                touched.push(addr);
            }
            touched.sort_unstable();
            touched.dedup();
            for addr in touched {
                mem.check_coherence(addr)
                    .unwrap_or_else(|e| panic!("cpus={cpus}: {e}"));
            }
        }
    }
}

/// For a fully-associative LRU TLB with a fixed entry count, growing
/// the page size never loses hits on the same address stream: larger
/// pages are unions of smaller ones, so every reuse interval contains
/// at most as many distinct large pages as small ones (the stack
/// distance can only shrink).
#[test]
fn tlb_hits_monotone_in_page_size() {
    let mut rng = cases(18);
    for _ in 0..24 {
        // Random-walk stream with page-scale locality.
        let n_ops = rng.gen_range(200, 2000) as usize;
        let mut addr: u64 = rng.gen_range(0, 1 << 24);
        let stream: Vec<u64> = (0..n_ops)
            .map(|_| {
                if rng.gen_range(0, 4) == 0 {
                    addr = rng.gen_range(0, 1 << 24); // jump
                } else {
                    addr += rng.gen_range(0, 4096); // local walk
                }
                addr
            })
            .collect();

        let hits_with_pages = |page_bytes: u32| -> u64 {
            let mut tlb = Tlb::new(TlbConfig {
                entries: 64,
                ways: 64, // fully associative: LRU is a stack algorithm
                page_bytes,
                miss_penalty: Duration::from_ns(150),
            });
            for &a in &stream {
                tlb.translate(a);
            }
            tlb.stats().hits
        };

        let mut prev = hits_with_pages(1 << 12);
        for shift in [13u32, 14, 16] {
            let next = hits_with_pages(1 << shift);
            assert!(
                next >= prev,
                "hits dropped from {prev} to {next} when pages grew to 2^{shift}"
            );
            prev = next;
        }
    }
}

/// The DRAM bank-conflict counter agrees with a shadow recount that
/// tracks per-bank busy-until times, and obeys the obvious bounds.
#[test]
fn dram_bank_conflicts_match_shadow_recount() {
    let mut rng = cases(19);
    for cfg in [
        DramConfig::powermanna(),
        DramConfig::pc_sdram(),
        DramConfig::sun_ultra(),
    ] {
        let n_ops = rng.gen_range(100, 600) as usize;
        let mut dram = Dram::new(cfg);
        let mut busy_until = vec![Time::ZERO; cfg.banks as usize];
        let mut shadow = 0u64;
        let mut t = Time::ZERO;
        for _ in 0..n_ops {
            // Sometimes advance time, sometimes burst at the same instant.
            if rng.gen_range(0, 3) == 0 {
                t += Duration::from_ns(rng.gen_range(0, 300));
            }
            let addr = rng.gen_range(0, 1 << 20);
            let bank = dram.bank_of(addr) as usize;
            if busy_until[bank] > t {
                shadow += 1;
            }
            let (start, ready) = dram.access(addr, t);
            busy_until[bank] = start + cfg.bank_busy;
            assert!(start >= t && ready > start);
        }
        assert_eq!(dram.bank_conflicts(), shadow, "shadow recount disagrees");
        assert!(dram.bank_conflicts() <= dram.accesses());
    }
}

/// Closed-form bank-conflict cases: a same-instant burst of `n`
/// accesses to one bank serialises as `n - 1` conflicts, while a burst
/// spread across distinct banks (the interleaving working as designed)
/// has none.
#[test]
fn dram_bank_conflict_bursts() {
    let cfg = DramConfig::powermanna();
    let stride = u64::from(cfg.interleave_bytes);

    let mut same = Dram::new(cfg);
    let n = 7u64;
    for i in 0..n {
        // Same bank: step by a full interleave round.
        same.access(i * stride * u64::from(cfg.banks), Time::ZERO);
    }
    assert_eq!(same.bank_conflicts(), n - 1);

    let mut spread = Dram::new(cfg);
    for b in 0..u64::from(cfg.banks) {
        spread.access(b * stride, Time::ZERO);
    }
    assert_eq!(spread.bank_conflicts(), 0);
}

// --- Stop-wire flow control (pm-net) ------------------------------------

use powermanna::net::routesim::Backpressure;
use powermanna::net::stopwire::{self, StopWireConfig};

/// §3.2 losslessness, as a property: under arbitrary random
/// backpressure schedules the PowerMANNA link delivers every byte
/// offered and the receiver FIFO never exceeds its 32-word (256-byte)
/// bound — the stop wire alone prevents overflow.
#[test]
fn stop_wire_is_lossless_and_bounded() {
    let mut rng = cases(20);
    let c = StopWireConfig::powermanna();
    for _ in 0..200 {
        let bytes = rng.gen_range(1, 8192);
        let start = rng.gen_range(0, 500);
        let count = rng.gen_range(0, 30) as u32;
        let windows = stopwire::random_windows(&mut rng, start + bytes * 4 + 1, count, 1500);
        for (engine, s) in [
            (
                "per-flit",
                stopwire::stream_per_flit(c, start, bytes, &windows),
            ),
            (
                "batched",
                stopwire::stream_batched(c, start, bytes, &windows),
            ),
        ] {
            assert_eq!(s.delivered, bytes, "{engine}: flit dropped");
            assert!(
                s.max_occupancy <= 256,
                "{engine}: occupancy {} exceeds the 32-word FIFO",
                s.max_occupancy
            );
            assert!(s.max_occupancy <= c.headroom_needed());
        }
    }
}

/// A backpressured single-crossbar `RouteSim` conserves worms and
/// payload for any uniform traffic and stall schedule, and its stalled
/// makespan is never shorter than the free one.
#[test]
fn routesim_crossbar_conserves_payload_under_backpressure() {
    let mut rng = cases(21);
    let mut sim = RouteSim::new(&crossbar16());
    for _ in 0..8 {
        let per_node = rng.gen_range(1, 4) as u32;
        let payload = rng.gen_range(16, 400) as u32;
        let worms = routesim::uniform_random_worms(16, per_node, payload, rng.next_u64());
        let windows = (0..16)
            .map(|_| {
                let count = rng.gen_range(1, 10) as u32;
                stopwire::random_windows(&mut rng, 40_000, count, 3000)
            })
            .collect();
        let bp = Backpressure {
            stop: StopWireConfig::powermanna(),
            windows,
        };
        let free = sim.run(&worms, RoutePolicy::Oblivious);
        let r = sim.run_with_backpressure(&worms, &bp);
        assert_eq!(r.completions.len(), worms.len());
        assert_eq!(r.payload_bytes, (worms.len() as u64) * u64::from(payload));
        assert!(r.completions.iter().all(|&c| c > Time::ZERO));
        assert!(
            r.finished_at >= free.finished_at,
            "backpressure finished earlier than the free run"
        );
    }
}

/// End-to-end route backpressure, checked against ground truth: a
/// *joint* tick-by-tick simulation of every FIFO on the route evolving
/// together (payload identity tracked per byte) must deliver every
/// byte exactly once, in order — and the compositional
/// `stopwire::stream_route` (per-segment streams chained through gate
/// windows) must reproduce that joint simulation exactly: finish
/// ticks, per-segment stall counts, stop assertions and occupancy
/// bounds. This is the reference for multi-segment routes.
#[test]
fn route_backpressure_never_loses_or_reorders_bytes() {
    use std::collections::VecDeque;
    let mut rng = cases(22);
    for case in 0..200 {
        let n = rng.gen_range(1, 5) as usize;
        let segments: Vec<StopWireConfig> = (0..n)
            .map(|_| {
                // Composable geometry: resume_threshold > stop_lag, as
                // stream_route demands of multi-segment routes.
                let fifo_bytes = rng.gen_range(32, 513) as u32;
                let stop_lag = rng.gen_range(0, 9) as u32;
                let max_stop = fifo_bytes - stop_lag - 1;
                let stop_threshold =
                    rng.gen_range(u64::from(stop_lag) + 2, u64::from(max_stop) + 1) as u32;
                let resume_threshold =
                    rng.gen_range(u64::from(stop_lag) + 1, u64::from(stop_threshold)) as u32;
                StopWireConfig {
                    fifo_bytes,
                    stop_threshold,
                    resume_threshold,
                    stop_lag,
                }
            })
            .collect();
        let start_tick = rng.gen_range(0, 2000);
        let bytes = rng.gen_range(1, 6000);
        let count = rng.gen_range(0, 24) as u32;
        let stalls = stopwire::random_windows(&mut rng, start_tick + bytes * 3 + 10, count, 700);

        // --- Joint simulation: one shared timeline, all FIFOs at once.
        // Per tick, segments advance in route order (a byte pushed into
        // a FIFO can be popped by the next hop the same tick — wormhole
        // cut-through), then the destination drains unless stalled,
        // then every wire re-evaluates on end-of-tick occupancy.
        let lag: Vec<usize> = segments.iter().map(|c| c.stop_lag as usize + 1).collect();
        let mut rings: Vec<Vec<bool>> = lag.iter().map(|&l| vec![false; l]).collect();
        let mut stops = vec![false; n];
        let mut fifos: Vec<VecDeque<u64>> = vec![VecDeque::new(); n];
        let mut sent = vec![0u64; n];
        let mut stalled = vec![0u64; n];
        let mut stop_asserts = vec![0u64; n];
        let mut max_occ = vec![0u32; n];
        let mut seg_finish = vec![start_tick; n];
        let mut delivered_ids: Vec<u64> = Vec::with_capacity(bytes as usize);
        let mut window = 0usize;
        let mut k = start_tick;
        while (delivered_ids.len() as u64) < bytes {
            assert!(k < start_tick + 1_000_000, "case {case}: joint sim wedged");
            for i in 0..n {
                let gate = rings[i][(k as usize) % lag[i]];
                if sent[i] < bytes {
                    if gate {
                        stalled[i] += 1;
                    } else {
                        // The sender pops the upstream FIFO (the source
                        // mints the next payload byte).
                        let byte = if i == 0 {
                            Some(sent[0])
                        } else {
                            let b = fifos[i - 1].pop_front();
                            if b.is_some() {
                                seg_finish[i - 1] = k;
                            }
                            b
                        };
                        if let Some(b) = byte {
                            fifos[i].push_back(b);
                            sent[i] += 1;
                        }
                    }
                }
            }
            while window < stalls.len() && stalls[window].1 <= k {
                window += 1;
            }
            let dst_stalled =
                window < stalls.len() && stalls[window].0 <= k && k < stalls[window].1;
            if !dst_stalled {
                if let Some(b) = fifos[n - 1].pop_front() {
                    seg_finish[n - 1] = k;
                    delivered_ids.push(b);
                }
            }
            for i in 0..n {
                let occ = fifos[i].len() as u32;
                if occ >= segments[i].stop_threshold {
                    stop_asserts[i] += u64::from(!stops[i]);
                    stops[i] = true;
                } else if occ <= segments[i].resume_threshold {
                    stops[i] = false;
                }
                max_occ[i] = max_occ[i].max(occ);
                rings[i][(k as usize) % lag[i]] = stops[i];
            }
            k += 1;
        }

        // Ground truth: lossless and in order.
        assert_eq!(delivered_ids.len() as u64, bytes, "case {case}: lost bytes");
        for (i, &b) in delivered_ids.iter().enumerate() {
            assert_eq!(b, i as u64, "case {case}: byte reordered or duplicated");
        }
        // The compositional engine reproduces the joint simulation.
        let flow = stopwire::stream_route(&segments, start_tick, bytes, &stalls);
        assert_eq!(flow.delivered, bytes, "case {case}");
        assert_eq!(
            flow.finish_tick,
            seg_finish[n - 1],
            "case {case}: finish tick diverges from the joint simulation"
        );
        for i in 0..n {
            assert_eq!(
                flow.per_segment[i].finish_tick, seg_finish[i],
                "case {case}: segment {i} finish tick"
            );
            assert_eq!(
                flow.per_segment[i].stalled_ticks, stalled[i],
                "case {case}: segment {i} stalled ticks"
            );
            assert_eq!(
                flow.per_segment[i].stop_transitions, stop_asserts[i],
                "case {case}: segment {i} stop assertions"
            );
            assert_eq!(
                flow.per_segment[i].max_occupancy, max_occ[i],
                "case {case}: segment {i} peak occupancy"
            );
            assert!(
                max_occ[i] <= segments[i].fifo_bytes,
                "case {case}: overflow"
            );
        }
    }
}

/// Page placement is a bijection at page granularity: distinct pages
/// never collide, and offsets are preserved.
#[test]
fn page_placement_bijective() {
    use powermanna::mem::hierarchy::virt_to_phys;
    let mut rng = cases(16);
    for _ in 0..256 {
        let a = rng.gen_range(0, 1_000_000);
        let b = rng.gen_range(0, 1_000_000);
        let pa = virt_to_phys(a * 4096);
        let pb = virt_to_phys(b * 4096);
        if a != b {
            assert_ne!(pa / 4096, pb / 4096, "pages {a} and {b} collided");
        } else {
            assert_eq!(pa, pb);
        }
        assert_eq!(virt_to_phys(a * 4096 + 123), pa + 123);
    }
}

/// A fault plan's schedule and transient decisions are functions of the
/// seed alone: same seed, same plan; different seed, different draws.
#[test]
fn fault_plans_are_seed_deterministic() {
    use powermanna::net::fault::FaultPlan;
    let topologies = [
        Topology::two_nodes(),
        Topology::cluster8(),
        Topology::system256(),
    ];
    let mut rng = cases(17);
    for _ in 0..64 {
        let seed = rng.next_u64();
        let topology = &topologies[rng.gen_range(0, topologies.len() as u64) as usize];
        let count = rng.gen_range(1, 20) as u32;
        let horizon = Duration::from_us(rng.gen_range(1, 10_000));
        let plan = |s: u64| {
            FaultPlan::clean(s)
                .with_transient_rate(0.25)
                .unwrap()
                .random_link_downs(topology, count, horizon)
        };
        let a = plan(seed);
        assert_eq!(a, plan(seed), "schedule must replay byte-identically");
        assert_eq!(a.schedule().len(), count as usize);
        assert!(
            a.schedule().windows(2).all(|w| w[0].at <= w[1].at),
            "schedule is sorted by death time"
        );
        let b = plan(seed ^ 0xD00D);
        assert_ne!(a.schedule(), b.schedule(), "seed must matter");
    }
}

/// Every single-bit flip is caught by the CRC-16: directly on random
/// payloads, and end to end through the multi-hop resilient transport,
/// which must deliver every payload intact regardless of fault rate.
#[test]
fn single_bit_flips_never_slip_past_the_crc() {
    use powermanna::comm::duplex::Message;
    let mut rng = cases(18);
    for case in 0..256 {
        let len = rng.gen_range(1, 512) as usize;
        let payload: Vec<u8> = (0..len).map(|_| rng.gen_range(0, 256) as u8).collect();
        let mut msg = Message::new(payload);
        assert!(msg.verify());
        let byte = rng.gen_range(0, len as u64) as usize;
        let bit = rng.gen_range(0, 8) as u8;
        msg.corrupt_bit(byte, bit);
        assert!(
            !msg.verify(),
            "case {case}: flip at byte {byte} bit {bit} slipped past crc16"
        );
    }
}

/// End-to-end over a three-crossbar route: with half of all
/// transmissions corrupted, the self-healing loop still delivers every
/// worm, each CRC rejection costing exactly one retransmission.
#[test]
fn multi_hop_transport_survives_heavy_corruption() {
    use powermanna::net::fault::FaultPlan;
    use powermanna::net::routesim::{ResilienceConfig, RouteSim, Worm};

    let t = Topology::system256();
    // Inter-cluster pair: the route crosses three crossbars.
    assert_eq!(t.route(8, 127, 0).expect("route exists").crossbars(), 3);
    let plan = FaultPlan::clean(0xB17F11B)
        .with_transient_rate(0.5)
        .unwrap();
    let mut rng = cases(19);
    let worms: Vec<Worm> = (0..40)
        .map(|_| Worm {
            src: 8,
            dst: 127,
            plane: 0,
            payload: rng.gen_range(16, 2048) as u32,
            inject_at: Time::ZERO,
        })
        .collect();
    let r = RouteSim::new(&t)
        .run_resilient(&worms, &plan, &ResilienceConfig::default())
        .expect("plan valid");
    let mut last = Time::ZERO;
    for (seq, o) in r.outcomes.iter().enumerate() {
        let d = o.delivered().expect("retries succeed");
        assert_eq!(d.attempts, 1 + d.crc_failures, "worm {seq}");
        assert!(d.finished > last, "worm {seq} arrived out of order");
        last = d.finished;
    }
    let s = r.stats;
    assert!(s.corrupted > 0, "rate 0.5 must corrupt something: {s:?}");
    assert_eq!(s.transmissions, s.offered + s.corrupted);
    assert_eq!(s.dropped, 0);
}

/// A seeded plan that kills a primary-plane link mid-run completes
/// *all* transfers with zero payload loss and no reordering: node 0
/// streams on both link interfaces, and the plane-0 lane's worms finish
/// on plane 1 once the link is gone, still in supply order.
#[test]
fn plane_failover_loses_and_reorders_nothing() {
    use powermanna::net::fault::{FaultPlan, LinkRef};
    use powermanna::net::routesim::{ResilienceConfig, RouteSim, Worm};

    let kill_at = Time::from_ps(400_000_000);
    let plan =
        FaultPlan::clean(0x0FA1_10E4).kill_link(kill_at, LinkRef::NodeLink { node: 0, plane: 0 });
    let worms: Vec<Worm> = (0..24)
        .map(|i| Worm {
            src: 0,
            dst: 1,
            plane: i % 2,
            payload: 4096,
            inject_at: Time::ZERO,
        })
        .collect();
    let r = RouteSim::new(&Topology::two_nodes())
        .run_resilient(&worms, &plan, &ResilienceConfig::default())
        .expect("plan valid");
    let s = r.stats;
    assert_eq!(s.link_downs, 1);
    assert_eq!(s.severed, 1, "the death cuts the streaming plane-0 worm");
    assert_eq!(s.dropped, 0);
    assert_eq!(s.delivered_bytes, 24 * 4096, "zero payload loss");
    for lane in 0..2 {
        let delivered: Vec<_> = r
            .outcomes
            .iter()
            .zip(&worms)
            .filter(|(_, w)| w.plane == lane)
            .map(|(o, _)| o.delivered().expect("nothing was dropped"))
            .collect();
        // Delivery order is supply order within a lane.
        assert!(delivered.windows(2).all(|w| w[0].finished < w[1].finished));
        for d in &delivered {
            if lane == 1 || d.finished > kill_at {
                assert_eq!(d.plane, 1, "only plane 1 is left after the death");
            } else {
                assert_eq!(d.plane, 0, "plane 0 serves its lane until the death");
            }
        }
        if lane == 0 {
            assert!(delivered.iter().any(|d| d.failed_over));
        }
    }
}

/// The X8 quick artifact is byte-identical run to run — the golden in
/// ci.sh diffs cleanly because nothing in the fault layer is
/// time-of-day or address dependent.
#[test]
fn x8_quick_csv_is_reproducible() {
    use powermanna::machine::experiments::find;
    use powermanna::sim::metrics::MetricRegistry;
    let csv =
        || (find("faults").expect("registered").run)(true, &mut MetricRegistry::new()).to_csv();
    assert_eq!(csv(), csv());
}

/// Poisson inter-arrival gaps average to `payload / offered_rate`.
/// Sample-mean std error at 40k draws is ~0.5% of the mean, so a 5%
/// band never flakes while still catching an off-by-`duty` or
/// off-by-`1e3` rate bug.
#[test]
fn traffic_poisson_gap_mean_matches_offered_rate() {
    use powermanna::workloads::traffic::{TrafficConfig, TrafficGen, TrafficPattern};
    let mut rng = cases(40);
    for _ in 0..4 {
        let rate = rng.gen_range(30, 960) as f64 * 1e6;
        let cfg = TrafficConfig {
            nodes: 8,
            tenants: 512,
            pattern: TrafficPattern::Poisson,
            offered_bytes_per_s: rate,
            payload: 4096,
            messages: 40_000,
            seed: rng.gen_range(0, u64::MAX),
        };
        let expect = cfg.mean_gap_ps();
        let last = TrafficGen::new(cfg.clone()).last().expect("messages > 0");
        let mean = last.at.as_ps() as f64 / cfg.messages as f64;
        let err = (mean - expect).abs() / expect;
        assert!(err < 0.05, "rate={rate}: mean {mean} vs {expect} ({err})");
    }
}

/// Bursty arrivals land only inside the on-windows, and the duty-cycle
/// rate boost conserves the long-run offered rate.
#[test]
fn traffic_bursty_respects_duty_cycle_and_conserves_rate() {
    use powermanna::workloads::traffic::{TrafficConfig, TrafficGen, TrafficPattern};
    let mut rng = cases(41);
    for _ in 0..4 {
        let duty_percent = rng.gen_range(10, 90) as u32;
        let period = Duration::from_us_f64(rng.gen_range(50, 400) as f64);
        let cfg = TrafficConfig {
            nodes: 8,
            tenants: 512,
            pattern: TrafficPattern::Bursty {
                period,
                duty_percent,
            },
            offered_bytes_per_s: 240e6,
            payload: 4096,
            messages: 40_000,
            seed: rng.gen_range(0, u64::MAX),
        };
        let on = period.as_ps() * u64::from(duty_percent) / 100;
        let mut last = 0u64;
        let mut count = 0u64;
        for m in TrafficGen::new(cfg.clone()) {
            assert!(
                m.at.as_ps() % period.as_ps() < on,
                "arrival at {} outside the on-window (duty {duty_percent}%)",
                m.at.as_ps()
            );
            last = m.at.as_ps();
            count += 1;
        }
        // The square wave conserves the long-run rate: the mean gap over
        // the whole run matches the Poisson mean within sampling noise.
        let mean = last as f64 / count as f64;
        let expect = cfg.mean_gap_ps();
        let err = (mean - expect).abs() / expect;
        assert!(
            err < 0.05,
            "duty={duty_percent}%: mean {mean} vs {expect} ({err})"
        );
    }
}

/// Hotspot traffic concentrates close to the configured fraction on the
/// hot node while every other destination stays near the uniform share.
#[test]
fn traffic_hotspot_concentrates_on_the_hot_node() {
    use powermanna::workloads::traffic::{TrafficConfig, TrafficGen, TrafficPattern};
    let nodes = 8u32;
    let hot = 3u32;
    let percent = 60u32;
    let cfg = TrafficConfig {
        nodes,
        tenants: 512,
        pattern: TrafficPattern::Hotspot { hot, percent },
        offered_bytes_per_s: 240e6,
        payload: 4096,
        messages: 40_000,
        seed: 0x0905_7071,
    };
    let mut per_dst = vec![0u64; nodes as usize];
    let mut total = 0u64;
    for m in TrafficGen::new(cfg) {
        per_dst[m.dst as usize] += 1;
        total += 1;
    }
    // Aimed messages (60%) hit the hot node unless homed there (1/8 of
    // tenants); unaimed ones add a uniform 1/7 share of the rest.
    let aimed = f64::from(percent) / 100.0;
    let hot_share = aimed * (7.0 / 8.0) + (1.0 - aimed + aimed / 8.0) / 7.0;
    let got = per_dst[hot as usize] as f64 / total as f64;
    assert!(
        (got - hot_share).abs() < 0.02,
        "hot share {got} vs expected {hot_share}"
    );
    // Everyone else splits the remainder roughly evenly.
    let cold_share = (1.0 - hot_share) / 7.0;
    for (d, &n) in per_dst.iter().enumerate() {
        if d as u32 == hot {
            continue;
        }
        let got = n as f64 / total as f64;
        assert!(
            (got - cold_share).abs() < 0.02,
            "node {d} share {got} vs expected {cold_share}"
        );
    }
}

/// The same config replays the same byte-exact stream; a different seed
/// diverges. This is the invariant the X12 golden CSV rests on.
#[test]
fn traffic_stream_is_byte_exact_per_seed() {
    use powermanna::workloads::traffic::{Message, TrafficConfig, TrafficGen, TrafficPattern};
    let mut rng = cases(43);
    for pattern in [
        TrafficPattern::Poisson,
        TrafficPattern::Bursty {
            period: Duration::from_us_f64(100.0),
            duty_percent: 25,
        },
        TrafficPattern::Hotspot {
            hot: 5,
            percent: 80,
        },
        TrafficPattern::UniformAllToAll,
    ] {
        let cfg = TrafficConfig {
            nodes: 8,
            tenants: 2048,
            pattern,
            offered_bytes_per_s: 480e6,
            payload: 4096,
            messages: 5_000,
            seed: rng.gen_range(0, u64::MAX),
        };
        let a: Vec<Message> = TrafficGen::new(cfg.clone()).collect();
        let b: Vec<Message> = TrafficGen::new(cfg.clone()).collect();
        assert_eq!(a, b, "{pattern:?}: same seed must replay byte-exact");
        let mut other = cfg.clone();
        other.seed = cfg.seed.wrapping_add(1);
        let c: Vec<Message> = TrafficGen::new(other).collect();
        assert_ne!(a, c, "{pattern:?}: a different seed must diverge");
    }
}

/// Every route the hierarchical permutation networks hand out respects
/// the architectural bound: at most three crossbars between any pair of
/// nodes, on both the 256-processor system and the scaled 1024-node
/// hierarchy.
#[test]
fn hierarchical_routes_stay_within_three_crossbars() {
    let mut rng = cases(44);
    for topo in [Topology::system256(), Topology::system1024()] {
        let nodes = topo.nodes();
        for _ in 0..128 {
            let src = rng.gen_range(0, nodes as u64) as usize;
            let mut dst = rng.gen_range(0, nodes as u64) as usize;
            if dst == src {
                dst = (dst + 1) % nodes;
            }
            for plane in 0..2 {
                let r = topo
                    .route(src, dst, plane)
                    .expect("hierarchy connects every pair on both planes");
                assert!(
                    r.crossbars() <= 3,
                    "{src}->{dst} plane {plane}: {} crossbars",
                    r.crossbars()
                );
            }
        }
    }
}

/// The duplicated planes share no hardware: for any pair, the plane-0
/// and plane-1 routes traverse disjoint crossbar sets, so a whole-plane
/// failure can never sever both.
#[test]
fn plane_routes_are_crossbar_disjoint() {
    let mut rng = cases(45);
    for topo in [Topology::system256(), Topology::system1024()] {
        let nodes = topo.nodes();
        for _ in 0..128 {
            let src = rng.gen_range(0, nodes as u64) as usize;
            let mut dst = rng.gen_range(0, nodes as u64) as usize;
            if dst == src {
                dst = (dst + 1) % nodes;
            }
            let r0 = topo.route(src, dst, 0).expect("plane-0 route");
            let r1 = topo.route(src, dst, 1).expect("plane-1 route");
            for h0 in &r0.hops {
                for h1 in &r1.hops {
                    assert_ne!(
                        h0.xbar, h1.xbar,
                        "{src}->{dst}: planes share crossbar {}",
                        h0.xbar
                    );
                }
            }
        }
    }
}

/// A worm that is both corrupted *and* late is dropped exactly once and
/// counted in every ledger exactly once. The scenario pins a sojourn
/// budget below the minimum service time (so every served worm is late)
/// and a 0.9 transient rate (so most also corrupt out after the retry
/// cap) — the overlap the drop path used to mishandle is the common
/// case here, and byte conservation breaks if any message is dropped
/// twice or skipped.
#[test]
fn corrupted_and_late_worms_drop_exactly_once() {
    use powermanna::machine::traffic::{run_scenario, ScenarioConfig, ScenarioTopology};
    use powermanna::net::fault::FaultPlan;
    use powermanna::workloads::traffic::TrafficPattern;

    let mut rng = cases(46);
    let mut late_total = 0u64;
    let mut crc_total = 0u64;
    for _ in 0..8 {
        let seed = rng.next_u64();
        let cfg = ScenarioConfig {
            topology: ScenarioTopology::Cluster8Xbar,
            pattern: TrafficPattern::Poisson,
            tenants: 64,
            messages: 200,
            payload: 4096,
            offered_load: 1.2,
            // A 4096-byte worm needs ~68 us on the wire alone, so
            // nothing served can be on time.
            deadline: Duration::from_us_f64(30.0),
            seed,
            faults: Some(FaultPlan::clean(seed).with_transient_rate(0.9).unwrap()),
        };
        let report = run_scenario(&cfg, None);
        assert!(
            report.conserves_bytes(),
            "byte conservation broke: {report:?}"
        );
        assert_eq!(
            report.offered_messages,
            report.delivered_messages + report.dropped_messages + report.inflight_messages,
            "message conservation broke: {report:?}"
        );
        // Every served worm was late, so nothing is delivered or left
        // in flight: all offered bytes drop, each exactly once.
        assert_eq!(report.delivered_messages, 0);
        assert_eq!(report.inflight_messages, 0);
        assert_eq!(report.dropped_bytes, report.offered_bytes);
        assert!(report.late_messages <= report.dropped_messages);
        late_total += report.late_messages;
        crc_total += report.crc_failures;
    }
    // The overlap actually occurred: worms were served late, and the
    // injector corrupted attempts, in the same runs.
    assert!(late_total > 0, "no worm was ever served late");
    assert!(crc_total > 0, "the injector never corrupted a worm");
}

/// A single link death mid-batch never loses or duplicates a payload,
/// and per-source deliveries stay in injection order: the resilient
/// loop retransmits severed worms over the surviving plane, and the
/// source's stop-and-wait serialisation survives the failover.
#[test]
fn resilient_death_never_loses_or_reorders() {
    use powermanna::net::fault::{FaultPlan, LinkRef};
    use powermanna::net::routesim::{ResilienceConfig, RouteSim, Worm};

    let t = Topology::system256();
    let nodes = t.nodes() as u64;
    let mut sim = RouteSim::new(&t);
    let mut rng = cases(40);
    for case in 0..8u64 {
        let src = rng.gen_range(0, nodes) as usize;
        let dst = (src + rng.gen_range(1, nodes) as usize) % nodes as usize;
        let worms: Vec<Worm> = (0..8u64)
            .map(|i| Worm {
                src,
                dst,
                plane: 0,
                payload: 1024 + 512 * (i as u32 % 4),
                inject_at: Time::ZERO + Duration::from_us(5 * i),
            })
            .collect();
        // Kill one of the source's two cables at a random instant while
        // the batch is in flight; the other plane survives, so every
        // payload must still arrive, exactly once, in order.
        let plane = rng.gen_range(0, 2) as u32;
        let at = Time::ZERO + Duration::from_us(rng.gen_range(0, 200));
        let plan =
            FaultPlan::clean(0x0DD + case).kill_link(at, LinkRef::NodeLink { node: src, plane });
        let r = sim
            .run_resilient(&worms, &plan, &ResilienceConfig::default())
            .expect("plan names a live link");
        assert_eq!(r.stats.dropped, 0, "case {case}: payload lost");
        assert_eq!(r.stats.delivered, worms.len() as u64, "case {case}");
        assert!((r.availability() - 1.0).abs() < 1e-12, "case {case}");
        let mut last = Time::ZERO;
        for (i, o) in r.outcomes.iter().enumerate() {
            let d = o.delivered().expect("nothing was dropped");
            assert!(
                d.finished > last,
                "case {case}: worm {i} delivered out of order"
            );
            last = d.finished;
        }
    }
}

/// On a fault-free batch the watchdog scans but never fires, the health
/// tables stay empty, and every worm delivers on its first attempt —
/// the self-healing layer is pure overhead-free observation when
/// nothing is wrong.
#[test]
fn resilient_watchdog_is_silent_on_clean_runs() {
    use powermanna::net::fault::FaultPlan;
    use powermanna::net::routesim::{
        permutation_worms, ResilienceConfig, RouteSim, WatchdogConfig,
    };

    let t = Topology::system256();
    let mut sim = RouteSim::new(&t);
    let worms = permutation_worms(16, 8, 4096, 0, Time::ZERO);
    // A tight scan period guarantees the watchdog actually ran many
    // times before the batch drained.
    let cfg = ResilienceConfig {
        watchdog: WatchdogConfig {
            scan_period: Duration::from_us(50),
            ..WatchdogConfig::default()
        },
        ..ResilienceConfig::default()
    };
    let r = sim
        .run_resilient(&worms, &FaultPlan::clean(0x51), &cfg)
        .expect("clean plan is always valid");
    assert!(r.stats.scans > 0, "the watchdog never scanned");
    assert_eq!(r.stats.recoveries, 0);
    assert_eq!(r.stats.orphan_reclaims, 0);
    assert_eq!(r.stats.failed_opens, 0);
    assert_eq!(r.stats.severed, 0);
    assert_eq!(r.stats.quarantines, 0);
    assert_eq!(r.stats.corrupted, 0);
    assert_eq!(r.stats.dropped, 0);
    assert_eq!(r.stats.transmissions, r.stats.offered);
    for (i, o) in r.outcomes.iter().enumerate() {
        let d = o.delivered().expect("clean run delivers everything");
        assert_eq!(d.attempts, 1, "worm {i} retried on a clean run");
    }
    for src in 0..t.nodes() {
        assert!(
            sim.health_table(src).is_empty(),
            "node {src} suspects a link on a clean run"
        );
    }
}

/// The health table converges on exactly the dead links and nothing
/// else: with both of a destination's cables cut, the source learns
/// precisely those two link keys from failed opens alone, while traffic
/// to healthy destinations adds no suspects.
#[test]
fn resilient_health_table_converges_on_the_dead_links() {
    use powermanna::net::fault::{FaultPlan, LinkRef};
    use powermanna::net::routesim::{ResilienceConfig, RouteSim, Worm, WormOutcome};

    let t = Topology::system256();
    let mut sim = RouteSim::new(&t);
    let dead_dst = 127;
    // Every route to a destination ends on its node link, so that is
    // the plane's dead link key.
    let dead_key = |plane: u32| t.node_link_key(dead_dst, plane).expect("node is wired");
    let mut expected = [dead_key(0), dead_key(1)];
    expected.sort_unstable();

    let plan = FaultPlan::clean(3)
        .kill_link(
            Time::ZERO,
            LinkRef::NodeLink {
                node: dead_dst,
                plane: 0,
            },
        )
        .kill_link(
            Time::ZERO,
            LinkRef::NodeLink {
                node: dead_dst,
                plane: 1,
            },
        );
    let worms = vec![
        Worm {
            src: 0,
            dst: dead_dst,
            plane: 0,
            payload: 1024,
            inject_at: Time::ZERO,
        },
        Worm {
            src: 0,
            dst: 126,
            plane: 0,
            payload: 1024,
            inject_at: Time::ZERO,
        },
    ];
    let cfg = ResilienceConfig::default();
    let r = sim.run_resilient(&worms, &plan, &cfg).expect("plan valid");
    let max_attempts = cfg.retry.max_attempts;
    assert_eq!(
        r.outcomes[0],
        WormOutcome::Dropped {
            attempts: max_attempts
        },
        "an unreachable destination exhausts every attempt"
    );
    assert!(r.outcomes[1].delivered().is_some(), "healthy dst delivers");
    let mut suspects: Vec<_> = sim.health_table(0).suspects().collect();
    suspects.sort_unstable();
    assert_eq!(
        suspects, expected,
        "the source must suspect exactly the two dead cables"
    );
}

/// Repair plus quarantine lapse fully restores clean behaviour: after
/// the dead uplink comes back and its quarantine expires, a later worm
/// re-probes it, reinstates it, and its delivery is bit-identical to
/// the same worm under a never-faulted plan.
#[test]
fn resilient_repair_restores_clean_behaviour() {
    use powermanna::net::fault::{FaultPlan, LinkRef};
    use powermanna::net::routesim::{ResilienceConfig, RoutePolicy, RouteSim, Worm};

    let t = Topology::system256();
    let mut sim = RouteSim::new(&t);
    // Candidate 0's uplink into the middle stage for the 0 -> 127 pair.
    let uplink = t.route(0, 127, 0).expect("route").hops[0];
    let (xbar, port) = (uplink.xbar, uplink.out_port);
    let faulted = FaultPlan::clean(9)
        .kill_link(Time::ZERO, LinkRef::XbarPort { xbar, port })
        .repair_link(
            Time::ZERO + Duration::from_us(100),
            LinkRef::XbarPort { xbar, port },
        );
    // Oblivious keeps candidate choice independent of accumulated
    // conflict counts, so the faulted and clean runs pick identical
    // paths once the health table is clean again.
    let cfg = ResilienceConfig {
        policy: RoutePolicy::Oblivious,
        ..ResilienceConfig::default()
    };
    let worms = vec![
        // Wave 1 probes the dead uplink, learns it, reroutes.
        Worm {
            src: 0,
            dst: 127,
            plane: 0,
            payload: 1024,
            inject_at: Time::ZERO + Duration::from_us(1),
        },
        // Wave 2 arrives after the repair AND the quarantine lapse.
        Worm {
            src: 0,
            dst: 127,
            plane: 0,
            payload: 1024,
            inject_at: Time::ZERO + Duration::from_us(1500),
        },
    ];
    let r_faulted = sim
        .run_resilient(&worms, &faulted, &cfg)
        .expect("plan valid");
    let r_clean = sim
        .run_resilient(&worms, &FaultPlan::clean(9), &cfg)
        .expect("clean plan valid");

    let wave1 = r_faulted.outcomes[0].delivered().expect("wave 1 reroutes");
    assert!(wave1.rerouted, "wave 1 must have dodged the dead uplink");
    let wave2_faulted = r_faulted.outcomes[1].delivered().expect("wave 2 delivers");
    assert_eq!(wave2_faulted.attempts, 1, "the re-probe must succeed");
    assert!(!wave2_faulted.rerouted, "wave 2 is back on candidate 0");
    assert_eq!(r_faulted.stats.repairs, 1);
    assert_eq!(
        r_faulted.stats.reinstatements, 1,
        "wave 2's delivery must clear the suspect entry"
    );
    assert_eq!(
        r_faulted.outcomes[1], r_clean.outcomes[1],
        "post-repair delivery must be bit-identical to the clean run"
    );
    assert!(
        sim.health_table(0).is_empty(),
        "no suspects may outlive the clean rerun"
    );
}

// ---------------------------------------------------------------------
// Streamed MatMult traces: every lazy emitter yields exactly what the
// builder-made loop nest yields, instruction for instruction, register
// names included, and the engine cannot tell a streamed lane from a
// materialised one.
// ---------------------------------------------------------------------

use powermanna::cpu::run_smp_at;
use powermanna::isa::TraceBuilder;
use powermanna::workloads::{BlockedMatMult, MatMult, MatMultVersion};

/// Independent oracle: the multiply nest written against `TraceBuilder`.
fn reference_rows(n: usize, version: MatMultVersion, rows: std::ops::Range<usize>) -> Trace {
    let stride_b = MatMult::new(n, version).stride() as u64 * 8;
    let mut tb = TraceBuilder::new();
    for i in rows {
        for j in 0..n {
            let mut acc = tb.reg();
            for k in 0..n {
                let a = tb.load(0x1000_0000 + i as u64 * stride_b + k as u64 * 8, 8);
                let b = match version {
                    MatMultVersion::Naive => {
                        tb.load(0x2001_0000 + k as u64 * stride_b + j as u64 * 8, 8)
                    }
                    MatMultVersion::Transposed => {
                        tb.load(0x3002_0000 + j as u64 * stride_b + k as u64 * 8, 8)
                    }
                };
                acc = tb.fmadd(a, b, acc);
                tb.branch(0x100, k + 1 != n, None);
            }
            tb.store(acc, 0x4003_0000 + i as u64 * stride_b + j as u64 * 8, 8);
        }
    }
    tb.finish()
}

/// Independent oracle: the transposition pass written against `TraceBuilder`.
fn reference_transpose(n: usize) -> Trace {
    let stride_b = MatMult::new(n, MatMultVersion::Transposed).stride() as u64 * 8;
    let mut tb = TraceBuilder::new();
    for j in 0..n {
        for k in 0..n {
            let v = tb.load(0x2001_0000 + k as u64 * stride_b + j as u64 * 8, 8);
            tb.store(v, 0x3002_0000 + j as u64 * stride_b + k as u64 * 8, 8);
            tb.branch(0x200, k + 1 != n, None);
        }
    }
    tb.finish()
}

/// Independent oracle: the tiled nest written against `TraceBuilder`.
fn reference_block_rows(n: usize, t: usize, blocks: std::ops::Range<usize>) -> Trace {
    let stride_b = (if n % 2 == 1 { n } else { n + 1 }) as u64 * 8;
    let mut tb = TraceBuilder::new();
    for bi in blocks {
        for jj in (0..n).step_by(t) {
            for kk in (0..n).step_by(t) {
                for i in bi * t..(bi + 1) * t {
                    let a_row = 0x1000_0000 + i as u64 * stride_b;
                    let c_row = 0x4003_0000 + i as u64 * stride_b;
                    for j in jj..jj + t {
                        let mut acc = tb.load(c_row + j as u64 * 8, 8);
                        for k in kk..kk + t {
                            let a = tb.load(a_row + k as u64 * 8, 8);
                            let b = tb.load(0x2001_0000 + k as u64 * stride_b + j as u64 * 8, 8);
                            acc = tb.fmadd(a, b, acc);
                            tb.branch(0x300, k + 1 != kk + t, None);
                        }
                        tb.store(acc, c_row + j as u64 * 8, 8);
                    }
                }
            }
        }
    }
    tb.finish()
}

/// Asserts that an emitted instruction stream equals its oracle. A
/// mismatch reports both lengths and the first differing index with
/// three instructions on each side of it, not the whole stream: a HINT
/// pass runs to millions of instructions.
#[track_caller]
fn assert_same_instrs(got: &[Instr], want: &[Instr], what: &str) {
    let differ = got.iter().zip(want).position(|(a, b)| a != b);
    let Some(i) = differ.or((got.len() != want.len()).then(|| got.len().min(want.len()))) else {
        return;
    };
    let from = i.saturating_sub(3);
    let near = |s: &[Instr]| s[from..(i + 4).min(s.len())].to_vec();
    panic!(
        "{what}: streams differ at instruction {i} (lengths {} and {})\n\
         emitted[{from}..]: {:?}\n oracle[{from}..]: {:?}",
        got.len(),
        want.len(),
        near(got),
        near(want)
    );
}

fn version_of(rng: &mut SimRng) -> MatMultVersion {
    if rng.gen_bool(0.5) {
        MatMultVersion::Naive
    } else {
        MatMultVersion::Transposed
    }
}

/// Multiply rows: emitter == `trace_rows` == the builder oracle, for odd
/// and even N and random row ranges (N = 40 rows name > 4096 registers,
/// so the wrap is covered).
#[test]
fn matmult_row_emitter_matches_the_trace() {
    let mut rng = cases(50);
    for _ in 0..48 {
        let n = rng.gen_range(1, 41) as usize;
        let version = version_of(&mut rng);
        let begin = rng.gen_range(0, n as u64) as usize;
        let end = rng.gen_range(begin as u64 + 1, n as u64 + 1) as usize;
        let kernel = MatMult::new(n, version);
        let streamed: Vec<Instr> = kernel.emit_rows(begin, end).collect();
        let oracle = reference_rows(n, version, begin..end);
        let what = format!("N={n} {version:?} rows {begin}..{end}");
        assert_same_instrs(&streamed, oracle.instrs(), &what);
        assert!(
            kernel.trace_rows(begin, end) == oracle,
            "{what}: trace_rows"
        );
    }
}

/// Transposition: the whole pass, its two `len/2` halves and any other
/// split concatenate to the builder oracle — odd N splits mid-element,
/// and N = 70 (4900 elements) resumes past the register-name wrap.
#[test]
fn matmult_transpose_emitter_splits_anywhere() {
    let mut rng = cases(51);
    for case in 0..48 {
        let n = if case == 0 {
            70
        } else {
            rng.gen_range(1, 41) as usize
        };
        let kernel = MatMult::new(n, MatMultVersion::Transposed);
        let oracle = reference_transpose(n);
        let len = kernel.transpose_len();
        assert_eq!(len, oracle.len());
        let pass = kernel.transpose_trace();
        assert_same_instrs(pass.instrs(), oracle.instrs(), &format!("N={n}"));
        assert!(pass == oracle, "N={n}: transpose_trace");
        let random_mid = rng.gen_range(0, len as u64 + 1) as usize;
        for mid in [len / 2, random_mid] {
            let mut joined: Vec<Instr> = kernel.emit_transpose(0, mid).collect();
            joined.extend(kernel.emit_transpose(mid, len));
            assert_same_instrs(&joined, oracle.instrs(), &format!("N={n} split at {mid}"));
        }
    }
}

/// Tiled multiply: emitter == `trace_block_rows` == the builder oracle
/// over random tiles dividing N and random block-row ranges.
#[test]
fn blocked_emitter_matches_the_trace() {
    let mut rng = cases(52);
    for _ in 0..48 {
        let n = rng.gen_range(1, 41) as usize;
        let tiles: Vec<usize> = (1..=n).filter(|&t| n.is_multiple_of(t)).collect();
        let tile = tiles[rng.gen_range(0, tiles.len() as u64) as usize];
        let kernel = BlockedMatMult::new(n, tile);
        let blocks = kernel.block_rows();
        let begin = rng.gen_range(0, blocks as u64) as usize;
        let end = rng.gen_range(begin as u64 + 1, blocks as u64 + 1) as usize;
        let streamed: Vec<Instr> = kernel.emit_block_rows(begin, end).collect();
        let oracle = reference_block_rows(n, tile, begin..end);
        let what = format!("N={n} T={tile} blocks {begin}..{end}");
        assert_same_instrs(&streamed, oracle.instrs(), &what);
        assert!(
            kernel.trace_block_rows(begin, end) == oracle,
            "{what}: trace_block_rows"
        );
    }
}

/// `run_smp_at` over emitter lanes returns the same `RunResult`s as the
/// same lanes passed as materialised traces — the dual MatMult's row
/// split (empty first lane at N = 1 included) and its transpose halves.
#[test]
fn smp_streamed_lanes_match_materialised_lanes() {
    let mut rng = cases(53);
    let configs = [CpuConfig::mpc620(), CpuConfig::mpc620()];
    for _ in 0..12 {
        let n = rng.gen_range(1, 25) as usize;
        let kernel = MatMult::new(n, version_of(&mut rng));
        let start = Time::from_ps(rng.gen_range(0, 1_000_000));
        let half = n / 2;
        let (len, mid) = (kernel.transpose_len(), kernel.transpose_len() / 2);

        let mut mem = MemorySystem::new(HierarchyConfig::mpc620_node(2));
        let rows = vec![kernel.emit_rows(0, half), kernel.emit_rows(half, n)];
        let streamed_rows = run_smp_at(&configs, rows, &mut mem, start);
        let halves = vec![
            kernel.emit_transpose(0, mid),
            kernel.emit_transpose(mid, len),
        ];
        let streamed_pass = run_smp_at(&configs, halves, &mut mem, start);

        let mut mem = MemorySystem::new(HierarchyConfig::mpc620_node(2));
        let rows: Vec<Trace> = vec![
            kernel.emit_rows(0, half).collect(),
            kernel.emit_rows(half, n).collect(),
        ];
        let built_rows = run_smp_at(&configs, rows, &mut mem, start);
        let pass = kernel.transpose_trace();
        let halves: Vec<Trace> = vec![
            pass.iter().take(mid).copied().collect(),
            pass.iter().skip(mid).copied().collect(),
        ];
        let built_pass = run_smp_at(&configs, halves, &mut mem, start);

        assert_eq!(streamed_rows, built_rows, "N={n} rows");
        assert_eq!(streamed_pass, built_pass, "N={n} transpose");
    }
}

// ---------------------------------------------------------------------
// Streamed HINT passes: each pass's emitter yields exactly what the
// split loop written against `TraceBuilder` yields, register names
// included.
// ---------------------------------------------------------------------

use powermanna::workloads::hint::{Hint, HintType};

/// Independent oracle: HINT pass `pass` (0-based) written against
/// `TraceBuilder`. The pass splits 2^pass intervals; split `i` reads
/// record `i` of the old arena and writes records `2i` and `2i + 1` of
/// the new one. The arenas sit 65 MiB apart and swap every pass.
fn reference_hint_pass(dtype: HintType, pass: u32) -> Trace {
    let (near, far) = (0x1000_0000, 0x1000_0000 + (65 << 20));
    let (old_base, new_base) = if pass.is_multiple_of(2) {
        (near, far)
    } else {
        (far, near)
    };
    let rec = match dtype {
        HintType::Double => 32,
        HintType::Int => 16,
    };
    let mut tb = TraceBuilder::new();
    for i in 0..1u64 << pass {
        let (old, new) = (old_base + i * rec, new_base + 2 * i * rec);
        match dtype {
            HintType::Double => {
                let x0 = tb.load(old, 8);
                let x1 = tb.load(old + 8, 8);
                let f0 = tb.load(old + 16, 8);
                let f1 = tb.load(old + 24, 8);
                let sum = tb.fadd(x0, x1);
                let xm = tb.fmul(sum, sum);
                let num = tb.fadd(xm, xm);
                let den = tb.fadd(xm, xm);
                let fm = tb.fdiv(num, den);
                let e0 = tb.fmadd(f0, fm, x0);
                tb.fmadd(fm, f1, x1);
                for (k, v) in [x0, xm, f0, fm, xm, x1, fm, f1].into_iter().enumerate() {
                    tb.store(v, new + 8 * k as u64, 8);
                }
                tb.store(e0, old, 8);
            }
            HintType::Int => {
                let x0 = tb.load(old, 8);
                let f0 = tb.load(old + 8, 8);
                let sum = tb.iadd(x0, f0);
                let xm = tb.iadd(sum, sum);
                let seed = tb.imul(xm, f0);
                let corr = tb.imul(seed, xm);
                let fm = tb.iadd(seed, corr);
                let e0 = tb.iadd(fm, x0);
                for (k, v) in [x0, fm, xm, e0].into_iter().enumerate() {
                    tb.store(v, new + 8 * k as u64, 8);
                }
            }
        }
        let (idx, one) = (tb.reg(), tb.reg());
        let next = tb.iadd(idx, one);
        tb.branch(0x40, true, Some(next));
    }
    tb.finish()
}

/// Each data type over random pass counts: the last pass's emitter ==
/// the builder oracle, whatever earlier passes' emitters were left
/// unread. Case 0 runs to pass 12: from pass 9 on a pass names more than
/// 4096 registers (14 per DOUBLE split, 11 per INT split), so the wrap
/// is covered.
#[test]
fn hint_pass_emitter_matches_the_oracle() {
    let mut rng = cases(54);
    for dtype in [HintType::Double, HintType::Int] {
        for case in 0..8 {
            let last = if case == 0 {
                12
            } else {
                rng.gen_range(0, 13) as u32
            };
            let mut hint = Hint::new(dtype);
            for _ in 0..last {
                hint.pass();
            }
            let streamed: Vec<Instr> = hint.pass().ops.collect();
            assert_same_instrs(
                &streamed,
                reference_hint_pass(dtype, last).instrs(),
                &format!("{dtype:?} pass {last}"),
            );
        }
    }
}
