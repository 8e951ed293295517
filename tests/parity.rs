//! Parity suite: each fast or reused path against the path it stands
//! in for.
//!
//! * `pm_net::stopwire::stream_batched`, the one stop-wire engine,
//!   computes flow control in closed-form segments instead of the
//!   per-flit tick loop `stream_per_flit` keeps as its reference, and a
//!   backpressured `Network` transfer over one crossbar must match that
//!   reference (multi-segment routes are held to a joint simulation of
//!   every FIFO in `tests/properties.rs`);
//! * the flat tag stores of `pm_mem::cache::Cache` and `pm_mem::tlb::Tlb`
//!   (one set-major slot array, sliced by shifts and masks) stand in for
//!   the per-set `Vec` stores they replaced, which the suite keeps as a
//!   reference model and drives with the same calls;
//! * `MemorySystem::reset_to`, which pmbench calls between sweep points,
//!   must leave a system exactly as `MemorySystem::new` builds it;
//! * the cycle engine's dispatch cursor and windows must reproduce the
//!   results recorded before they were reworked, on a fixed-seed corpus
//!   that reaches the paths no figure golden does.
//!
//! The observable behaviour must be *byte-identical* between the two
//! sides. This suite runs both over fixed-seed workloads and asserts
//! identical stats; a single diverging counter anywhere fails the build.

use powermanna::machine::hintrun::run_hint;
use powermanna::machine::systems;
use powermanna::mem::hierarchy::AccessResult;
use powermanna::mem::{
    Access, Cache, CacheGeometry, CacheStats, EvictedLine, HierarchyConfig, MemorySystem,
    MesiState, Tlb, TlbConfig, TlbStats,
};
use powermanna::net::crossbar::CrossbarConfig;
use powermanna::net::network::{Network, RouteBackpressure};
use powermanna::net::routesim::{self, Backpressure, RoutePolicy, RouteSim, RouteSimResult};
use powermanna::net::stopwire::{random_windows, stream_batched, stream_per_flit, StopWireConfig};
use powermanna::net::topology::{LinkKind, Topology};
use powermanna::sim::rng::SimRng;
use powermanna::sim::time::Time;

/// One generator per test, derived from a test-specific tag so adding
/// cases to one test never shifts another test's inputs.
fn cases(tag: u64) -> SimRng {
    SimRng::seed_from(0x50617269_74790000 ^ tag)
}

// --- MemorySystem: fresh vs reused --------------------------------------

/// Everything a memory system can report, gathered in one comparable
/// value. If fresh and reused instances diverge in *any* counter or in
/// the access timeline itself, the suite points at the field.
#[derive(Debug, PartialEq)]
struct MemFingerprint {
    timeline: Vec<AccessResult>,
    l1: Vec<CacheStats>,
    l2: Vec<CacheStats>,
    tlb: Vec<TlbStats>,
    bus: powermanna::mem::bus::BusStats,
    dram_accesses: u64,
    dram_bank_conflicts: u64,
    interventions: u64,
    upgrades: u64,
}

/// Drives a fixed pseudo-random access stream (same `seed` ⇒ same
/// stream) through `mem` and fingerprints everything it did.
fn drive(mem: &mut MemorySystem, seed: u64, ops: usize) -> MemFingerprint {
    let cfg = mem.config();
    let mut rng = SimRng::seed_from(seed);
    let mut t = Time::ZERO;
    let mut timeline = Vec::with_capacity(ops);
    for _ in 0..ops {
        let cpu = rng.gen_range(0, cfg.cpus as u64) as usize;
        // A mix of hot lines (coherence traffic) and a cold sweep
        // (capacity/bank traffic).
        let addr = if rng.gen_bool(0.5) {
            rng.gen_range(0, 64) * 64
        } else {
            rng.gen_range(0, 1 << 22)
        };
        let access = if rng.gen_bool(0.3) {
            Access::write(addr)
        } else {
            Access::read(addr)
        };
        let r = mem.access(cpu, access, t);
        t = r.done_at;
        timeline.push(r);
    }
    MemFingerprint {
        timeline,
        l1: (0..cfg.cpus).map(|c| mem.l1_stats(c)).collect(),
        l2: (0..cfg.cpus).map(|c| mem.l2_stats(c)).collect(),
        tlb: (0..cfg.cpus).map(|c| mem.tlb_stats(c)).collect(),
        bus: mem.bus_stats(),
        dram_accesses: mem.dram_accesses(),
        dram_bank_conflicts: mem.dram_bank_conflicts(),
        interventions: mem.interventions(),
        upgrades: mem.upgrades(),
    }
}

/// The node configurations the sweeps actually use, in an order where
/// CPU count, cache geometry, line size, bus protocol, DRAM banks and
/// TLB shape all change between neighbours.
fn sweep_configs() -> Vec<HierarchyConfig> {
    vec![
        HierarchyConfig::mpc620_node(1),
        HierarchyConfig::sun_ultra_node(1),
        HierarchyConfig::mpc620_node(4),
        HierarchyConfig::pentium_node(2, 180.0, 60.0),
        HierarchyConfig::mpc620_node(2),
        HierarchyConfig::pentium_node(1, 266.0, 66.0),
    ]
}

/// A reused instance, `reset_to` a new config between sweep points,
/// behaves byte-identically to a freshly constructed one — including
/// when consecutive points use *different* machines, the worst case for
/// stale state.
#[test]
fn reused_memory_system_matches_fresh_across_configs() {
    let mut rng = cases(1);
    let mut reused = MemorySystem::new(HierarchyConfig::mpc620_node(1));
    for round in 0..2 {
        for (i, cfg) in sweep_configs().into_iter().enumerate() {
            let seed = rng.next_u64();
            let ops = rng.gen_range(100, 400) as usize;
            let fresh_print = drive(&mut MemorySystem::new(cfg), seed, ops);
            reused.reset_to(cfg);
            let reused_print = drive(&mut reused, seed, ops);
            assert_eq!(
                fresh_print, reused_print,
                "fresh and reused diverge at round {round} config {i}"
            );
        }
    }
}

/// `reset_to` with the *same* config leaves the system cold: rerunning
/// the identical stream reproduces the identical fingerprint, so no
/// warmth leaks across sweep points.
#[test]
fn reset_to_same_config_is_cold() {
    let mut rng = cases(2);
    for cfg in sweep_configs() {
        let seed = rng.next_u64();
        let mut mem = MemorySystem::new(cfg);
        let first = drive(&mut mem, seed, 200);
        mem.reset_to(cfg);
        let second = drive(&mut mem, seed, 200);
        assert_eq!(first, second, "state leaked across reset_to");
    }
}

// --- Tag stores: flat slot arrays vs per-set vectors ---------------------

/// One resident line of the reference cache.
#[derive(Clone, Copy)]
struct RefLine {
    tag: u64,
    state: MesiState,
    lru: u64,
}

/// The cache tag store as it was before the flat slot array: one `Vec`
/// per set holding only the resident lines, addresses sliced by division,
/// the first minimum LRU stamp evicted. The reference model for
/// [`Cache`].
struct RefCache {
    line_bytes: u64,
    ways: usize,
    sets: Vec<Vec<RefLine>>,
    clock: u64,
    stats: CacheStats,
}

impl RefCache {
    fn new(g: CacheGeometry) -> Self {
        let ways = g.ways() as usize;
        let sets = g.size_bytes() / (ways as u64 * g.line_bytes() as u64);
        RefCache {
            line_bytes: g.line_bytes() as u64,
            ways,
            sets: vec![Vec::new(); sets as usize],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// (set, tag) of `addr`.
    fn slice(&self, addr: u64) -> (usize, u64) {
        let line = addr / self.line_bytes;
        let sets = self.sets.len() as u64;
        ((line % sets) as usize, line / sets)
    }

    fn probe(&self, addr: u64) -> MesiState {
        let (set, tag) = self.slice(addr);
        self.sets[set]
            .iter()
            .find(|l| l.tag == tag)
            .map_or(MesiState::Invalid, |l| l.state)
    }

    fn lookup(&mut self, addr: u64) -> MesiState {
        self.clock += 1;
        let (set, tag) = self.slice(addr);
        match self.sets[set].iter_mut().find(|l| l.tag == tag) {
            Some(l) => {
                l.lru = self.clock;
                self.stats.hits += 1;
                l.state
            }
            None => {
                self.stats.misses += 1;
                MesiState::Invalid
            }
        }
    }

    fn fill(&mut self, addr: u64, state: MesiState) -> Option<EvictedLine> {
        self.clock += 1;
        let (set_idx, tag) = self.slice(addr);
        let sets = self.sets.len() as u64;
        let set = &mut self.sets[set_idx];
        assert!(set.iter().all(|l| l.tag != tag), "reference double fill");
        let mut victim = None;
        if set.len() == self.ways {
            let (vi, _) = set
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.lru)
                .expect("nonempty set");
            let v = set.swap_remove(vi);
            self.stats.evictions += 1;
            if v.state.dirty() {
                self.stats.writebacks += 1;
            }
            victim = Some(EvictedLine {
                base_addr: (v.tag * sets + set_idx as u64) * self.line_bytes,
                state: v.state,
            });
        }
        set.push(RefLine {
            tag,
            state,
            lru: self.clock,
        });
        victim
    }

    fn set_state(&mut self, addr: u64, state: MesiState) {
        let (set, tag) = self.slice(addr);
        let set = &mut self.sets[set];
        if state == MesiState::Invalid {
            if let Some(i) = set.iter().position(|l| l.tag == tag) {
                set.swap_remove(i);
            }
        } else if let Some(l) = set.iter_mut().find(|l| l.tag == tag) {
            l.state = state;
        }
    }

    fn snoop_set_state(&mut self, addr: u64, state: MesiState) {
        if state == MesiState::Invalid && self.probe(addr) != MesiState::Invalid {
            self.stats.snoop_invalidations += 1;
        }
        self.set_state(addr, state);
    }

    fn resident_lines(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

/// The TLB as it was before the flat slot array: per-set vectors of
/// (page, LRU stamp), indexed by remainder. The reference model for
/// [`Tlb`].
struct RefTlb {
    page_bytes: u64,
    ways: usize,
    sets: Vec<Vec<(u64, u64)>>,
    clock: u64,
    stats: TlbStats,
}

impl RefTlb {
    fn new(c: TlbConfig) -> Self {
        RefTlb {
            page_bytes: c.page_bytes as u64,
            ways: c.ways as usize,
            sets: vec![Vec::new(); (c.entries / c.ways) as usize],
            clock: 0,
            stats: TlbStats::default(),
        }
    }

    fn translate(&mut self, addr: u64) -> bool {
        self.clock += 1;
        let page = addr / self.page_bytes;
        let sets = self.sets.len() as u64;
        let set = &mut self.sets[(page % sets) as usize];
        if let Some(e) = set.iter_mut().find(|(p, _)| *p == page) {
            e.1 = self.clock;
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        if set.len() == self.ways {
            let (vi, _) = set
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, lru))| *lru)
                .expect("nonempty set");
            set.swap_remove(vi);
        }
        set.push((page, self.clock));
        false
    }
}

/// The three machines' nodes, whose L1, L2 and TLB shapes the tag-store
/// parity covers.
fn machine_nodes() -> [HierarchyConfig; 3] {
    [
        HierarchyConfig::mpc620_node(1),
        HierarchyConfig::sun_ultra_node(1),
        HierarchyConfig::pentium_node(1, 180.0, 60.0),
    ]
}

/// Draws an address: mostly one of `2 * ways` tags in four hot sets (so
/// sets overflow and evict), else anywhere in 64 MB.
fn tag_store_addr(rng: &mut SimRng, unit: u64, sets: u64, ways: u32) -> u64 {
    if rng.gen_bool(0.8) {
        let unit_index = rng.gen_range(0, 2 * ways as u64) * sets + rng.gen_range(0, sets.min(4));
        unit_index * unit + rng.gen_range(0, unit)
    } else {
        rng.gen_range(0, 1 << 26)
    }
}

/// What one tag-store call returned.
#[derive(Debug, PartialEq)]
enum Reply {
    State(MesiState),
    Victim(Option<EvictedLine>),
    Nothing,
}

/// Drives `cache`, just built as `g`, and a fresh reference with the
/// same fixed-seed stream of every tag-store call, comparing each return
/// value (victims included) and the touched line's state after it, then
/// the statistics and resident count.
fn drive_tag_stores(cache: &mut Cache, g: CacheGeometry, rng: &mut SimRng, ops: usize) {
    const STATES: [MesiState; 4] = [
        MesiState::Modified,
        MesiState::Exclusive,
        MesiState::Shared,
        MesiState::Invalid,
    ];
    let mut reference = RefCache::new(g);
    for op in 0..ops {
        let addr = tag_store_addr(rng, g.line_bytes() as u64, g.sets(), g.ways());
        let state = STATES[rng.gen_range(0, 4) as usize];
        let (what, flat, oracle) = match rng.gen_range(0, 8) {
            0 => (
                "probe",
                Reply::State(cache.probe(addr)),
                Reply::State(reference.probe(addr)),
            ),
            // Fill as the hierarchy does: only absent lines, never Invalid.
            3..=5 if reference.probe(addr) == MesiState::Invalid => {
                let state = STATES[rng.gen_range(0, 3) as usize];
                (
                    "fill",
                    Reply::Victim(cache.fill(addr, state)),
                    Reply::Victim(reference.fill(addr, state)),
                )
            }
            1..=5 => (
                "lookup",
                Reply::State(cache.lookup(addr)),
                Reply::State(reference.lookup(addr)),
            ),
            6 => {
                cache.set_state(addr, state);
                reference.set_state(addr, state);
                ("set_state", Reply::Nothing, Reply::Nothing)
            }
            _ => {
                cache.snoop_set_state(addr, state);
                reference.snoop_set_state(addr, state);
                ("snoop_set_state", Reply::Nothing, Reply::Nothing)
            }
        };
        assert_eq!(flat, oracle, "{g:?}: op {op} {what} {addr:#x}");
        assert_eq!(
            cache.probe(addr),
            reference.probe(addr),
            "{g:?}: op {op} {what} {addr:#x} left the stores apart"
        );
    }
    let stats = reference.stats;
    assert!(
        stats.evictions > 0 && stats.hits > 0 && stats.snoop_invalidations > 0,
        "{g:?}: the stream must evict, hit and snoop: {stats:?}"
    );
    assert_eq!(cache.stats(), stats, "{g:?}: statistics");
    assert_eq!(
        cache.resident_lines(),
        reference.resident_lines(),
        "{g:?}: resident lines"
    );
}

/// The flat cache matches the per-set reference call for call on the
/// L1 and L2 of all three machines.
#[test]
fn flat_cache_matches_per_set_reference() {
    let mut rng = cases(20);
    let geometries: Vec<CacheGeometry> =
        machine_nodes().iter().flat_map(|n| [n.l1, n.l2]).collect();
    for _round in 0..2 {
        for &g in &geometries {
            drive_tag_stores(&mut Cache::new(g), g, &mut rng, 20_000);
        }
    }
}

/// The flat TLB matches the per-set reference on all three machines'
/// TLBs and on one whose set count (12) is not a power of two.
#[test]
fn flat_tlb_matches_per_set_reference() {
    let mut rng = cases(21);
    let mut configs: Vec<TlbConfig> = machine_nodes().iter().map(|n| n.tlb).collect();
    configs.push(TlbConfig {
        entries: 24,
        ways: 2,
        ..TlbConfig::mpc620()
    });
    for _round in 0..2 {
        for &c in &configs {
            let mut tlb = Tlb::new(c);
            let mut reference = RefTlb::new(c);
            let sets = (c.entries / c.ways) as u64;
            let mut addr = 0;
            for op in 0..20_000 {
                // Repeats hit the entry the previous translation touched.
                if !rng.gen_bool(0.3) {
                    addr = tag_store_addr(&mut rng, c.page_bytes as u64, sets, c.ways);
                }
                assert_eq!(
                    tlb.translate(addr),
                    reference.translate(addr),
                    "{c:?}: op {op} translate {addr:#x}"
                );
            }
            let stats = reference.stats;
            assert!(stats.hits > 0 && stats.misses > 0, "{c:?}: {stats:?}");
            assert_eq!(tlb.stats(), stats, "{c:?}: statistics");
        }
    }
}

// --- Stop wire: per-flit vs batched -------------------------------------

/// Draws a random — but always valid and lossless — stop-wire
/// configuration.
fn random_stop_config(rng: &mut SimRng) -> StopWireConfig {
    let fifo_bytes = rng.gen_range(32, 513) as u32;
    let stop_lag = rng.gen_range(0, 9) as u32;
    // Leave exactly the headroom validate() demands, at minimum.
    let max_stop = fifo_bytes - stop_lag - 1;
    let stop_threshold = rng.gen_range(2, u64::from(max_stop) + 1) as u32;
    let resume_threshold = rng.gen_range(1, u64::from(stop_threshold)) as u32;
    StopWireConfig {
        fifo_bytes,
        stop_threshold,
        resume_threshold,
        stop_lag,
    }
}

/// The batched engine is byte-identical to the per-flit reference over
/// a large corpus of random configurations and backpressure schedules —
/// every stat, not just the finish tick.
#[test]
fn stopwire_engines_agree_on_random_corpus() {
    let mut rng = cases(3);
    for case in 0..400 {
        let config = random_stop_config(&mut rng);
        let start_tick = rng.gen_range(0, 2000);
        let bytes = rng.gen_range(1, 6000);
        let horizon = start_tick + bytes * 3 + 10;
        let count = rng.gen_range(0, 24) as u32;
        let windows = random_windows(&mut rng, horizon, count, 700);

        let a = stream_per_flit(config, start_tick, bytes, &windows);
        let b = stream_batched(config, start_tick, bytes, &windows);
        assert_eq!(
            a, b,
            "engines diverge on case {case}: {config:?} start={start_tick} \
             bytes={bytes} windows={windows:?}"
        );
        // Shared sanity: lossless and bounded regardless of schedule.
        assert_eq!(a.delivered, bytes, "case {case}: bytes dropped");
        assert!(
            a.max_occupancy <= config.fifo_bytes,
            "case {case}: FIFO overflow"
        );
    }
}

/// Pathological schedules the random corpus is unlikely to hit:
/// saturating stalls, stall walls longer than the stream, windows
/// butting against each other, single-byte streams.
#[test]
fn stopwire_engines_agree_on_adversarial_schedules() {
    type Schedule = (u64, u64, Vec<(u64, u64)>);
    let c = StopWireConfig::powermanna();
    let schedules: Vec<Schedule> = vec![
        (0, 1, vec![(0, 100_000)]),
        (0, 10_000, vec![(0, 50_000)]),
        (5, 300, vec![(0, 6), (6, 12), (12, 400)]),
        (0, 1000, (0..200).map(|i| (i * 3, i * 3 + 2)).collect()),
        (999, 256, vec![(1000, 1001)]),
        (0, 4096, vec![(100, 101), (5000, 20_000)]),
    ];
    for (start, bytes, stalls) in schedules {
        let a = stream_per_flit(c, start, bytes, &stalls);
        let b = stream_batched(c, start, bytes, &stalls);
        assert_eq!(a, b, "diverge for start={start} bytes={bytes}");
        assert_eq!(a.delivered, bytes);
    }
}

// --- Route-level backpressure: connection model vs per-flit reference ---

/// The acceptance pin: a backpressured `Network` transfer over a
/// single-crossbar route is byte-identical to the per-flit stop-wire
/// reference — the arrival is the reference's finish tick mapped back
/// to picoseconds plus the head latency charged once, and the
/// destination-side segment stats are the reference's stats verbatim.
#[test]
fn backpressured_network_single_crossbar_matches_per_flit_reference() {
    let mut rng = cases(6);
    let byte_time = powermanna::net::wire::WireConfig::synchronous().byte_time;
    for case in 0..40 {
        let mut net = Network::new(Topology::two_nodes());
        let mut conn = net.open(0, 1, 0, Time::ZERO).expect("two-node route");
        let start =
            conn.ready_at() + powermanna::sim::time::Duration::from_ps(rng.gen_range(0, 50_000));
        let bytes = rng.gen_range(1, 8000);
        let bt = byte_time.as_ps();
        let start_tick = start.as_ps().div_ceil(bt);
        let horizon = start_tick + bytes * 3 + 10;
        let count = rng.gen_range(0, 16) as u32;
        let windows = random_windows(&mut rng, horizon, count, 900);

        let reference = stream_per_flit(StopWireConfig::powermanna(), start_tick, bytes, &windows);

        let bp = RouteBackpressure::powermanna(windows);
        let stats = conn.transfer_backpressured(start, bytes, &bp);
        assert_eq!(
            stats.finished,
            Time::from_ps((reference.finish_tick + 1) * bt) + conn.head_latency(),
            "case {case}: arrival diverges from the reference"
        );
        assert_eq!(
            *stats.per_segment.last().unwrap(),
            reference,
            "case {case}: destination segment stats diverge"
        );
    }
}

// --- RouteSim under backpressure: no state leaks ------------------------

/// Compares everything two route-simulator runs can observably differ in.
fn assert_results_identical(a: &RouteSimResult, b: &RouteSimResult, what: &str) {
    assert_eq!(a.completions, b.completions, "{what}: completions");
    assert_eq!(a.finished_at, b.finished_at, "{what}: makespan");
    assert_eq!(a.payload_bytes, b.payload_bytes, "{what}: payload");
    assert_eq!(a.peak_inflight, b.peak_inflight, "{what}: peak in flight");
    assert_eq!(a.conflicts, b.conflicts, "{what}: conflicts");
    assert_eq!(a.detours, b.detours, "{what}: detours");
}

/// A single-crossbar simulator that just ran a backpressured batch
/// produces the exact same plain-run result afterwards as a brand-new
/// one: backpressure state cannot leak into subsequent runs.
#[test]
fn backpressure_state_does_not_leak_into_plain_runs() {
    let mut topo = Topology::with_nodes(16);
    let x = topo.add_crossbar(CrossbarConfig::powermanna());
    for n in 0..16 {
        topo.connect_node(n, 0, x, n as u32, LinkKind::Synchronous);
    }
    let traffic = routesim::uniform_random_worms(16, 3, 128, 77);
    let bp = Backpressure {
        stop: StopWireConfig::powermanna(),
        windows: vec![vec![(0, 4000)]; 16],
    };
    let mut used = RouteSim::new(&topo);
    let stalled = used.run_with_backpressure(&traffic, &bp);
    let after = used.run(&traffic, RoutePolicy::Oblivious);
    let clean = RouteSim::new(&topo).run(&traffic, RoutePolicy::Oblivious);
    assert!(
        stalled.finished_at > clean.finished_at,
        "the stalled run must differ for the comparison to mean anything"
    );
    assert_results_identical(&after, &clean, "post-backpressure plain run");
}

/// The full QUIPS pipeline is deterministic and unchanged by how many
/// times it runs in a process: no state leaks from one run to the next.
#[test]
fn hint_run_is_stable_across_repeated_runs() {
    use powermanna::workloads::hint::HintType;
    let sys = systems::powermanna();
    let first = run_hint(&sys, HintType::Double, 1 << 15);
    let second = run_hint(&sys, HintType::Double, 1 << 15);
    assert_eq!(first, second);
}

// --- Metrics: publication is observation-only ---------------------------

/// The observability layer's zero-cost contract: publishing to a
/// [`MetricRegistry`](powermanna::sim::metrics::MetricRegistry) copies
/// counters out *after* the fact, so a run that publishes mid-schedule
/// and a run that never constructs a registry produce byte-identical
/// [`TransferOutcome`](powermanna::net::outcome::TransferOutcome)s.
#[test]
fn metrics_publication_never_perturbs_outcomes() {
    use powermanna::net::wire::WireConfig;
    use powermanna::sim::metrics::MetricRegistry;

    let run = |publish: bool| {
        let mut rng = cases(9);
        let mut net = Network::new(Topology::cluster8());
        let mut reg = publish.then(MetricRegistry::new);
        let bt = WireConfig::synchronous().byte_time.as_ps();
        let mut outcomes = Vec::new();
        let mut t = Time::ZERO;
        for _ in 0..8 {
            let src = rng.gen_range(0, 4) as usize;
            let dst = 4 + rng.gen_range(0, 4) as usize;
            let plane = rng.gen_range(0, 2) as u32;
            let payload = 256 + rng.gen_range(0, 6000);
            let mut conn = net.open(src, dst, plane, t).expect("healthy cluster");
            let start = conn.ready_at();
            let t0 = start.as_ps().div_ceil(bt);
            let windows: Vec<(u64, u64)> = random_windows(&mut rng, 30_000, 6, 3_000)
                .into_iter()
                .map(|(s, e)| (t0 + s, t0 + e))
                .collect();
            let bp = RouteBackpressure::powermanna(windows);
            let o = conn.transfer_backpressured(start, payload, &bp);
            conn.close(&mut net, o.finished);
            t = o.finished;
            // Publishing *between* transfers is the adversarial case: a
            // registry write that touched model state would skew the
            // remaining schedule.
            if let Some(reg) = reg.as_mut() {
                o.publish(reg, "net");
                net.publish_metrics(reg, "net");
            }
            outcomes.push(o);
        }
        outcomes
    };
    assert_eq!(
        run(false),
        run(true),
        "publishing metrics changed simulated outcomes"
    );
}

/// A full observability collection pass leaves no global state behind:
/// the quick X5 artifact is byte-identical whether or not
/// [`collect_metrics`](powermanna::machine::observability::collect_metrics)
/// ran in the same process first.
#[test]
fn metrics_collection_leaves_experiments_untouched() {
    use powermanna::machine::experiments::find;
    use powermanna::machine::observability::collect_metrics;
    use powermanna::sim::metrics::MetricRegistry;

    let exp = find("blocking").expect("X5 exists");
    let baseline = (exp.run)(true, &mut MetricRegistry::new()).to_csv();
    let _ = collect_metrics(true);
    let after = (exp.run)(true, &mut MetricRegistry::new()).to_csv();
    assert_eq!(baseline, after, "collection pass perturbed an experiment");
}

// --- RouteSim: the watchdog under load ----------------------------------

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Digest of every per-worm outcome and every run-level number of a
/// resilient run.
fn resilient_digest(r: &powermanna::net::routesim::ResilientResult) -> u64 {
    use powermanna::net::routesim::WormOutcome;
    let mut h = Fnv::new();
    for o in &r.outcomes {
        match o {
            WormOutcome::Delivered(d) => {
                h.u64(d.finished.as_ps());
                h.u64(u64::from(d.plane));
                h.u64(u64::from(d.attempts));
                h.u64(u64::from(d.crc_failures));
                h.u64(u64::from(d.severed));
                h.u64(u64::from(d.failed_over) | u64::from(d.rerouted) << 1);
            }
            WormOutcome::Dropped { attempts } => {
                h.u64(u64::MAX);
                h.u64(u64::from(*attempts));
            }
        }
    }
    h.u64(r.finished_at.as_ps());
    h.u64(r.peak_inflight as u64);
    h.u64(r.conflicts);
    h.u64(r.detours);
    let s = &r.stats;
    for x in [
        s.offered,
        s.offered_bytes,
        s.delivered,
        s.delivered_bytes,
        s.dropped,
        s.dropped_bytes,
        s.transmissions,
        s.failed_opens,
        s.severed,
        s.corrupted,
        s.link_downs,
        s.repairs,
        s.quarantines,
        s.forced_reprobes,
        s.reinstatements,
        s.scans,
        s.orphan_reclaims,
        s.recoveries,
    ] {
        h.u64(x);
    }
    h.0
}

/// pmbench's campaigns never trip the watchdog, so this pins its victim
/// choice and orphan reclaims under load: 4,000 Poisson worms at 1.6x
/// the injection capacity of the 128-node system, with a scan every
/// 50 us and a 100 us stall threshold, on a clean plan and on
/// transients plus six link deaths with repairs, under both failover
/// modes. The digests and counters were recorded before the watchdog
/// scan was rewritten to visit only blocked worms.
#[test]
fn watchdog_under_load_matches_the_recorded_outcomes() {
    use powermanna::net::fault::FaultPlan;
    use powermanna::net::routesim::{
        FailoverMode, ResilienceConfig, RouteSim, WatchdogConfig, Worm,
    };
    use powermanna::net::wire::WireConfig;
    use powermanna::sim::time::Duration;
    use powermanna::workloads::traffic::{TrafficConfig, TrafficGen, TrafficPattern};

    let t = Topology::system256();
    let nodes = t.nodes();
    let capacity = nodes as f64 / WireConfig::synchronous().byte_time.as_secs_f64();
    let gen = TrafficGen::new(TrafficConfig {
        nodes: nodes as u32,
        tenants: nodes as u32,
        pattern: TrafficPattern::Poisson,
        offered_bytes_per_s: 1.6 * capacity,
        payload: 2048,
        messages: 4000,
        seed: 0x5747_4443,
    });
    let worms: Vec<Worm> = gen
        .map(|m| Worm {
            src: m.src as usize,
            dst: m.dst as usize,
            plane: 0,
            payload: m.bytes as u32,
            inject_at: m.at,
        })
        .collect();
    let horizon = worms.last().expect("worms").inject_at;
    let faulted = FaultPlan::clean(0x5747)
        .with_transient_rate(0.03)
        .expect("rate is a probability")
        .random_link_downs(&t, 6, Duration::from_ps(horizon.as_ps() * 3 / 5))
        .repair_all_after(Duration::from_us(300));
    let mut sim = RouteSim::new(&t);
    let mut got = Vec::new();
    for (name, plan) in [("clean", FaultPlan::clean(0x5747)), ("faulted", faulted)] {
        for failover in [FailoverMode::Oracle, FailoverMode::Detected] {
            let cfg = ResilienceConfig {
                failover,
                watchdog: WatchdogConfig {
                    scan_period: Duration::from_us(50),
                    stall_threshold: Duration::from_us(100),
                },
                ..ResilienceConfig::default()
            };
            let r = sim.run_resilient(&worms, &plan, &cfg).expect("plan valid");
            let s = r.stats;
            got.push((
                format!("{name}/{failover:?}"),
                format!("{:016x}", resilient_digest(&r)),
                [
                    s.recoveries,
                    s.orphan_reclaims,
                    s.delivered,
                    s.transmissions,
                    s.scans,
                ],
            ));
        }
    }
    // (run, digest, [recoveries, orphan reclaims, delivered,
    // transmissions, scans]), recorded before the scan rewrite.
    let want: [(&str, &str, [u64; 5]); 4] = [
        ("clean/Oracle", "8b16fcd52afce3c8", [36, 0, 4000, 4036, 56]),
        (
            "clean/Detected",
            "8b16fcd52afce3c8",
            [36, 0, 4000, 4036, 56],
        ),
        (
            "faulted/Oracle",
            "7c5600c4f61e8fb9",
            [41, 6, 4000, 4177, 62],
        ),
        (
            "faulted/Detected",
            "36b319b478db3dce",
            [41, 3, 4000, 4219, 64],
        ),
    ];
    for (name, digest, counters) in &got {
        eprintln!("(\"{name}\", \"{digest}\", {counters:?}),");
    }
    for ((name, digest, counters), (wname, wdigest, wcounters)) in got.iter().zip(want) {
        assert_eq!(name, wname);
        assert_eq!(counters, &wcounters, "{name}");
        assert_eq!(digest, wdigest, "{name}");
    }
}

// --- Cycle engine: recorded corpus ---------------------------------------

/// A fixed-seed instruction stream of `segments` random segments, each
/// aimed at one corner of the cycle engine: a mix of every `OpClass`
/// whose sources come from recent results, a dependent chain of one
/// class, a run of coin-flip branches at one pc (a mispredict storm), a
/// burst of stores to cold lines (the store buffer fills), and loads
/// spread over 4,096 pages, more than any modelled TLB holds.
fn engine_stream(rng: &mut SimRng, segments: usize) -> Vec<powermanna::isa::Instr> {
    use powermanna::isa::{Instr, OpClass, Reg, VAddr};
    const CLASSES: [OpClass; 11] = [
        OpClass::IntAlu,
        OpClass::IntMul,
        OpClass::IntDiv,
        OpClass::FpAdd,
        OpClass::FpMul,
        OpClass::FpMadd,
        OpClass::FpDiv,
        OpClass::Load,
        OpClass::Store,
        OpClass::Branch,
        OpClass::Nop,
    ];
    let mut out = Vec::new();
    let mut last = Reg(0);
    let fresh = |rng: &mut SimRng| Reg(rng.gen_range(0, 4096) as u16);
    for _ in 0..segments {
        match rng.gen_range(0, 5) {
            0 => {
                for _ in 0..rng.gen_range(16, 64) {
                    let src = if rng.gen_bool(0.6) { last } else { fresh(rng) };
                    let other = fresh(rng);
                    let dst = fresh(rng);
                    // Half the memory references hit a 4 KB hot region.
                    let addr = if rng.gen_bool(0.5) {
                        rng.gen_range(0, 512) * 8
                    } else {
                        rng.gen_range(0, 1 << 21) * 8
                    };
                    let instr = match CLASSES[rng.gen_range(0, 11) as usize] {
                        OpClass::Load => Instr::load(dst, VAddr(addr), 8, Some(src)),
                        OpClass::Store => Instr::store(src, VAddr(addr), 8),
                        OpClass::Branch => {
                            let pc = rng.gen_range(0, 8) * 4;
                            Instr::branch_at(pc, rng.gen_bool(0.8), Some(src))
                        }
                        OpClass::Nop => Instr::nop(),
                        op => Instr::alu(op, Some(dst), Some(src), Some(other)),
                    };
                    if instr.dst.is_some() {
                        last = dst;
                    }
                    out.push(instr);
                }
            }
            1 => {
                let op = CLASSES[rng.gen_range(0, 8) as usize];
                for _ in 0..rng.gen_range(8, 32) {
                    let dst = fresh(rng);
                    out.push(match op {
                        OpClass::Load => {
                            let addr = rng.gen_range(0, 1 << 16) * 8;
                            Instr::load(dst, VAddr(addr), 8, Some(last))
                        }
                        op => Instr::alu(op, Some(dst), Some(last), Some(last)),
                    });
                    last = dst;
                }
            }
            2 => {
                let pc = 0x400 + rng.gen_range(0, 4) * 4;
                for _ in 0..rng.gen_range(16, 64) {
                    out.push(Instr::branch_at(pc, rng.gen_bool(0.5), None));
                }
            }
            3 => {
                let base = rng.gen_range(0, 1 << 14) * 4096;
                for i in 0..rng.gen_range(16, 48) {
                    out.push(Instr::store(last, VAddr(base + i * 64), 8));
                }
            }
            _ => {
                for _ in 0..rng.gen_range(32, 96) {
                    let addr = rng.gen_range(0, 4096) * 4096 + rng.gen_range(0, 512) * 8;
                    let dst = fresh(rng);
                    out.push(Instr::load(dst, VAddr(addr), 8, None));
                    last = dst;
                }
            }
        }
    }
    out
}

/// Every field of a `RunResult`, in declaration order, as integers.
fn run_fields(r: &powermanna::cpu::RunResult) -> [u64; 13] {
    [
        r.instrs,
        r.cycles,
        r.elapsed.as_ps(),
        r.finished_at.as_ps(),
        r.flops,
        r.loads,
        r.stores,
        r.branches,
        r.mispredicts,
        r.operand_stall.as_ps(),
        r.unit_stall.as_ps(),
        r.load_latency.as_ps(),
        r.frontend_stall.as_ps(),
    ]
}

/// MatMult and HINT never issue an integer or FP divide or a mispredict
/// storm, so no golden pins those engine paths. This corpus does, on
/// every machine preset with its own node memory: two streams through
/// `Cpu::execute_at` on one `Cpu` and one memory system (the second
/// starts later, off a clock edge, with the predictor and caches warm),
/// then two more through a two-lane `run_smp_at` on a fresh memory
/// system. Each row holds every `RunResult` field in declaration order;
/// the values were recorded before the engine's dispatch cursor and
/// windows were rewritten.
#[test]
fn engine_corpus_matches_the_recorded_results() {
    use powermanna::cpu::{run_smp_at, Cpu};

    let mut rng = cases(0xC0DE);
    let mut got = Vec::new();
    for sys in [
        systems::powermanna(),
        systems::sun_ultra(),
        systems::pentium_180(),
        systems::pentium_266(),
    ] {
        let mut mem = MemorySystem::new(sys.node.mem);
        let mut cpu = Cpu::new(sys.node.cpu.clone());
        let first = cpu.execute_at(
            engine_stream(&mut rng, 400),
            &mut mem,
            0,
            Time::from_ps(1_000_003),
        );
        let later = Time::from_ps(first.finished_at.as_ps() + 2_777);
        let second = cpu.execute_at(engine_stream(&mut rng, 400), &mut mem, 0, later);
        got.push((sys.name, "first", run_fields(&first)));
        got.push((sys.name, "second", run_fields(&second)));

        let mut mem = MemorySystem::new(sys.node.mem);
        let lanes = vec![engine_stream(&mut rng, 300), engine_stream(&mut rng, 300)];
        let cpus = [sys.node.cpu.clone(), sys.node.cpu.clone()];
        let smp = run_smp_at(&cpus, lanes, &mut mem, Time::from_ps(5_000_001));
        got.push((sys.name, "lane0", run_fields(&smp[0])));
        got.push((sys.name, "lane1", run_fields(&smp[1])));
    }
    // (system, run, [instrs, cycles, elapsed, finished_at, flops, loads,
    // stores, branches, mispredicts, operand_stall, unit_stall,
    // load_latency, frontend_stall]), times in ps.
    #[rustfmt::skip]
    let want: [(&str, &str, [u64; 13]); 16] = [
        ("PowerMANNA", "first", [15773, 529463, 2941463558, 2942463561, 1991, 6088, 2550, 3808, 1815, 4096879892, 149640254, 1754530132, 2936150153]),
        ("PowerMANNA", "second", [15488, 467064, 2594803998, 5537270336, 2725, 5331, 2722, 3725, 1787, 3728394602, 135652191, 1491444348, 2582889044]),
        ("PowerMANNA", "lane0", [11962, 400010, 2222279416, 2227279417, 1892, 4166, 2324, 2570, 1193, 2665117453, 93324893, 1327380827, 2216589008]),
        ("PowerMANNA", "lane1", [11844, 419792, 2332177786, 2337177787, 1772, 4417, 2073, 2554, 1188, 3309217093, 134031969, 1433718813, 2328394561]),
        ("SUN", "first", [15823, 479682, 2855255786, 2856255789, 1911, 6911, 2566, 2875, 1339, 6191898434, 15691891, 2057955353, 2850303683]),
        ("SUN", "second", [16186, 443145, 2637771196, 5494029762, 2549, 6106, 2859, 3296, 1545, 6840500833, 19619004, 1787303296, 2632345390]),
        ("SUN", "lane0", [11025, 370801, 2207154761, 2212154762, 1456, 3908, 2200, 2588, 1263, 4638654810, 7164065, 1949810392, 2203238199]),
        ("SUN", "lane1", [11432, 376572, 2241500234, 2246500235, 1562, 3934, 2413, 2804, 1328, 5036317497, 8369991, 1919303492, 2234773902]),
        ("PC/180", "first", [16080, 243015, 1350086103, 1351086106, 2092, 6286, 2586, 3897, 1904, 8400751959, 752477978, 2623969894, 1329861299]),
        ("PC/180", "second", [15398, 200315, 1112861198, 2463950081, 2586, 5123, 2181, 4243, 2004, 7642656995, 557870762, 2068381093, 1098705763]),
        ("PC/180", "lane0", [11464, 287358, 1596435981, 1601435982, 2070, 3925, 2343, 2476, 1175, 9736097748, 529288380, 4074540945, 1576683446]),
        ("PC/180", "lane1", [11339, 304163, 1689794918, 1694794919, 1699, 4193, 2189, 2393, 1153, 12394603385, 559685710, 4377372817, 1678261226]),
        ("PC/266", "first", [15770, 330560, 1242710523, 1243710526, 2007, 5742, 2989, 3792, 1819, 6377494289, 480877254, 2451363496, 1235710689]),
        ("PC/266", "second", [15500, 310119, 1165861928, 2409575231, 2575, 5261, 2781, 3566, 1623, 8696646534, 663630433, 2154920558, 1158003953]),
        ("PC/266", "lane0", [11192, 398305, 1497388949, 1502388950, 1827, 3706, 2109, 2898, 1352, 8524255711, 405154790, 3935238953, 1491477572]),
        ("PC/266", "lane1", [11668, 425933, 1601252172, 1606252173, 2047, 4293, 2059, 2275, 1114, 8723938050, 600855635, 4337254051, 1595496378]),
    ];
    for (sys, run, fields) in &got {
        eprintln!("(\"{sys}\", \"{run}\", {fields:?}),");
    }
    assert_eq!(got.len(), want.len());
    for ((sys, run, fields), (wsys, wrun, wfields)) in got.iter().zip(want) {
        assert_eq!((*sys, *run), (wsys, wrun));
        assert_eq!(fields, &wfields, "{sys} {run}");
    }
}
