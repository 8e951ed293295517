//! The one-pass superscalar cycle-accounting engine.
//!
//! The engine walks an instruction trace in program order, assigning each
//! micro-op a dispatch slot (bounded by issue width, the reorder window
//! and rename-buffer pressure), an issue time (operands ready + a free
//! unit instance), and an in-order completion time. Loads and stores call
//! into the shared [`MemorySystem`], so cache behaviour and bus contention
//! feed straight back into the schedule.
//!
//! The dispatch slot walks the core clock on a [`CycleCursor`], which
//! adds rather than divides. The reorder window, the rename buffers and
//! the store buffer are power-of-two rings of completion times, pruned
//! on demand: the two sorted windows drop completed entries only when
//! they hold enough to stall dispatch, and the store buffer only when a
//! store finds it full.

use crate::config::{CpuConfig, UnitTiming};
use crate::predictor::BranchPredictor;
use pm_isa::{Instr, OpClass};
use pm_mem::{Access, MemorySystem};
use pm_sim::time::{CycleCursor, Duration, Time};

/// Aggregate result of executing a trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunResult {
    /// Micro-operations executed.
    pub instrs: u64,
    /// Elapsed core cycles.
    pub cycles: u64,
    /// Elapsed simulated time.
    pub elapsed: Duration,
    /// Absolute finish time (completion of the last instruction).
    pub finished_at: Time,
    /// Floating-point operations performed (fmadd counts two).
    pub flops: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// Branches executed.
    pub branches: u64,
    /// Mispredicted branches.
    pub mispredicts: u64,
    /// Accumulated time instructions waited for source operands beyond
    /// their dispatch slot.
    pub operand_stall: Duration,
    /// Accumulated time ready instructions waited for a busy execution
    /// unit (structural hazard).
    pub unit_stall: Duration,
    /// Accumulated memory latency observed by loads (hit time included).
    pub load_latency: Duration,
    /// Accumulated dispatch-cursor delay from pipeline refills and full
    /// reorder/rename windows.
    pub frontend_stall: Duration,
}

impl RunResult {
    /// Achieved MFLOPS over the run.
    pub fn mflops(&self) -> f64 {
        if self.elapsed == Duration::ZERO {
            0.0
        } else {
            self.flops as f64 / self.elapsed.as_secs_f64() / 1e6
        }
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instrs as f64 / self.cycles as f64
        }
    }

    /// Average memory latency per load.
    pub fn avg_load_latency(&self) -> Duration {
        if self.loads == 0 {
            Duration::ZERO
        } else {
            self.load_latency / self.loads
        }
    }
}

/// Accumulates the structural-hazard wait of one unit issue.
#[inline]
fn track_unit(issue: (Time, Time), ready: Time, result: &mut RunResult) -> Time {
    let (start, done) = issue;
    result.unit_stall += start.since(ready.min(start));
    done
}

/// Per-unit-class pipeline state (a set of identical instances).
#[derive(Clone, Debug)]
struct UnitPool {
    timing: UnitTiming,
    next_issue: Vec<Time>,
}

impl UnitPool {
    fn new(timing: UnitTiming) -> Self {
        UnitPool {
            timing,
            next_issue: vec![Time::ZERO; timing.count as usize],
        }
    }

    /// Issues an op that is ready at `t`; returns (start, result) times.
    #[inline]
    fn issue(&mut self, t: Time, cycle: Duration) -> (Time, Time) {
        // Pick the instance that frees first.
        let (idx, &free) = self
            .next_issue
            .iter()
            .enumerate()
            .min_by_key(|(_, &f)| f)
            .expect("unit pool has at least one instance");
        let start = t.max(free);
        self.next_issue[idx] = start + cycle * self.timing.initiation as u64;
        (start, start + cycle * self.timing.latency as u64)
    }
}

/// A FIFO of completion times in a power-of-two ring that doubles when
/// full, so it keeps every entry and stops reallocating once it has
/// grown to the most a run holds.
#[derive(Clone, Debug)]
struct Ring {
    slots: Vec<Time>,
    /// Slot of the oldest entry.
    head: usize,
    len: usize,
}

impl Ring {
    /// An empty ring with room for at least `n` entries.
    fn with_capacity(n: u32) -> Self {
        Ring {
            slots: vec![Time::ZERO; (n as usize).next_power_of_two()],
            head: 0,
            len: 0,
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
    }

    /// The `i`-th oldest entry.
    #[inline]
    fn get(&self, i: usize) -> Time {
        debug_assert!(i < self.len, "ring index {i} past {}", self.len);
        self.slots[(self.head + i) & (self.slots.len() - 1)]
    }

    #[inline]
    fn push_back(&mut self, t: Time) {
        if self.len == self.slots.len() {
            self.grow();
        }
        let slot = (self.head + self.len) & (self.slots.len() - 1);
        self.slots[slot] = t;
        self.len += 1;
    }

    /// Removes and returns the oldest entry.
    #[inline]
    fn pop_front(&mut self) -> Time {
        assert!(self.len > 0, "pop from an empty ring");
        let t = self.slots[self.head];
        self.head = (self.head + 1) & (self.slots.len() - 1);
        self.len -= 1;
        t
    }

    #[cold]
    fn grow(&mut self) {
        let mut slots: Vec<Time> = (0..self.len).map(|i| self.get(i)).collect();
        slots.resize(2 * self.slots.len(), Time::ZERO);
        self.slots = slots;
        self.head = 0;
    }

    /// For a ring sorted oldest-first: the completion time dispatch at
    /// `now` waits for while `limit` or more entries complete after
    /// `now`, or `None` if fewer do. Completed entries are dropped only
    /// when the ring holds `limit` or more; dispatch time never falls
    /// within a run, so an entry kept past its completion can never
    /// count again, and the entry returned is the one a fully pruned
    /// ring would return.
    #[inline]
    fn wait_for_room(&mut self, limit: u32, now: Time) -> Option<Time> {
        let limit = limit as usize;
        if self.len < limit {
            return None;
        }
        while self.len > 0 && self.slots[self.head] <= now {
            self.pop_front();
        }
        (self.len >= limit).then(|| self.get(self.len - limit))
    }
}

/// The CPU timing model.
///
/// A `Cpu` is stateful across calls to [`Cpu::execute`] only in its branch
/// predictor (history persists, like real silicon); pipeline state resets
/// per run. Use [`Cpu::execute_at`] to continue simulated time across
/// phases.
#[derive(Clone, Debug)]
pub struct Cpu {
    config: CpuConfig,
    predictor: BranchPredictor,
    // Pipeline state (reset per run).
    reg_ready: Vec<Time>,
    int_alu: UnitPool,
    int_mul: UnitPool,
    int_div: UnitPool,
    fp_add: UnitPool,
    fp_mul: UnitPool,
    fp_div: UnitPool,
    lsu_next: Time,
    load_slots: Vec<Time>,
    /// Completion times of buffered stores, in program order (unsorted).
    store_buffer: Ring,
    /// Completion times of the reorder window, sorted.
    inflight: Ring,
    /// Completion times of the register writers in flight, sorted.
    writers: Ring,
    last_complete: Time,
    last_issue: Time,
    restart_after: Time,
    /// The core-clock cycle instructions are dispatching in.
    dispatch: CycleCursor,
    slots_used: u32,
    /// The core clock period, converted once.
    period: Duration,
}

impl Cpu {
    /// Creates a CPU in reset state.
    ///
    /// # Panics
    ///
    /// Panics if `issue_width`, `reorder_window`, `rename_buffers`,
    /// `max_outstanding_loads`, `store_buffer` or the `count` of any
    /// execution unit is zero, naming the field, and if `bht_entries` is
    /// not a power of two (see [`BranchPredictor::new`]).
    pub fn new(config: CpuConfig) -> Self {
        for (field, value) in [
            ("issue_width", config.issue_width),
            ("reorder_window", config.reorder_window),
            ("rename_buffers", config.rename_buffers),
            ("max_outstanding_loads", config.max_outstanding_loads),
            ("store_buffer", config.store_buffer),
            ("int_alu.count", config.int_alu.count),
            ("int_mul.count", config.int_mul.count),
            ("int_div.count", config.int_div.count),
            ("fp_add.count", config.fp_add.count),
            ("fp_mul.count", config.fp_mul.count),
            ("fp_div.count", config.fp_div.count),
        ] {
            assert!(value > 0, "CpuConfig::{field} must be nonzero");
        }
        let predictor = BranchPredictor::new(config.bht_entries);
        Cpu {
            reg_ready: vec![Time::ZERO; 4096],
            int_alu: UnitPool::new(config.int_alu),
            int_mul: UnitPool::new(config.int_mul),
            int_div: UnitPool::new(config.int_div),
            fp_add: UnitPool::new(config.fp_add),
            fp_mul: UnitPool::new(config.fp_mul),
            fp_div: UnitPool::new(config.fp_div),
            lsu_next: Time::ZERO,
            load_slots: vec![Time::ZERO; config.max_outstanding_loads as usize],
            store_buffer: Ring::with_capacity(config.store_buffer),
            inflight: Ring::with_capacity(config.reorder_window),
            writers: Ring::with_capacity(config.rename_buffers),
            last_complete: Time::ZERO,
            last_issue: Time::ZERO,
            restart_after: Time::ZERO,
            dispatch: CycleCursor::new(config.clock, 0),
            slots_used: 0,
            period: config.clock.period(),
            predictor,
            config,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CpuConfig {
        &self.config
    }

    /// The branch predictor (shared across runs).
    pub fn predictor(&self) -> &BranchPredictor {
        &self.predictor
    }

    /// Executes a trace from simulated time zero on `mem` port `cpu_id`.
    pub fn execute<I>(&mut self, trace: I, mem: &mut MemorySystem, cpu_id: usize) -> RunResult
    where
        I: IntoIterator<Item = Instr>,
    {
        self.execute_at(trace, mem, cpu_id, Time::ZERO)
    }

    /// Executes a trace starting no earlier than `start`.
    pub fn execute_at<I>(
        &mut self,
        trace: I,
        mem: &mut MemorySystem,
        cpu_id: usize,
        start: Time,
    ) -> RunResult
    where
        I: IntoIterator<Item = Instr>,
    {
        run_lanes(
            std::slice::from_mut(self),
            [trace.into_iter()],
            cpu_id,
            mem,
            start,
        )[0]
    }

    /// Executes exactly one instruction; [`run_lanes`] is the only caller.
    ///
    /// Always inlined, so that a streamed lane's emitter writes each
    /// instruction straight into the engine's registers rather than to
    /// memory the engine reads back (DESIGN.md §7, "The instruction
    /// hand-off").
    #[inline(always)]
    fn step(
        &mut self,
        instr: &Instr,
        mem: &mut MemorySystem,
        cpu_id: usize,
        result: &mut RunResult,
    ) {
        let cycle = self.period;
        result.instrs += 1;
        result.flops += instr.op.flops();

        // --- Dispatch --------------------------------------------------
        if self.slots_used >= self.config.issue_width {
            self.dispatch.advance();
            self.slots_used = 0;
        }
        let mut dispatch = self.dispatch.at();
        let natural_dispatch = dispatch;

        // Pipeline-refill after a mispredicted branch.
        if self.restart_after > dispatch {
            dispatch = self.bump_dispatch(self.restart_after);
        }
        // Reorder window: dispatch stalls while full.
        if let Some(free_at) = self
            .inflight
            .wait_for_room(self.config.reorder_window, dispatch)
        {
            dispatch = self.bump_dispatch(free_at);
        }
        // Rename buffers: writers in flight bounded.
        if instr.dst.is_some() {
            if let Some(free_at) = self
                .writers
                .wait_for_room(self.config.rename_buffers, dispatch)
            {
                dispatch = self.bump_dispatch(free_at);
            }
        }
        result.frontend_stall += dispatch.since(natural_dispatch.min(dispatch));
        self.slots_used += 1;

        // --- Operands ---------------------------------------------------
        let mut ready1 = dispatch;
        let mut ready2 = dispatch;
        if let Some(src) = instr.src1 {
            ready1 = ready1.max(self.reg_ready[src.0 as usize]);
        }
        if let Some(src) = instr.src2 {
            ready2 = ready2.max(self.reg_ready[src.0 as usize]);
        }
        let mut ready = ready1.max(ready2);
        if !self.config.out_of_order {
            // In-order issue: cannot pass an older, stalled instruction.
            ready = ready.max(self.last_issue);
            ready1 = ready1.max(self.last_issue);
            ready2 = ready2.max(self.last_issue);
        }
        result.operand_stall += ready.since(dispatch.min(ready));

        // --- Execute ----------------------------------------------------
        let result_at = match instr.op {
            OpClass::Nop => ready,
            OpClass::IntAlu => track_unit(self.int_alu.issue(ready, cycle), ready, result),
            OpClass::IntMul => track_unit(self.int_mul.issue(ready, cycle), ready, result),
            OpClass::IntDiv => track_unit(self.int_div.issue(ready, cycle), ready, result),
            OpClass::FpAdd => track_unit(self.fp_add.issue(ready, cycle), ready, result),
            OpClass::FpMul => track_unit(self.fp_mul.issue(ready, cycle), ready, result),
            OpClass::FpDiv => track_unit(self.fp_div.issue(ready, cycle), ready, result),
            OpClass::FpMadd => {
                if self.config.fused_madd {
                    // One pass through the (multiply) pipeline; all three
                    // operands enter together.
                    self.fp_mul.issue(ready, cycle).1
                } else {
                    // Cracked: the multiply needs only the product
                    // operands (src1); the dependent add joins the
                    // accumulator (src2) when the product is out. A
                    // reduction chain is therefore bound by the *add*
                    // latency, not mul + add.
                    let mul_done = self.fp_mul.issue(ready1, cycle).1;
                    self.fp_add.issue(mul_done.max(ready2), cycle).1
                }
            }
            OpClass::Load => {
                result.loads += 1;
                let mem_ref = instr.mem.expect("load without memory reference");
                // LSU accepts one memory op per cycle.
                let lsu_start = ready.max(self.lsu_next);
                self.lsu_next = lsu_start + cycle;
                // Outstanding-load slots: without load pipelining there is
                // exactly one, so a miss blocks the next load entirely.
                let (slot_idx, &slot_free) = self
                    .load_slots
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &f)| f)
                    .expect("at least one load slot");
                let issue = lsu_start.max(slot_free);
                let access = mem.access(cpu_id, Access::read(mem_ref.addr.0), issue);
                self.load_slots[slot_idx] = access.done_at;
                result.load_latency += access.latency;
                access.done_at
            }
            OpClass::Store => {
                result.stores += 1;
                let mem_ref = instr.mem.expect("store without memory reference");
                let lsu_start = ready.max(self.lsu_next);
                self.lsu_next = lsu_start + cycle;
                // Store buffer: retire asynchronously unless full. An
                // entry that completed before dispatch pops here without
                // stalling, so the buffer needs no other pruning.
                while self.store_buffer.len() >= self.config.store_buffer as usize {
                    let oldest = self.store_buffer.pop_front();
                    if oldest > lsu_start {
                        // Stall the LSU until a buffer slot drains.
                        self.lsu_next = self.lsu_next.max(oldest);
                    }
                }
                let access = mem.access(cpu_id, Access::write(mem_ref.addr.0), lsu_start);
                self.store_buffer.push_back(access.done_at);
                // The store itself completes once buffered.
                lsu_start + cycle
            }
            OpClass::Branch => {
                result.branches += 1;
                let info = instr.branch.expect("branch without descriptor");
                let resolve = ready + cycle;
                let correct = self.predictor.predict_and_update(info.pc, info.taken);
                if !correct {
                    result.mispredicts += 1;
                    self.restart_after = resolve + cycle * self.config.mispredict_penalty as u64;
                }
                resolve
            }
        };

        // --- Writeback & in-order completion ------------------------------
        if let Some(dst) = instr.dst {
            self.reg_ready[dst.0 as usize] = result_at;
            self.writers.push_back(result_at.max(self.last_complete));
        }
        self.last_issue = self.last_issue.max(ready);
        let complete = result_at.max(self.last_complete);
        self.last_complete = complete;
        self.inflight.push_back(complete);
    }

    /// Completion time of everything executed so far in the current run.
    pub fn now(&self) -> Time {
        self.last_complete
    }

    fn reset_pipeline(&mut self, start: Time) {
        self.reg_ready.fill(start);
        for p in [
            &mut self.int_alu,
            &mut self.int_mul,
            &mut self.int_div,
            &mut self.fp_add,
            &mut self.fp_mul,
            &mut self.fp_div,
        ] {
            p.next_issue.fill(start);
        }
        self.lsu_next = start;
        self.load_slots.fill(start);
        self.store_buffer.clear();
        self.inflight.clear();
        self.writers.clear();
        self.last_complete = start;
        self.last_issue = start;
        self.restart_after = start;
        self.dispatch.seek(self.config.clock.cycle_at(start));
        self.slots_used = 0;
    }

    /// Moves dispatch on to the cycle [`CycleCursor::catch_up`] picks for
    /// `t` (the first at or after `t`, or the one before it when that
    /// cycle's start rounds down) and returns its start.
    #[inline]
    fn bump_dispatch(&mut self, t: Time) -> Time {
        if self.dispatch.catch_up(t) {
            self.slots_used = 0;
        }
        self.dispatch.at()
    }
}

/// The lane loop under [`Cpu::execute_at`] and
/// [`run_smp_at`](crate::smp::run_smp_at): runs `lanes[k]` on `cpus[k]`
/// at memory port `port + k`, every pipeline restarting at `start`, and
/// returns one [`RunResult`] per lane. The live lane furthest behind
/// keeps the turn until it passes the next one (ties go to the lower
/// index), which is the order a pick before every instruction gives.
pub(crate) fn run_lanes<I: Iterator<Item = Instr>>(
    cpus: &mut [Cpu],
    lanes: impl IntoIterator<Item = I>,
    port: usize,
    mem: &mut MemorySystem,
    start: Time,
) -> Vec<RunResult> {
    for cpu in cpus.iter_mut() {
        cpu.reset_pipeline(start);
    }
    let mut lanes: Vec<Option<I>> = lanes.into_iter().map(Some).collect();
    let mut results = vec![RunResult::default(); cpus.len()];
    let mut live: Vec<usize> = (0..cpus.len()).collect();
    while let Some(&i) = live.iter().min_by_key(|&&k| (cpus[k].now(), k)) {
        let rival = live
            .iter()
            .filter(|&&k| k != i)
            .map(|&k| (cpus[k].now(), k))
            .min()
            .unwrap_or((Time::MAX, usize::MAX));
        let cpu = &mut cpus[i];
        // A turn steps local copies of the lane's stream and result, which
        // the compiler can keep in registers across the memory calls.
        let mut lane = lanes[i].take().expect("a live lane keeps its stream");
        let mut result = results[i];
        let exhausted = loop {
            let Some(instr) = lane.next() else {
                break true;
            };
            cpu.step(&instr, mem, port + i, &mut result);
            if (cpu.now(), i) > rival {
                break false;
            }
        };
        if exhausted {
            result.finished_at = cpu.now();
            result.elapsed = result.finished_at.since(start);
            result.cycles = cpu.config.clock.cycles_in(result.elapsed);
            live.retain(|&k| k != i);
        } else {
            lanes[i] = Some(lane);
        }
        results[i] = result;
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_isa::{Reg, TraceBuilder, VAddr};
    use pm_mem::HierarchyConfig;
    use pm_sim::rng::SimRng;

    fn mpc620_setup() -> (Cpu, MemorySystem) {
        (
            Cpu::new(CpuConfig::mpc620()),
            MemorySystem::new(HierarchyConfig::mpc620_node(1)),
        )
    }

    #[test]
    fn empty_trace_takes_no_time() {
        let (mut cpu, mut mem) = mpc620_setup();
        let r = cpu.execute(Vec::new(), &mut mem, 0);
        assert_eq!(r.instrs, 0);
        assert_eq!(r.elapsed, Duration::ZERO);
    }

    #[test]
    fn independent_alu_ops_superscalar() {
        // 400 independent integer ops on a 4-wide machine with 2 ALUs:
        // bounded by the 2 ALUs → about 200 cycles.
        let (mut cpu, mut mem) = mpc620_setup();
        let mut tb = TraceBuilder::new();
        let a = tb.reg();
        let b = tb.reg();
        for _ in 0..400 {
            tb.iadd(a, b);
        }
        let r = cpu.execute(tb.finish(), &mut mem, 0);
        assert!(
            (195..=230).contains(&r.cycles),
            "expected ~200 cycles, got {}",
            r.cycles
        );
    }

    #[test]
    fn dependent_chain_serialises() {
        // A chain of 100 dependent FP adds (3-cycle latency) needs ~300
        // cycles.
        let (mut cpu, mut mem) = mpc620_setup();
        let mut tb = TraceBuilder::new();
        let mut acc = tb.reg();
        let one = tb.reg();
        for _ in 0..100 {
            acc = tb.fadd(acc, one);
        }
        let r = cpu.execute(tb.finish(), &mut mem, 0);
        assert!(
            (295..=330).contains(&r.cycles),
            "expected ~300 cycles, got {}",
            r.cycles
        );
    }

    #[test]
    fn independent_fmadds_pipeline_on_620() {
        // Independent fmadds through the pipelined FPU: ~1/cycle.
        let (mut cpu, mut mem) = mpc620_setup();
        let mut tb = TraceBuilder::new();
        let a = tb.reg();
        let b = tb.reg();
        for _ in 0..300 {
            let acc = tb.reg();
            tb.fmadd(a, b, acc);
        }
        let r = cpu.execute(tb.finish(), &mut mem, 0);
        assert!(
            (300..=360).contains(&r.cycles),
            "expected ~300 cycles, got {}",
            r.cycles
        );
        assert_eq!(r.flops, 600);
    }

    #[test]
    fn cracked_madd_slower_without_fusion() {
        // The same kernel on a no-fused-madd machine takes longer per op.
        let mut tb = TraceBuilder::new();
        let a = tb.reg();
        let b = tb.reg();
        let mut acc = tb.reg();
        for _ in 0..100 {
            acc = tb.fmadd(a, b, acc);
        }
        let trace = tb.finish();

        let mut mem = MemorySystem::new(HierarchyConfig::mpc620_node(1));
        let mut pm = Cpu::new(CpuConfig::mpc620());
        let r_pm = pm.execute(trace.clone(), &mut mem, 0);

        let mut mem2 = MemorySystem::new(HierarchyConfig::sun_ultra_node(1));
        let mut sun = Cpu::new(CpuConfig::ultrasparc_i());
        let r_sun = sun.execute(trace, &mut mem2, 0);

        assert!(
            r_sun.cycles > r_pm.cycles,
            "cracked madd ({}) should cost more cycles than fused ({})",
            r_sun.cycles,
            r_pm.cycles
        );
    }

    #[test]
    fn load_miss_blocks_next_load_without_pipelining() {
        // Two independent loads to different DRAM lines: on the 620 the
        // second waits for the first (1 slot); on the PII they overlap.
        fn loads(n: u64) -> pm_isa::Trace {
            let mut tb = TraceBuilder::new();
            for i in 0..n {
                // Different DRAM banks and cache sets: fully independent.
                tb.load(i << 20, 8);
            }
            tb.finish()
        }
        // Measure how much of the second miss each machine hides, against
        // its own single-miss baseline (removing memory-speed differences).
        let overlap = |cfg: CpuConfig, h: HierarchyConfig| -> f64 {
            let mut mem1 = MemorySystem::new(h);
            let one = Cpu::new(cfg.clone()).execute(loads(1), &mut mem1, 0);
            let mut mem2 = MemorySystem::new(h);
            let two = Cpu::new(cfg).execute(loads(2), &mut mem2, 0);
            two.elapsed.as_ns_f64() / one.elapsed.as_ns_f64()
        };
        let pm_ratio = overlap(CpuConfig::mpc620(), HierarchyConfig::mpc620_node(1));
        let pc_ratio = overlap(
            CpuConfig::pentium_ii(180.0),
            HierarchyConfig::pentium_node(1, 180.0, 60.0),
        );
        // Without load pipelining the 620 pays both misses back to back.
        assert!(
            pm_ratio > 1.8,
            "620 two/one ratio {pm_ratio:.2} should be ~2"
        );
        // The PII's non-blocking loads hide a large part of the second miss.
        assert!(
            pc_ratio < pm_ratio,
            "PII ratio {pc_ratio:.2} should be below 620 ratio {pm_ratio:.2}"
        );
    }

    #[test]
    fn predictable_loop_branches_are_cheap() {
        let (mut cpu, mut mem) = mpc620_setup();
        let mut tb = TraceBuilder::new();
        for i in 0..200 {
            tb.branch(0x10, i != 199, None);
        }
        let r = cpu.execute(tb.finish(), &mut mem, 0);
        assert!(r.mispredicts <= 3, "mispredicts {}", r.mispredicts);
        assert_eq!(r.branches, 200);
    }

    #[test]
    fn mispredicts_cost_cycles() {
        let (mut cpu, mut mem) = mpc620_setup();
        // Random-ish alternating branches defeat the 2-bit counter.
        let mut tb = TraceBuilder::new();
        for i in 0..200 {
            tb.branch(0x30, i % 2 == 0, None);
        }
        let bad = cpu.execute(tb.finish(), &mut mem, 0);

        let mut tb2 = TraceBuilder::new();
        for _ in 0..200 {
            tb2.branch(0x30, true, None);
        }
        let mut cpu2 = Cpu::new(CpuConfig::mpc620());
        let good = cpu2.execute(tb2.finish(), &mut mem, 0);
        assert!(
            bad.cycles > good.cycles + 100,
            "mispredicted run {} should far exceed predicted run {}",
            bad.cycles,
            good.cycles
        );
    }

    #[test]
    fn in_order_issue_blocks_younger_ops() {
        // A long-latency divide followed by independent adds: the OoO 620
        // executes the adds under the divide; the in-order UltraSPARC
        // stalls them.
        fn kernel() -> pm_isa::Trace {
            let mut tb = TraceBuilder::new();
            let a = tb.reg();
            let b = tb.reg();
            let _q = tb.fdiv(a, b);
            for _ in 0..16 {
                tb.iadd(a, b);
            }
            tb.finish()
        }
        let mut mem = MemorySystem::new(HierarchyConfig::mpc620_node(1));
        let mut pm = Cpu::new(CpuConfig::mpc620());
        let r_pm = pm.execute(kernel(), &mut mem, 0);

        let mut mem2 = MemorySystem::new(HierarchyConfig::sun_ultra_node(1));
        let mut sun = Cpu::new(CpuConfig::ultrasparc_i());
        let r_sun = sun.execute(kernel(), &mut mem2, 0);

        // The in-order machine pays the divide latency before the adds.
        assert!(r_sun.cycles > r_pm.cycles);
    }

    #[test]
    fn stores_retire_through_buffer() {
        let (mut cpu, mut mem) = mpc620_setup();
        let mut tb = TraceBuilder::new();
        let v = tb.reg();
        for i in 0..4 {
            tb.store(v, i * 8, 8);
        }
        let r = cpu.execute(tb.finish(), &mut mem, 0);
        // Four stores to the same cache line: buffered, only a few cycles.
        assert!(
            r.cycles < 100,
            "stores should not stall: {} cycles",
            r.cycles
        );
        assert_eq!(r.stores, 4);
    }

    #[test]
    fn mflops_and_ipc_computed() {
        let (mut cpu, mut mem) = mpc620_setup();
        let mut tb = TraceBuilder::new();
        let a = tb.reg();
        let b = tb.reg();
        for _ in 0..1000 {
            let acc = tb.reg();
            tb.fmadd(a, b, acc);
        }
        let r = cpu.execute(tb.finish(), &mut mem, 0);
        // ~1 fmadd/cycle at 180 MHz = ~360 MFLOPS peak.
        let mflops = r.mflops();
        assert!(
            (250.0..=380.0).contains(&mflops),
            "mflops {mflops:.0} out of expected band"
        );
        assert!(r.ipc() > 0.8);
    }

    #[test]
    fn execute_at_continues_time() {
        let (mut cpu, mut mem) = mpc620_setup();
        let mut tb = TraceBuilder::new();
        tb.load(0, 8);
        let start = Time::from_ps(1_000_000);
        let r = cpu.execute_at(tb.finish(), &mut mem, 0, start);
        assert!(r.finished_at > start);
        assert_eq!(r.elapsed, r.finished_at.since(start));
    }

    /// The reference interleaver for the lane loop: before every
    /// instruction, the live lane furthest behind in simulated time
    /// steps, ties going to the lower index (`min_by_key` returns the
    /// first minimum). Lane k runs on fresh CPU k at memory port k.
    fn interleave_per_instruction(
        configs: &[CpuConfig],
        lanes: Vec<Vec<Instr>>,
        mem: &mut MemorySystem,
        start: Time,
    ) -> Vec<RunResult> {
        let mut cpus: Vec<Cpu> = configs.iter().cloned().map(Cpu::new).collect();
        for cpu in &mut cpus {
            cpu.reset_pipeline(start);
        }
        let mut streams: Vec<_> = lanes.into_iter().map(Vec::into_iter).collect();
        let mut results = vec![RunResult::default(); cpus.len()];
        let mut done = vec![false; cpus.len()];
        while let Some(i) = (0..cpus.len())
            .filter(|&k| !done[k])
            .min_by_key(|&k| cpus[k].now())
        {
            match streams[i].next() {
                Some(instr) => cpus[i].step(&instr, mem, i, &mut results[i]),
                None => {
                    done[i] = true;
                    let r = &mut results[i];
                    r.finished_at = cpus[i].now();
                    r.elapsed = r.finished_at.since(start);
                    r.cycles = cpus[i].config().clock.cycles_in(r.elapsed);
                    r.mispredicts = cpus[i].predictor().mispredicts();
                }
            }
        }
        results
    }

    /// A random stream whose loads and stores mostly hit a 4 KB region
    /// every lane shares, so lanes contend for lines and the bus, mixed
    /// with dependent FP and integer work and branches that mispredict.
    fn shared_stream(rng: &mut SimRng, len: u64) -> Vec<Instr> {
        let reg = |rng: &mut SimRng| Reg(rng.gen_range(0, 64) as u16);
        (0..len)
            .map(|_| {
                let addr = if rng.gen_bool(0.8) {
                    rng.gen_range(0, 512) * 8
                } else {
                    rng.gen_range(0, 1 << 18) * 8
                };
                match rng.gen_range(0, 6) {
                    0 => Instr::load(reg(rng), VAddr(addr), 8, None),
                    1 => Instr::store(reg(rng), VAddr(addr), 8),
                    2 => {
                        let (dst, a, b) = (reg(rng), reg(rng), reg(rng));
                        Instr::alu(OpClass::FpMadd, Some(dst), Some(a), Some(b))
                    }
                    3 => {
                        let (dst, a) = (reg(rng), reg(rng));
                        Instr::alu(OpClass::IntAlu, Some(dst), Some(a), None)
                    }
                    4 => {
                        let (pc, taken) = (rng.gen_range(0, 4) * 4, rng.gen_bool(0.7));
                        Instr::branch_at(pc, taken, Some(reg(rng)))
                    }
                    _ => Instr::nop(),
                }
            })
            .collect()
    }

    /// `run_smp_at` returns exactly what a pick of the live lane furthest
    /// behind before every instruction returns, `RunResult` for
    /// `RunResult`: 1–4 lanes on the MPC620 and UltraSPARC-I presets with
    /// their node memories, all lanes starting together (so every first
    /// pick is a tie), with empty lanes, uneven lengths, lanes that
    /// repeat lane 0's stream (so they tie again and again) and loads and
    /// stores to lines the lanes share.
    #[test]
    fn run_smp_at_matches_a_pick_before_every_instruction() {
        let mut rng = SimRng::seed_from(0x1A4E);
        for case in 0..320 {
            let (config, node) = if case % 8 < 4 {
                (CpuConfig::mpc620(), HierarchyConfig::mpc620_node(4))
            } else {
                (
                    CpuConfig::ultrasparc_i(),
                    HierarchyConfig::sun_ultra_node(4),
                )
            };
            let configs = vec![config; 1 + case % 4];
            let mut lanes: Vec<Vec<Instr>> = Vec::new();
            for _ in 0..configs.len() {
                let lane = match rng.gen_range(0, 10) {
                    0 | 1 => Vec::new(),
                    2 | 3 if !lanes.is_empty() => lanes[0].clone(),
                    _ => {
                        let len = rng.gen_range(1, 400);
                        shared_stream(&mut rng, len)
                    }
                };
                lanes.push(lane);
            }
            let start = Time::from_ps(rng.gen_range(0, 1 << 30));
            let want = interleave_per_instruction(
                &configs,
                lanes.clone(),
                &mut MemorySystem::new(node),
                start,
            );
            let got = crate::smp::run_smp_at(&configs, lanes, &mut MemorySystem::new(node), start);
            assert_eq!(got, want, "case {case}");
        }
    }
}

#[cfg(test)]
mod ring_tests {
    use super::*;
    use pm_sim::rng::SimRng;
    use std::collections::VecDeque;

    fn drain(ring: &mut Ring) -> Vec<u64> {
        (0..ring.len()).map(|_| ring.pop_front().as_ps()).collect()
    }

    #[test]
    fn ring_keeps_fifo_order_across_a_wrap() {
        let mut ring = Ring::with_capacity(4);
        for t in 0..4 {
            ring.push_back(Time::from_ps(t));
        }
        assert_eq!(ring.pop_front(), Time::ZERO);
        assert_eq!(ring.pop_front(), Time::from_ps(1));
        // The next two land in the first two slots.
        for t in 4..6 {
            ring.push_back(Time::from_ps(t));
        }
        assert_eq!(ring.slots.len(), 4, "a ring grows only when full");
        assert_eq!(ring.get(3), Time::from_ps(5));
        assert_eq!(drain(&mut ring), [2, 3, 4, 5]);
    }

    #[test]
    fn ring_keeps_fifo_order_across_a_doubling() {
        let mut ring = Ring::with_capacity(3);
        assert_eq!(ring.slots.len(), 4, "capacity rounds up to a power of two");
        // Wrap first, so the doubling has to unroll a split ring.
        for t in 0..3 {
            ring.push_back(Time::from_ps(t));
        }
        ring.pop_front();
        ring.pop_front();
        for t in 3..10 {
            ring.push_back(Time::from_ps(t));
        }
        assert_eq!(ring.slots.len(), 8);
        assert_eq!(drain(&mut ring), [2, 3, 4, 5, 6, 7, 8, 9]);
    }

    /// `wait_for_room` on a ring that keeps completed entries picks what
    /// a window pruned before every test picks, for sorted completions
    /// and a clock that never runs back.
    #[test]
    fn lazy_pruning_waits_for_what_eager_pruning_waits_for() {
        let mut rng = SimRng::seed_from(0x5157);
        for limit in [1, 3, 16] {
            let mut ring = Ring::with_capacity(limit);
            let mut eager = VecDeque::new();
            let (mut now, mut last) = (0, 0);
            for _ in 0..20_000 {
                now += rng.gen_range(0, 40);
                while eager.front().is_some_and(|&c| c <= now) {
                    eager.pop_front();
                }
                let want =
                    (eager.len() >= limit as usize).then(|| eager[eager.len() - limit as usize]);
                let got = ring.wait_for_room(limit, Time::from_ps(now));
                assert_eq!(got.map(Time::as_ps), want, "limit {limit} at {now}");
                if let Some(free_at) = want {
                    // Dispatch moves to about `free_at`, sometimes short of it.
                    now = now.max(free_at.saturating_sub(rng.gen_range(0, 2)));
                }
                last = last.max(now) + rng.gen_range(0, 200);
                ring.push_back(Time::from_ps(last));
                eager.push_back(last);
            }
        }
    }
}

#[cfg(test)]
mod config_tests {
    use super::*;

    /// One test per `CpuConfig` field that must be nonzero: each sets the
    /// field to zero on the MPC620 preset and expects `Cpu::new` to name it.
    macro_rules! rejects_zero {
        ($($test:ident: $($field:ident).+ => $msg:literal,)*) => {$(
            #[test]
            #[should_panic(expected = $msg)]
            fn $test() {
                let mut config = CpuConfig::mpc620();
                config.$($field).+ = 0;
                Cpu::new(config);
            }
        )*};
    }

    rejects_zero! {
        zero_issue_width_panics: issue_width => "CpuConfig::issue_width must be nonzero",
        zero_reorder_window_panics: reorder_window => "CpuConfig::reorder_window must be nonzero",
        zero_rename_buffers_panics: rename_buffers => "CpuConfig::rename_buffers must be nonzero",
        zero_outstanding_loads_panics: max_outstanding_loads
            => "CpuConfig::max_outstanding_loads must be nonzero",
        zero_store_buffer_panics: store_buffer => "CpuConfig::store_buffer must be nonzero",
        zero_int_alus_panics: int_alu.count => "CpuConfig::int_alu.count must be nonzero",
        zero_int_muls_panics: int_mul.count => "CpuConfig::int_mul.count must be nonzero",
        zero_int_divs_panics: int_div.count => "CpuConfig::int_div.count must be nonzero",
        zero_fp_adds_panics: fp_add.count => "CpuConfig::fp_add.count must be nonzero",
        zero_fp_muls_panics: fp_mul.count => "CpuConfig::fp_mul.count must be nonzero",
        zero_fp_divs_panics: fp_div.count => "CpuConfig::fp_div.count must be nonzero",
    }
}

#[cfg(test)]
mod stall_tests {
    use super::*;
    use crate::config::CpuConfig;
    use pm_isa::TraceBuilder;
    use pm_mem::{HierarchyConfig, MemorySystem};

    fn run(trace: pm_isa::Trace) -> RunResult {
        let mut mem = MemorySystem::new(HierarchyConfig::mpc620_node(1));
        let mut cpu = Cpu::new(CpuConfig::mpc620());
        cpu.execute(trace, &mut mem, 0)
    }

    #[test]
    fn dependent_chain_shows_operand_stall() {
        let mut tb = TraceBuilder::new();
        let mut acc = tb.reg();
        let one = tb.reg();
        for _ in 0..100 {
            acc = tb.fadd(acc, one);
        }
        let r = run(tb.finish());
        // A 3-cycle-latency chain issued 4-wide: almost all time is
        // operand wait, none is unit contention.
        assert!(
            r.operand_stall > Duration::from_ns(800),
            "{:?}",
            r.operand_stall
        );
        assert_eq!(r.unit_stall, Duration::ZERO);
    }

    #[test]
    fn unit_pressure_shows_structural_stall() {
        // Independent divides pile onto the single unpipelined divider.
        let mut tb = TraceBuilder::new();
        let a = tb.reg();
        let b = tb.reg();
        for _ in 0..50 {
            tb.fdiv(a, b);
        }
        let r = run(tb.finish());
        assert!(
            r.unit_stall > Duration::from_us(2),
            "divider queue should dominate: {:?}",
            r.unit_stall
        );
    }

    #[test]
    fn cold_loads_show_memory_latency() {
        let mut tb = TraceBuilder::new();
        for i in 0..64u64 {
            tb.load(i * 4096, 8);
        }
        let r = run(tb.finish());
        assert_eq!(r.loads, 64);
        // Every load misses to DRAM: average latency far above a cycle.
        assert!(r.avg_load_latency() > Duration::from_ns(100));
    }

    #[test]
    fn l1_hits_have_cycle_latency() {
        let mut tb = TraceBuilder::new();
        tb.load(0, 8); // warm the line
        for _ in 0..63 {
            tb.load(8, 8);
        }
        let r = run(tb.finish());
        // 63 hits at 1 cycle + 1 miss: average close to the hit time.
        assert!(r.avg_load_latency() < Duration::from_ns(30));
    }

    #[test]
    fn mispredict_storm_shows_frontend_stall() {
        let mut tb = TraceBuilder::new();
        for i in 0..200 {
            tb.branch(0x77, i % 2 == 0, None);
        }
        let r = run(tb.finish());
        assert!(
            r.frontend_stall > Duration::from_ns(1000),
            "refills should accumulate: {:?}",
            r.frontend_stall
        );
    }
}
