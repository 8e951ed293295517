//! Interleaved multi-CPU execution over one shared memory system.
//!
//! Figure 8 of the paper runs MatMult on both processors of each node at
//! once; contention has to emerge from the two instruction streams hitting
//! the bus at overlapping times. [`run_smp`] steps whichever CPU is
//! furthest behind in simulated time, ties going to the lower index, and
//! lets it keep the turn until it passes the next CPU, so accesses from
//! the cores interleave in time order on the shared [`MemorySystem`]'s
//! resources. A CPU's clock moves only when it steps, so taking turns
//! runs the instructions in the order a pick before every instruction
//! would, with one pick per turn.

use crate::config::CpuConfig;
use crate::engine::{run_lanes, Cpu, RunResult};
use pm_isa::Instr;
use pm_mem::MemorySystem;
use pm_sim::time::Time;

/// Runs one instruction stream per CPU concurrently on a shared memory
/// system.
///
/// A lane is anything that yields instructions: a materialised
/// [`Trace`](pm_isa::Trace) or a lazy kernel emitter, consumed one
/// instruction at a time. Returns one [`RunResult`] per CPU. CPUs with
/// exhausted streams drop out; the others continue (an empty lane
/// finishes at the start time).
///
/// # Panics
///
/// Panics if the number of configs/traces differs or exceeds the memory
/// system's port count, or if no CPUs are given.
///
/// # Examples
///
/// ```
/// use pm_cpu::{run_smp, CpuConfig};
/// use pm_isa::TraceBuilder;
/// use pm_mem::{HierarchyConfig, MemorySystem};
///
/// let mut mem = MemorySystem::new(HierarchyConfig::mpc620_node(2));
/// let make = || {
///     let mut tb = TraceBuilder::new();
///     for i in 0..64 {
///         tb.load(i * 64, 8);
///     }
///     tb.finish()
/// };
/// let results = run_smp(
///     &[CpuConfig::mpc620(), CpuConfig::mpc620()],
///     vec![make(), make()],
///     &mut mem,
/// );
/// assert_eq!(results.len(), 2);
/// ```
pub fn run_smp<L>(configs: &[CpuConfig], traces: Vec<L>, mem: &mut MemorySystem) -> Vec<RunResult>
where
    L: IntoIterator<Item = Instr>,
{
    run_smp_at(configs, traces, mem, Time::ZERO)
}

/// Like [`run_smp`], but starting no earlier than `start` — used to chain
/// phases (e.g. transpose, then multiply) over one warm memory system.
///
/// Each CPU is fresh (a cold branch predictor) and runs lane k on memory
/// port k. The live CPU furthest behind steps, ties going to the lower
/// index, and keeps the turn until its `now()` passes the next live
/// CPU's (or reaches it, when that CPU's index is lower). The other CPUs
/// cannot move meanwhile, so the order is the one a pick before every
/// instruction gives.
pub fn run_smp_at<L>(
    configs: &[CpuConfig],
    traces: Vec<L>,
    mem: &mut MemorySystem,
    start: Time,
) -> Vec<RunResult>
where
    L: IntoIterator<Item = Instr>,
{
    assert!(!configs.is_empty(), "need at least one CPU");
    assert_eq!(configs.len(), traces.len(), "one trace per CPU is required");
    assert!(
        configs.len() <= mem.config().cpus,
        "more CPUs than memory ports"
    );
    let mut cpus: Vec<Cpu> = configs.iter().cloned().map(Cpu::new).collect();
    let lanes = traces.into_iter().map(L::into_iter);
    run_lanes(&mut cpus, lanes, 0, mem, start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_isa::{Trace, TraceBuilder};
    use pm_mem::HierarchyConfig;

    /// A cache-resident FP kernel: both CPUs work out of their own L1s.
    fn fp_kernel(base: u64, n: usize) -> Trace {
        let mut tb = TraceBuilder::new();
        let a = tb.load(base, 8);
        let b = tb.load(base + 8, 8);
        let mut acc = tb.reg();
        for _ in 0..n {
            acc = tb.fmadd(a, b, acc);
        }
        tb.store(acc, base + 16, 8);
        tb.finish()
    }

    /// A memory-streaming kernel touching `lines` distinct lines.
    fn stream_kernel(base: u64, lines: u64) -> Trace {
        let mut tb = TraceBuilder::new();
        for i in 0..lines {
            tb.load(base + i * 64, 8);
        }
        tb.finish()
    }

    #[test]
    fn cache_resident_work_scales_perfectly_on_620() {
        let mut mem1 = MemorySystem::new(HierarchyConfig::mpc620_node(2));
        let single = run_smp(&[CpuConfig::mpc620()], vec![fp_kernel(0, 2000)], &mut mem1);

        let mut mem2 = MemorySystem::new(HierarchyConfig::mpc620_node(2));
        let both = run_smp(
            &[CpuConfig::mpc620(), CpuConfig::mpc620()],
            vec![fp_kernel(0, 1000), fp_kernel(1 << 16, 1000)],
            &mut mem2,
        );
        let slowest = both.iter().map(|r| r.elapsed).max().unwrap();
        let s = single[0].elapsed.as_secs_f64() / slowest.as_secs_f64();
        assert!(
            (1.8..=2.1).contains(&s),
            "620 cache-resident speedup {s:.2} should be ~2"
        );
    }

    #[test]
    fn streaming_contends_more_on_shared_bus() {
        // The same disjoint streaming load on PowerMANNA vs the Pentium II
        // board: the non-split shared FSB loses more than the ADSP node.
        let lines = 2048u64;

        let run_machine = |mk_mem: &dyn Fn(usize) -> MemorySystem, cfg: &CpuConfig| -> f64 {
            let mut m1 = mk_mem(2);
            let single = run_smp(
                std::slice::from_ref(cfg),
                vec![stream_kernel(0, lines)],
                &mut m1,
            );
            let mut m2 = mk_mem(2);
            let both = run_smp(
                &[cfg.clone(), cfg.clone()],
                vec![
                    stream_kernel(0, lines / 2),
                    stream_kernel(1 << 24, lines / 2),
                ],
                &mut m2,
            );
            let slowest = both.iter().map(|r| r.elapsed).max().unwrap();
            single[0].elapsed.as_secs_f64() / slowest.as_secs_f64()
        };

        let s_pm = run_machine(
            &|c| MemorySystem::new(HierarchyConfig::mpc620_node(c)),
            &CpuConfig::mpc620(),
        );
        let s_pc = run_machine(
            &|c| MemorySystem::new(HierarchyConfig::pentium_node(c, 180.0, 60.0)),
            &CpuConfig::pentium_ii(180.0),
        );
        assert!(
            s_pm > s_pc,
            "PowerMANNA streaming speedup {s_pm:.2} should beat Pentium {s_pc:.2}"
        );
    }

    #[test]
    fn results_are_deterministic() {
        let run = || {
            let mut mem = MemorySystem::new(HierarchyConfig::mpc620_node(2));
            run_smp(
                &[CpuConfig::mpc620(), CpuConfig::mpc620()],
                vec![stream_kernel(0, 256), fp_kernel(1 << 20, 256)],
                &mut mem,
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "one trace per CPU")]
    fn rejects_mismatched_lanes() {
        let mut mem = MemorySystem::new(HierarchyConfig::mpc620_node(2));
        run_smp(&[CpuConfig::mpc620()], Vec::<Trace>::new(), &mut mem);
    }

    #[test]
    #[should_panic(expected = "more CPUs than memory ports")]
    fn rejects_too_many_cpus() {
        let mut mem = MemorySystem::new(HierarchyConfig::mpc620_node(1));
        run_smp(
            &[CpuConfig::mpc620(), CpuConfig::mpc620()],
            vec![Trace::new(), Trace::new()],
            &mut mem,
        );
    }

    #[test]
    fn empty_traces_finish_immediately() {
        let mut mem = MemorySystem::new(HierarchyConfig::mpc620_node(2));
        let r = run_smp(
            &[CpuConfig::mpc620(), CpuConfig::mpc620()],
            vec![Trace::new(), Trace::new()],
            &mut mem,
        );
        assert!(r.iter().all(|x| x.instrs == 0));
    }
}
