//! Running MatMult through a system's timing model (Figures 7 and 8).
//!
//! One runner splits a kernel's rows (block-rows for the tiled kernel)
//! evenly over the CPUs and simulates them all for small matrices. Larger
//! sizes use *row sampling*: one warm-up row primes the caches, a few
//! measured rows give the steady-state cycles per row, and the total
//! extrapolates linearly (the multiply's per-row work is identical by
//! construction). The sampling is validated against full simulation in
//! the tests.
//!
//! Every phase streams its kernel's lazy emitter straight into the cycle
//! engine, so no instruction trace is built on the measure path.

use crate::systems::System;
use pm_cpu::{run_smp_at, Cpu, CpuConfig};
use pm_isa::Instr;
use pm_mem::MemorySystem;
use pm_sim::time::{Duration, Time};
use pm_workloads::blocked::BlockedMatMult;
use pm_workloads::matmult::{MatMult, MatMultVersion};
use std::ops::Range;

/// Result of one MatMult measurement.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MatMultMeasurement {
    /// Matrix dimension.
    pub n: usize,
    /// Achieved MFLOPS (total problem flops / total runtime).
    pub mflops: f64,
    /// Total runtime (including the transposition for the transposed
    /// version).
    pub runtime: Duration,
    /// Whether row sampling was used.
    pub sampled: bool,
}

/// How a kernel's row units are simulated: all of them up to
/// `full_up_to` units, otherwise one warm-up unit and `measured` units
/// per lane, extrapolated to the lane's share.
struct Sampler {
    full_up_to: usize,
    measured: usize,
}

/// The naive and transposed multiplies' rows. Single and dual runs share
/// it, so speedups compare like with like.
const ROWS: Sampler = Sampler {
    full_up_to: 96,
    measured: 2,
};

/// The cache-blocked multiply's block-rows.
const BLOCK_ROWS: Sampler = Sampler {
    full_up_to: 2,
    measured: 1,
};

/// The CPUs a point runs on.
enum Lanes {
    /// One CPU on memory port 0, its branch predictor kept warm across
    /// phases.
    Single(Box<Cpu>),
    /// Both CPUs of the node, fresh for every phase (`run_smp_at`), so
    /// each lane mispredicts once more per phase than a warm CPU would.
    Dual(Vec<CpuConfig>),
}

impl Lanes {
    /// Runs `work[k]` on lane k from `start`; returns the slowest lane's
    /// elapsed time.
    fn run<I>(&mut self, work: Vec<I>, mem: &mut MemorySystem, start: Time) -> Duration
    where
        I: IntoIterator<Item = Instr>,
    {
        let results = match self {
            Lanes::Single(cpu) => work
                .into_iter()
                .map(|w| cpu.execute_at(w, mem, 0, start))
                .collect(),
            Lanes::Dual(configs) => run_smp_at(configs, work, mem, start),
        };
        results.iter().map(|r| r.elapsed).max().unwrap_or_default()
    }
}

/// Measures single-processor MatMult on a system (Figure 7).
///
/// # Examples
///
/// ```
/// use pm_core::matmultrun::measure_single;
/// use pm_core::systems;
/// use pm_workloads::matmult::MatMultVersion;
///
/// let m = measure_single(&systems::powermanna(), 32, MatMultVersion::Transposed);
/// assert!(m.mflops > 0.0);
/// ```
pub fn measure_single(system: &System, n: usize, version: MatMultVersion) -> MatMultMeasurement {
    let lanes = Lanes::Single(Box::new(Cpu::new(system.node.cpu.clone())));
    measure_rows(system, lanes, n, version, ROWS)
}

/// Measures dual-processor MatMult: the rows split evenly across both
/// CPUs of the node, contending on the shared bus (Figure 8).
pub fn measure_dual(system: &System, n: usize, version: MatMultVersion) -> MatMultMeasurement {
    let lanes = Lanes::Dual(vec![system.node.cpu.clone(); 2]);
    measure_rows(system, lanes, n, version, ROWS)
}

/// Measures the cache-blocked multiply (the `tiling` ablation): every
/// block-row up to two, otherwise one warm-up block-row and one measured
/// block-row, extrapolated.
pub fn measure_blocked(system: &System, n: usize, tile: usize) -> MatMultMeasurement {
    let kernel = BlockedMatMult::new(n, tile);
    let lanes = Lanes::Single(Box::new(Cpu::new(system.node.cpu.clone())));
    let emit = |r: Range<usize>| kernel.emit_block_rows(r.start, r.end);
    let (runtime, sampled) = run_point(system, lanes, None, kernel.block_rows(), BLOCK_ROWS, emit);
    measurement(n, kernel.flops_total(), runtime, sampled)
}

/// Measures the naive or transposed multiply of order `n` on `lanes`.
fn measure_rows(
    system: &System,
    lanes: Lanes,
    n: usize,
    version: MatMultVersion,
    sampler: Sampler,
) -> MatMultMeasurement {
    let kernel = MatMult::new(n, version);
    let transpose = (version == MatMultVersion::Transposed).then_some(&kernel);
    let emit = |r: Range<usize>| kernel.emit_rows(r.start, r.end);
    let (runtime, sampled) = run_point(system, lanes, transpose, n, sampler, emit);
    measurement(n, kernel.flops_total(), runtime, sampled)
}

fn measurement(n: usize, flops: u64, runtime: Duration, sampled: bool) -> MatMultMeasurement {
    MatMultMeasurement {
        n,
        mflops: flops as f64 / runtime.as_secs_f64() / 1e6,
        runtime,
        sampled,
    }
}

/// Runs one point on a fresh node memory and returns its runtime and
/// whether it was sampled: the transposition first when `transpose`
/// holds the kernel, then `units` row units, which `emit` streams by
/// range, split evenly over the lanes and simulated as `sampler` says.
fn run_point<E>(
    system: &System,
    mut lanes: Lanes,
    transpose: Option<&MatMult>,
    units: usize,
    sampler: Sampler,
    emit: impl Fn(Range<usize>) -> E,
) -> (Duration, bool)
where
    E: IntoIterator<Item = Instr>,
{
    let mem = &mut MemorySystem::new(system.node.mem);
    let k = match &lanes {
        Lanes::Single(_) => 1,
        Lanes::Dual(configs) => configs.len(),
    };
    // Lane i's even part of `count` things.
    let part = |i: usize, count: usize| i * count / k..(i + 1) * count / k;
    let mut runtime = Duration::ZERO;
    if let Some(kernel) = transpose {
        // The lanes split the pass at instruction boundaries. For odd N
        // a boundary falls mid-element; the next lane resumes at exactly
        // that instruction, with the register names it has in the pass.
        let len = kernel.transpose_len();
        let pass = (0..k)
            .map(|i| part(i, len))
            .map(|r| kernel.emit_transpose(r.start, r.end));
        runtime = lanes.run(pass.collect(), mem, Time::ZERO);
    }
    let mut cursor = Time::ZERO + runtime;
    let sampled = units > sampler.full_up_to;
    if !sampled {
        // For one row on two lanes, lane 0's part is empty: it idles.
        let parts = (0..k).map(|i| emit(part(i, units)));
        runtime += lanes.run(parts.collect(), mem, cursor);
    } else {
        // Every lane warms up and measures at once, so contention shows.
        let rows = |skip: usize, len: usize| -> Vec<E> {
            let first = |i| part(i, units).start + skip;
            (0..k).map(|i| emit(first(i)..first(i) + len)).collect()
        };
        cursor += lanes.run(rows(0, 1), mem, cursor);
        let measured = lanes.run(rows(1, sampler.measured), mem, cursor);
        runtime += measured / sampler.measured as u64 * (units / k) as u64;
    }
    (runtime, sampled)
}

/// Dual-processor speedup for one size (Figure 8's y-axis).
pub fn speedup(system: &System, n: usize, version: MatMultVersion) -> f64 {
    let single = measure_single(system, n, version);
    let dual = measure_dual(system, n, version);
    single.runtime.as_secs_f64() / dual.runtime.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::systems;

    #[test]
    fn transposed_beats_naive_on_powermanna() {
        // Past the TLB reach the naive column walk collapses while the
        // transposed version keeps streaming (Figure 7's headline).
        let pm = systems::powermanna();
        let naive = measure_single(&pm, 320, MatMultVersion::Naive);
        let trans = measure_single(&pm, 320, MatMultVersion::Transposed);
        assert!(
            trans.mflops > 1.5 * naive.mflops,
            "transposed {:.1} should clearly beat naive {:.1}",
            trans.mflops,
            naive.mflops
        );
    }

    #[test]
    fn naive_gap_widens_with_size_on_powermanna() {
        // Paper: naive/transposed gap ≈2.5x small, ≈6x large for
        // PowerMANNA (long lines waste most of their prefetch).
        let pm = systems::powermanna();
        let small_ratio = measure_single(&pm, 128, MatMultVersion::Transposed).mflops
            / measure_single(&pm, 128, MatMultVersion::Naive).mflops;
        let large_ratio = measure_single(&pm, 384, MatMultVersion::Transposed).mflops
            / measure_single(&pm, 384, MatMultVersion::Naive).mflops;
        assert!(
            large_ratio > small_ratio,
            "gap should widen: small {small_ratio:.2}, large {large_ratio:.2}"
        );
        assert!(large_ratio > 3.0, "large-N gap {large_ratio:.2} too small");
    }

    #[test]
    fn sampling_agrees_with_full_simulation() {
        // At a size where both paths are affordable, sampled and full
        // results must agree within a few percent.
        let pm = systems::powermanna();
        let n = 64;
        let full = measure_single(&pm, n, MatMultVersion::Transposed);
        assert!(!full.sampled);

        let lanes = Lanes::Single(Box::new(Cpu::new(pm.node.cpu.clone())));
        let forced = Sampler {
            full_up_to: 0,
            ..ROWS
        };
        let sampled = measure_rows(&pm, lanes, n, MatMultVersion::Transposed, forced);
        assert!(sampled.sampled);

        let err = (sampled.mflops - full.mflops).abs() / full.mflops;
        assert!(
            err < 0.08,
            "sampled {:.1} vs full {:.1}: {:.1}% error",
            sampled.mflops,
            full.mflops,
            err * 100.0
        );
    }

    #[test]
    fn powermanna_smp_speedup_is_ideal() {
        let s = speedup(&systems::powermanna(), 64, MatMultVersion::Transposed);
        assert!(
            (1.85..=2.05).contains(&s),
            "PowerMANNA speedup {s:.2} should be ~2.0"
        );
    }

    #[test]
    fn pentium_smp_speedup_lags_for_memory_bound_sizes() {
        // 160x160 doubles = 600 KB > the PC's 512 KB L2: memory-bound.
        let s_pm = speedup(&systems::powermanna(), 160, MatMultVersion::Naive);
        let s_pc = speedup(&systems::pentium_180(), 160, MatMultVersion::Naive);
        assert!(
            s_pc < s_pm,
            "Pentium speedup {s_pc:.2} should trail PowerMANNA {s_pm:.2}"
        );
    }

    #[test]
    fn tiling_rescues_the_naive_collapse_on_powermanna() {
        // At N=384 the naive column walk thrashes the TLB; a 32x32 tile
        // keeps each block inside the reach and recovers most of the
        // transposed version's performance without the transposition.
        let pm = systems::powermanna();
        let naive = measure_single(&pm, 384, MatMultVersion::Naive).mflops;
        let blocked = measure_blocked(&pm, 384, 32).mflops;
        assert!(
            blocked > 3.0 * naive,
            "tiled {blocked:.1} should far exceed naive {naive:.1}"
        );
    }

    #[test]
    fn tiny_matrices_measure_single_and_dual() {
        // N = 1 gives CPU 0 of the dual run an empty half of the rows
        // (it idles); N = 3 splits both the rows and the transposition
        // unevenly.
        let pm = systems::powermanna();
        for n in 1..=3 {
            for version in [MatMultVersion::Naive, MatMultVersion::Transposed] {
                for m in [
                    measure_single(&pm, n, version),
                    measure_dual(&pm, n, version),
                ] {
                    assert_eq!(m.n, n);
                    assert!(!m.sampled);
                    assert!(m.runtime > Duration::ZERO, "N={n} {version:?}");
                    assert!(m.mflops.is_finite() && m.mflops > 0.0);
                }
            }
        }
    }

    #[test]
    fn measurements_are_deterministic() {
        let a = measure_single(&systems::sun_ultra(), 48, MatMultVersion::Naive);
        let b = measure_single(&systems::sun_ultra(), 48, MatMultVersion::Naive);
        assert_eq!(a, b);
    }
}
