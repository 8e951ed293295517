//! Running MatMult through a system's timing model (Figures 7 and 8).
//!
//! Full traces are simulated for small matrices; larger sizes use *row
//! sampling*: one warm-up row primes the caches, a few measured rows give
//! the steady-state cycles per row, and the total extrapolates linearly
//! (the multiply's per-row work is identical by construction). The
//! sampling is validated against full simulation in the tests.
//!
//! Every phase streams its kernel's lazy emitter straight into the cycle
//! engine, so no instruction trace is built on the measure path.

use crate::systems::System;
use pm_cpu::{run_smp_at, Cpu};
use pm_mem::MemorySystem;
use pm_sim::time::{Duration, Time};
use pm_workloads::blocked::BlockedMatMult;
use pm_workloads::matmult::{MatMult, MatMultVersion};

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

/// Rows above which sampling kicks in.
const FULL_SIM_LIMIT: usize = 96;
/// Measured rows when sampling.
const SAMPLE_ROWS: usize = 2;

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
    let kernel = MatMult::new(n, version);
    let mem = &mut MemorySystem::new(system.node.mem);
    let mut cpu = Cpu::new(system.node.cpu.clone());

    let mut cursor = Time::ZERO;
    let mut runtime = Duration::ZERO;

    // The transposed version pays for the transposition up front.
    if version == MatMultVersion::Transposed {
        let pass = kernel.emit_transpose(0, kernel.transpose_len());
        let r = cpu.execute_at(pass, mem, 0, cursor);
        cursor = r.finished_at;
        runtime += r.elapsed;
    }

    let sampled = n > FULL_SIM_LIMIT;
    if !sampled {
        let r = cpu.execute_at(kernel.emit_rows(0, n), mem, 0, cursor);
        runtime += r.elapsed;
    } else {
        // Warm-up row primes caches and branch predictor.
        let warm = cpu.execute_at(kernel.emit_rows(0, 1), mem, 0, cursor);
        cursor = warm.finished_at;
        let measured = cpu.execute_at(kernel.emit_rows(1, 1 + SAMPLE_ROWS), mem, 0, cursor);
        let per_row = measured.elapsed / SAMPLE_ROWS as u64;
        runtime += per_row * n as u64;
    }

    MatMultMeasurement {
        n,
        mflops: kernel.flops_total() as f64 / runtime.as_secs_f64() / 1e6,
        runtime,
        sampled,
    }
}

/// Measures dual-processor MatMult: the rows split evenly across both
/// CPUs of the node, contending on the shared bus (Figure 8).
pub fn measure_dual(system: &System, n: usize, version: MatMultVersion) -> MatMultMeasurement {
    let kernel = MatMult::new(n, version);
    let configs = [system.node.cpu.clone(), system.node.cpu.clone()];
    let half = n / 2;

    let mem = &mut MemorySystem::new(system.node.mem);
    let mut runtime = Duration::ZERO;
    let mut cursor = Time::ZERO;

    if version == MatMultVersion::Transposed {
        // The CPUs split the transposition pass at its middle
        // instruction: CPU 0 runs the first half of the (j, k) sweep,
        // CPU 1 the rest, each moving about half of B. For odd N the
        // split falls mid-element; CPU 1 resumes at exactly that
        // instruction, with the register names it has in the pass.
        let len = kernel.transpose_len();
        let mid = len / 2;
        let lanes = vec![
            kernel.emit_transpose(0, mid),
            kernel.emit_transpose(mid, len),
        ];
        let results = run_smp_at(&configs, lanes, mem, cursor);
        let slowest = results
            .iter()
            .map(|r| r.elapsed)
            .fold(Duration::ZERO, Duration::max);
        runtime += slowest;
        cursor += slowest;
    }

    // Sampling kicks in at the same problem size as measure_single so
    // speedups compare like with like.
    let sampled = n > FULL_SIM_LIMIT;
    if !sampled {
        let results = run_smp_at(
            &configs,
            // For N = 1 CPU 0's half is empty: it idles, CPU 1 works.
            vec![kernel.emit_rows(0, half), kernel.emit_rows(half, n)],
            mem,
            cursor,
        );
        let slowest = results
            .iter()
            .map(|r| r.elapsed)
            .fold(Duration::ZERO, Duration::max);
        runtime += slowest;
    } else {
        // Warm + measure on both CPUs concurrently so contention shows.
        let warm = run_smp_at(
            &configs,
            vec![kernel.emit_rows(0, 1), kernel.emit_rows(half, half + 1)],
            mem,
            cursor,
        );
        let warm_slowest = warm
            .iter()
            .map(|r| r.elapsed)
            .fold(Duration::ZERO, Duration::max);
        cursor += warm_slowest;
        let measured = run_smp_at(
            &configs,
            vec![
                kernel.emit_rows(1, 1 + SAMPLE_ROWS),
                kernel.emit_rows(half + 1, half + 1 + SAMPLE_ROWS),
            ],
            mem,
            cursor,
        );
        let slowest = measured
            .iter()
            .map(|r| r.elapsed)
            .fold(Duration::ZERO, Duration::max);
        runtime += (slowest / SAMPLE_ROWS as u64) * half as u64;
    }

    MatMultMeasurement {
        n,
        mflops: kernel.flops_total() as f64 / runtime.as_secs_f64() / 1e6,
        runtime,
        sampled,
    }
}

/// Measures the cache-blocked multiply (the `tiling` ablation): one
/// warm-up block-row, one measured block-row, extrapolated.
pub fn measure_blocked(system: &System, n: usize, tile: usize) -> MatMultMeasurement {
    let kernel = BlockedMatMult::new(n, tile);
    let mem = &mut MemorySystem::new(system.node.mem);
    let mut cpu = Cpu::new(system.node.cpu.clone());
    let blocks = kernel.block_rows();

    let mut runtime = Duration::ZERO;
    let sampled = blocks > 2;
    if !sampled {
        let r = cpu.execute_at(kernel.emit_block_rows(0, blocks), mem, 0, Time::ZERO);
        runtime += r.elapsed;
    } else {
        let warm = cpu.execute_at(kernel.emit_block_rows(0, 1), mem, 0, Time::ZERO);
        let measured = cpu.execute_at(kernel.emit_block_rows(1, 2), mem, 0, warm.finished_at);
        runtime += measured.elapsed * blocks as u64;
    }
    MatMultMeasurement {
        n,
        mflops: kernel.flops_total() as f64 / runtime.as_secs_f64() / 1e6,
        runtime,
        sampled,
    }
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
        let kernel = MatMult::new(n, MatMultVersion::Transposed);

        let full = measure_single(&pm, n, MatMultVersion::Transposed);
        assert!(!full.sampled);

        // Forced sampling path, reconstructed inline.
        let mut mem = pm_mem::MemorySystem::new(pm.node.mem);
        let mut cpu = Cpu::new(pm.node.cpu.clone());
        let mut cursor = Time::ZERO;
        let mut runtime = Duration::ZERO;
        let r = cpu.execute_at(kernel.transpose_trace(), &mut mem, 0, cursor);
        cursor = r.finished_at;
        runtime += r.elapsed;
        let warm = cpu.execute_at(kernel.trace_rows(0, 1), &mut mem, 0, cursor);
        cursor = warm.finished_at;
        let measured = cpu.execute_at(kernel.trace_rows(1, 3), &mut mem, 0, cursor);
        runtime += (measured.elapsed / 2) * n as u64;
        let sampled_mflops = kernel.flops_total() as f64 / runtime.as_secs_f64() / 1e6;

        let err = (sampled_mflops - full.mflops).abs() / full.mflops;
        assert!(
            err < 0.08,
            "sampled {sampled_mflops:.1} vs full {:.1}: {:.1}% error",
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
