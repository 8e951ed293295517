//! Running HINT through a system's timing model (Figure 6).

use crate::systems::System;
use pm_cpu::Cpu;
use pm_mem::MemorySystem;
use pm_sim::stats::Series;
use pm_sim::time::{Duration, Time};
use pm_workloads::hint::{Hint, HintType};

/// One point of the QUIPS curve.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HintPoint {
    /// Cumulative runtime when the pass completed, in seconds.
    pub time_s: f64,
    /// Net QUIPS at that instant (quality / cumulative time).
    pub quips: f64,
    /// Working-set bytes after the pass.
    pub memory_bytes: u64,
}

/// The full result of a HINT run on one system.
#[derive(Clone, Debug, PartialEq)]
pub struct HintRun {
    /// System display name.
    pub system: &'static str,
    /// Data type used.
    pub dtype: HintType,
    /// One point per pass.
    pub points: Vec<HintPoint>,
}

impl HintRun {
    /// Peak net QUIPS over the run, ignoring the first sub-4-KB passes
    /// (their microsecond-scale runtimes are dominated by a handful of
    /// cold misses and say nothing about the machine; real HINT reports
    /// likewise start after a warm-up).
    pub fn peak_quips(&self) -> f64 {
        let stable = self
            .points
            .iter()
            .filter(|p| p.memory_bytes >= 4096)
            .map(|p| p.quips)
            .fold(0.0, f64::max);
        if stable > 0.0 {
            stable
        } else {
            self.points.iter().map(|p| p.quips).fold(0.0, f64::max)
        }
    }

    /// Net QUIPS at the largest working set (the memory-bound tail).
    pub fn tail_quips(&self) -> f64 {
        self.points.last().map_or(0.0, |p| p.quips)
    }

    /// Converts to a (time, QUIPS) series for the figure.
    pub fn to_series(&self) -> Series {
        let mut s = Series::new(self.system);
        for p in &self.points {
            s.push(p.time_s, p.quips);
        }
        s
    }
}

/// Runs HINT on one system until the working set reaches
/// `max_memory_bytes`, returning the QUIPS curve.
///
/// The run streams every pass's instructions through the system's CPU +
/// memory models, with simulated time carried across passes so cache
/// warmth persists exactly as it would on hardware.
///
/// # Examples
///
/// ```
/// use pm_core::hintrun::run_hint;
/// use pm_core::systems;
/// use pm_workloads::hint::HintType;
///
/// let run = run_hint(&systems::powermanna(), HintType::Double, 1 << 16);
/// assert!(run.peak_quips() > 0.0);
/// ```
pub fn run_hint(system: &System, dtype: HintType, max_memory_bytes: u64) -> HintRun {
    let mut hint = Hint::new(dtype);
    let mem = &mut MemorySystem::new(system.node.mem);
    let mut cpu = Cpu::new(system.node.cpu.clone());
    let mut elapsed = Duration::ZERO;
    let mut cursor = Time::ZERO;
    let mut points = Vec::new();
    while hint.memory_bytes() < max_memory_bytes {
        let pass = hint.pass();
        let result = cpu.execute_at(pass.ops, mem, 0, cursor);
        cursor = result.finished_at;
        elapsed += result.elapsed;
        let time_s = elapsed.as_secs_f64();
        points.push(HintPoint {
            time_s,
            quips: pass.quality / time_s,
            memory_bytes: pass.memory_bytes,
        });
    }
    HintRun {
        system: system.name,
        dtype,
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::systems;

    #[test]
    fn quips_curve_has_cache_plateau_and_memory_drop() {
        // Run PowerMANNA DOUBLE out past its 32 KB L1: QUIPS must rise to
        // a plateau and the per-pass *incremental* rate must fall once
        // the working set spills the cache hierarchy.
        let run = run_hint(&systems::powermanna(), HintType::Double, 8 << 20);
        assert!(run.points.len() > 10);
        let peak = run.peak_quips();
        let tail = run.tail_quips();
        assert!(peak > 0.0 && tail > 0.0);
        assert!(
            tail < peak,
            "tail QUIPS {tail:.0} should drop below peak {peak:.0}"
        );
    }

    #[test]
    fn int_and_double_differ() {
        let d = run_hint(&systems::powermanna(), HintType::Double, 1 << 18);
        let i = run_hint(&systems::powermanna(), HintType::Int, 1 << 18);
        assert_ne!(d.peak_quips(), i.peak_quips());
    }

    #[test]
    fn machines_produce_distinct_curves() {
        let pm = run_hint(&systems::powermanna(), HintType::Double, 1 << 17);
        let sun = run_hint(&systems::sun_ultra(), HintType::Double, 1 << 17);
        assert!(
            pm.peak_quips() > sun.peak_quips(),
            "PowerMANNA {:.0} should out-QUIPS the in-order SUN {:.0}",
            pm.peak_quips(),
            sun.peak_quips()
        );
    }

    #[test]
    fn series_shape_matches_points() {
        let run = run_hint(&systems::pentium_180(), HintType::Int, 1 << 15);
        let s = run.to_series();
        assert_eq!(s.len(), run.points.len());
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run_hint(&systems::powermanna(), HintType::Double, 1 << 15);
        let b = run_hint(&systems::powermanna(), HintType::Double, 1 << 15);
        assert_eq!(a, b);
    }
}
