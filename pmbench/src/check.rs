//! Output checks: FNV-1a digests of every simulated output and the
//! invariants each output must satisfy. A point that fails any check
//! counts as failed.

use pm_core::matmultrun::MatMultMeasurement;
use pm_net::routesim::{ResilientResult, RouteSimResult, Worm, WormOutcome};
use pm_sim::time::Time;

/// 64-bit FNV-1a over little-endian words.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// A simulated output of one benchmark point.
pub enum Output {
    MatMult(MatMultMeasurement),
    Route(RouteSimResult),
    Resilient(ResilientResult),
}

/// Digest of every simulated value in `out`.
pub fn digest(out: &Output) -> u64 {
    let mut h = Fnv::new();
    match out {
        Output::MatMult(m) => {
            h.u64(m.n as u64);
            h.u64(m.runtime.as_ps());
            h.u64(m.mflops.to_bits());
            h.u64(u64::from(m.sampled));
        }
        Output::Route(r) => {
            for t in &r.completions {
                h.u64(t.as_ps());
            }
            h.u64(r.finished_at.as_ps());
            h.u64(r.payload_bytes);
            h.u64(r.peak_inflight as u64);
            h.u64(r.conflicts);
            h.u64(r.detours);
        }
        Output::Resilient(r) => {
            for o in &r.outcomes {
                match o {
                    WormOutcome::Delivered(d) => {
                        h.u64(d.finished.as_ps());
                        h.u64(d.source_released.as_ps());
                        h.u64(d.bytes);
                        h.u64(d.stop_transitions);
                        h.u64(d.stalled_ticks);
                        h.u64(d.per_segment.len() as u64);
                        h.u64(u64::from(d.plane));
                        h.u64(u64::from(d.attempts));
                        h.u64(u64::from(d.crc_failures));
                        h.u64(u64::from(d.severed));
                        h.u64(u64::from(d.failed_over) | u64::from(d.rerouted) << 1);
                        h.u64(d.crc.map_or(u64::MAX, u64::from));
                    }
                    WormOutcome::Dropped { attempts } => {
                        h.u64(u64::MAX - 1);
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
        }
    }
    h.finish()
}

/// A MatMult measurement of an `n x n` multiply: positive runtime, and
/// MFLOPS finite and exactly `matmultrun`'s `2 n^3 / runtime` formula.
pub fn matmult(m: &MatMultMeasurement, n: usize) -> Result<(), String> {
    if m.n != n {
        return Err(format!("measured n={} for a point of n={n}", m.n));
    }
    if m.runtime.as_ps() == 0 {
        return Err("zero simulated runtime".into());
    }
    let flops = 2 * (n as u64).pow(3);
    let expect = flops as f64 / m.runtime.as_secs_f64() / 1e6;
    if !m.mflops.is_finite() || m.mflops.to_bits() != expect.to_bits() {
        return Err(format!("mflops {} disagrees with runtime", m.mflops));
    }
    Ok(())
}

/// A plain route run: one completion per worm, none before injection,
/// the makespan is the last completion and every payload byte moved.
pub fn route(worms: &[Worm], r: &RouteSimResult) -> Result<(), String> {
    if r.completions.len() != worms.len() {
        return Err(format!(
            "{} completions for {} worms",
            r.completions.len(),
            worms.len()
        ));
    }
    if let Some(i) = (0..worms.len()).find(|&i| r.completions[i] < worms[i].inject_at) {
        return Err(format!("worm {i} completed before injection"));
    }
    let last = r.completions.iter().copied().max().unwrap_or(Time::ZERO);
    if r.finished_at != last {
        return Err("makespan is not the last completion".into());
    }
    let bytes: u64 = worms.iter().map(|w| u64::from(w.payload)).sum();
    if r.payload_bytes != bytes {
        return Err(format!("moved {} of {bytes} bytes", r.payload_bytes));
    }
    Ok(())
}

/// A resilient run: one outcome per worm, the ledger conserves worms and
/// bytes and agrees with the outcomes, no delivery precedes injection,
/// and availability is a fraction.
pub fn resilient(worms: &[Worm], r: &ResilientResult) -> Result<(), String> {
    let s = &r.stats;
    if r.outcomes.len() != worms.len() || s.offered != worms.len() as u64 {
        return Err(format!(
            "{} outcomes, {} offered for {} worms",
            r.outcomes.len(),
            s.offered,
            worms.len()
        ));
    }
    if s.offered != s.delivered + s.dropped
        || s.offered_bytes != s.delivered_bytes + s.dropped_bytes
    {
        return Err("ledger does not conserve worms or bytes".into());
    }
    let mut delivered = 0;
    for (i, (w, o)) in worms.iter().zip(&r.outcomes).enumerate() {
        if let Some(d) = o.delivered() {
            delivered += 1;
            if d.finished < w.inject_at {
                return Err(format!("worm {i} delivered before injection"));
            }
        }
    }
    if delivered != s.delivered {
        return Err(format!(
            "{delivered} delivered outcomes, ledger says {}",
            s.delivered
        ));
    }
    if !(0.0..=1.0).contains(&r.availability()) {
        return Err(format!("availability {} outside [0,1]", r.availability()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_sim::time::Duration;

    fn measurement() -> MatMultMeasurement {
        let runtime = Duration::from_ps(123_456_789);
        MatMultMeasurement {
            n: 8,
            mflops: 1024.0 / runtime.as_secs_f64() / 1e6,
            runtime,
            sampled: false,
        }
    }

    #[test]
    fn a_one_ulp_change_to_any_output_changes_the_digest() {
        let m = measurement();
        let base = digest(&Output::MatMult(m));
        let mut slower = m;
        slower.runtime = Duration::from_ps(m.runtime.as_ps() + 1);
        let mut faster = m;
        faster.mflops = f64::from_bits(m.mflops.to_bits() + 1);
        for changed in [slower, faster] {
            assert_ne!(digest(&Output::MatMult(changed)), base);
        }

        let route = RouteSimResult {
            completions: vec![Time::from_ps(10), Time::from_ps(20)],
            finished_at: Time::from_ps(20),
            payload_bytes: 8,
            peak_inflight: 2,
            conflicts: 1,
            detours: 0,
        };
        let base = digest(&Output::Route(route.clone()));
        let mut later = route.clone();
        later.completions[0] = Time::from_ps(11);
        assert_ne!(digest(&Output::Route(later)), base);
    }

    #[test]
    fn matmult_check_pins_mflops_to_the_runtime() {
        let m = measurement();
        assert!(matmult(&m, 8).is_ok());
        assert!(matmult(&m, 16).is_err());
        let mut off = m;
        off.mflops = f64::from_bits(m.mflops.to_bits() + 1);
        assert!(matmult(&off, 8).is_err());
    }
}
