//! Capped exponential retry backoff with optional deterministic jitter.
//!
//! One policy serves every retransmitting layer: the stop-and-wait and
//! multi-hop transports in `pm_comm::reliable` (un-jittered by default,
//! plus a fixed NACK turnaround they add themselves) and the route
//! simulator's retransmissions in [`crate::routesim`] (jittered by
//! default).

use pm_sim::time::Duration;

/// How hard a sender retries, and how long it waits between attempts.
///
/// The gap after attempt *a* (1-based) is `initial_backoff` doubled
/// `a - 1` times and capped at `max_backoff`. With `jitter: Some(seed)`
/// the gap is drawn uniformly from `[backoff/2, backoff]` by a
/// splitmix64 hash of `(seed, salt, attempt)`: deterministic per sender,
/// decorrelated across senders, so senders knocked back by the same
/// event do not retry in lockstep and re-collide on the recovering
/// resource (synchronized retry storms).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Transmissions per message, first attempt included.
    pub max_attempts: u32,
    /// Backoff after the first failed attempt; doubles per failure.
    pub initial_backoff: Duration,
    /// Upper bound the exponential backoff saturates at.
    pub max_backoff: Duration,
    /// Seed of the jitter hash; `None` keeps the exact un-jittered gaps.
    pub jitter: Option<u64>,
}

impl Default for RetryPolicy {
    /// 16 attempts with 1 µs → 64 µs exponential backoff, un-jittered:
    /// even a wire corrupting 90 % of transmissions delivers with
    /// probability 1 − 0.9¹⁶ ≈ 0.81 per message, while a dead peer costs
    /// a bounded ~0.6 ms before the typed error.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 16,
            initial_backoff: Duration::from_us(1),
            max_backoff: Duration::from_us(64),
            jitter: None,
        }
    }
}

impl RetryPolicy {
    /// The wait after failed attempt `attempt` (1-based) of the sender or
    /// message identified by `salt` (any stable per-sender counter; it
    /// only matters when jitter is on).
    pub fn gap_after(&self, salt: u64, attempt: u32) -> Duration {
        let doublings = attempt.saturating_sub(1).min(32);
        let backoff = self
            .initial_backoff
            .as_ps()
            .saturating_mul(1u64 << doublings)
            .min(self.max_backoff.as_ps());
        let Some(seed) = self.jitter else {
            return Duration::from_ps(backoff);
        };
        let lo = backoff / 2;
        let span = backoff - lo + 1;
        let h = mix64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (u64::from(attempt) << 32));
        Duration::from_ps(lo + h % span)
    }
}

/// SplitMix64 finalizer: a cheap, high-quality 64-bit mix.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unjittered_gaps_double_saturate_and_ignore_the_salt() {
        // The transport goldens depend on these exact gaps.
        let p = RetryPolicy::default();
        for (attempt, us) in [(1, 1), (2, 2), (5, 16), (12, 64), (40, 64)] {
            for salt in [0u64, 1, 7, u64::MAX] {
                assert_eq!(p.gap_after(salt, attempt), Duration::from_us(us));
            }
        }
    }

    #[test]
    fn jittered_gaps_are_bounded_deterministic_and_decorrelated() {
        let p = RetryPolicy {
            jitter: Some(0xBEEF),
            ..RetryPolicy::default()
        };
        let plain = RetryPolicy::default();
        for attempt in 1..=40u32 {
            for salt in 0..64u64 {
                let gap = p.gap_after(salt, attempt);
                assert_eq!(gap, p.gap_after(salt, attempt), "deterministic");
                let backoff = plain.gap_after(salt, attempt);
                assert!(gap >= Duration::from_ps(backoff.as_ps() / 2));
                assert!(gap <= backoff);
            }
        }
        // Senders knocked back by the same failure must not retry in
        // lockstep: distinct salts spread the gaps.
        let gaps: Vec<Duration> = (0..32).map(|salt| p.gap_after(salt, 5)).collect();
        assert!(gaps.iter().any(|&g| g != gaps[0]));
    }
}
