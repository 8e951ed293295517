//! Capped exponential retry backoff with deterministic jitter, the
//! retransmission gaps of the route simulator's self-healing loop
//! ([`crate::routesim`]).

use pm_sim::time::Duration;

/// Seed of the jitter hash.
const JITTER_SEED: u64 = 0x5EED;

/// How hard a sender retries, and how long it waits between attempts.
///
/// The backoff after attempt *a* (1-based) is `initial_backoff` doubled
/// `a - 1` times and capped at `max_backoff`; the gap is drawn uniformly
/// from `[backoff/2, backoff]` by a splitmix64 hash of
/// `(salt, attempt)`: deterministic per sender, decorrelated across
/// senders, so senders knocked back by the same event do not retry in
/// lockstep and re-collide on the recovering resource (synchronized
/// retry storms).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Transmissions per message, first attempt included.
    pub max_attempts: u32,
    /// Backoff after the first failed attempt; doubles per failure.
    pub initial_backoff: Duration,
    /// Upper bound the exponential backoff saturates at.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    /// 16 attempts with 2 µs → 256 µs exponential backoff: even a wire
    /// corrupting 90 % of transmissions delivers with probability
    /// 1 − 0.9¹⁶ ≈ 0.81 per message, while a dead peer costs at most
    /// 2.3 ms of backoff before the message is dropped.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 16,
            initial_backoff: Duration::from_us(2),
            max_backoff: Duration::from_us(256),
        }
    }
}

impl RetryPolicy {
    /// The wait after failed attempt `attempt` (1-based) of the sender or
    /// message identified by `salt` (any stable per-sender counter).
    pub fn gap_after(&self, salt: u64, attempt: u32) -> Duration {
        let doublings = attempt.saturating_sub(1).min(32);
        let backoff = self
            .initial_backoff
            .as_ps()
            .saturating_mul(1u64 << doublings)
            .min(self.max_backoff.as_ps());
        let lo = backoff / 2;
        let span = backoff - lo + 1;
        let h = mix64(
            JITTER_SEED ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (u64::from(attempt) << 32),
        );
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
    fn jittered_gaps_are_bounded_deterministic_and_decorrelated() {
        let p = RetryPolicy::default();
        for attempt in 1..=40u32 {
            // The backoff doubles from 2 µs and saturates at 256 µs.
            let backoff = Duration::from_us(2 << attempt.saturating_sub(1).min(7));
            for salt in 0..64u64 {
                let gap = p.gap_after(salt, attempt);
                assert_eq!(gap, p.gap_after(salt, attempt), "deterministic");
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
