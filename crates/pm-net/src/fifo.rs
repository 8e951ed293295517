//! Time-aware byte FIFOs — the substrate of soft (stop-signal) flow
//! control.
//!
//! §3.2: "Together with the FIFO buffers on the receiver side, the stop
//! signal is used for soft flow control." A [`TimedFifo`] tracks its
//! occupancy over simulated time via cumulative push/pop timelines, so a
//! producer can ask *when* space for a chunk becomes available given the
//! pops recorded so far.

use pm_sim::time::Time;

/// A byte FIFO with bounded capacity and time-stamped occupancy.
///
/// Callers must record pushes and pops in non-decreasing time order per
/// side (the orchestrators in `pm-comm` interleave endpoints that way).
///
/// # Examples
///
/// ```
/// use pm_net::fifo::TimedFifo;
/// use pm_sim::time::Time;
///
/// // The NI send FIFO: 32 x 64-bit words = 256 bytes.
/// let mut f = TimedFifo::new(256);
/// assert_eq!(f.space_available(Time::ZERO, 256), Some(Time::ZERO));
/// f.push(Time::ZERO, 256);
/// // Full: no space until something is popped.
/// assert_eq!(f.space_available(Time::ZERO, 1), None);
/// f.pop(Time::from_ps(1000), 64);
/// assert_eq!(f.space_available(Time::ZERO, 64), Some(Time::from_ps(1000)));
/// ```
#[derive(Clone, Debug)]
pub struct TimedFifo {
    capacity: u32,
    pushes: Vec<(Time, u64)>,
    pops: Vec<(Time, u64)>,
}

impl TimedFifo {
    /// Creates an empty FIFO with `capacity` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: u32) -> Self {
        assert!(capacity > 0, "FIFO needs nonzero capacity");
        TimedFifo {
            capacity,
            pushes: Vec::new(),
            pops: Vec::new(),
        }
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Cumulative bytes pushed by time `t` (inclusive).
    pub fn pushed_by(&self, t: Time) -> u64 {
        cumulative_at(&self.pushes, t)
    }

    /// Cumulative bytes popped by time `t` (inclusive).
    pub fn popped_by(&self, t: Time) -> u64 {
        cumulative_at(&self.pops, t)
    }

    /// Occupancy at time `t`.
    pub fn level(&self, t: Time) -> u32 {
        (self.pushed_by(t) - self.popped_by(t)) as u32
    }

    /// Records `bytes` entering the FIFO at `t`.
    ///
    /// # Panics
    ///
    /// Panics if the push would exceed capacity (the caller must gate
    /// pushes with [`TimedFifo::space_available`]) or if `t` precedes the
    /// last recorded push.
    pub fn push(&mut self, t: Time, bytes: u32) {
        assert!(
            self.pushes.last().is_none_or(|&(pt, _)| pt <= t),
            "pushes must be recorded in time order"
        );
        assert!(
            self.level(t) + bytes <= self.capacity,
            "FIFO overflow: level {} + {} > {}",
            self.level(t),
            bytes,
            self.capacity
        );
        let total = self.pushes.last().map_or(0, |&(_, c)| c) + bytes as u64;
        self.pushes.push((t, total));
    }

    /// Records `bytes` leaving the FIFO at `t`.
    ///
    /// # Panics
    ///
    /// Panics if more bytes are popped than were present at `t`, or if `t`
    /// precedes the last recorded pop.
    pub fn pop(&mut self, t: Time, bytes: u32) {
        assert!(
            self.pops.last().is_none_or(|&(pt, _)| pt <= t),
            "pops must be recorded in time order"
        );
        assert!(
            self.level(t) >= bytes,
            "FIFO underflow: level {} < {}",
            self.level(t),
            bytes
        );
        let total = self.pops.last().map_or(0, |&(_, c)| c) + bytes as u64;
        self.pops.push((t, total));
    }

    /// Earliest time at or after `t` at which `bytes` of space exist,
    /// given the pops recorded so far. `None` means not until future pops
    /// are recorded (caller should advance the consumer first).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` exceeds the capacity outright.
    pub fn space_available(&self, t: Time, bytes: u32) -> Option<Time> {
        assert!(bytes <= self.capacity, "chunk larger than FIFO");
        // Every recorded push is committed, even those stamped later than
        // `t` (a producer may have scheduled a chunk's entry in its own
        // future); occupancy for admission control is therefore all
        // pushes minus the pops that have happened by `t`.
        let pushed = self.pushed_by(Time::MAX);
        let committed_level = (pushed - self.popped_by(t)) as u32;
        if committed_level + bytes <= self.capacity {
            return Some(t);
        }
        // Scan recorded future pops for the first instant with room.
        let future = self.pops.partition_point(|&(pt, _)| pt <= t);
        for &(pt, pop_cum) in &self.pops[future..] {
            let level = (pushed - pop_cum) as u32;
            if level + bytes <= self.capacity {
                return Some(pt);
            }
        }
        None
    }
}

/// The cumulative count of the last event at or before `t` (several
/// events can share a timestamp).
fn cumulative_at(events: &[(Time, u64)], t: Time) -> u64 {
    match events.partition_point(|&(et, _)| et <= t) {
        0 => 0,
        after => events[after - 1].1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ps: u64) -> Time {
        Time::from_ps(ps)
    }

    #[test]
    fn level_tracks_pushes_and_pops() {
        let mut f = TimedFifo::new(100);
        f.push(t(10), 40);
        f.push(t(20), 30);
        f.pop(t(15), 20);
        assert_eq!(f.level(t(5)), 0);
        assert_eq!(f.level(t(10)), 40);
        assert_eq!(f.level(t(15)), 20);
        assert_eq!(f.level(t(25)), 50);
    }

    #[test]
    fn space_available_now_when_room() {
        let mut f = TimedFifo::new(64);
        f.push(t(0), 32);
        assert_eq!(f.space_available(t(0), 32), Some(t(0)));
        assert_eq!(f.space_available(t(0), 33), None);
    }

    #[test]
    fn space_available_after_recorded_pop() {
        let mut f = TimedFifo::new(64);
        f.push(t(0), 64);
        f.pop(t(100), 32);
        assert_eq!(f.space_available(t(0), 16), Some(t(100)));
        assert_eq!(f.space_available(t(0), 33), None);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut f = TimedFifo::new(10);
        f.push(t(0), 8);
        f.push(t(1), 8);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn underflow_panics() {
        let mut f = TimedFifo::new(10);
        f.pop(t(0), 1);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_push_panics() {
        let mut f = TimedFifo::new(10);
        f.push(t(100), 1);
        f.push(t(50), 1);
    }

    #[test]
    fn simultaneous_events_resolve() {
        let mut f = TimedFifo::new(100);
        f.push(t(10), 10);
        f.push(t(10), 20);
        assert_eq!(f.level(t(10)), 30);
    }
}
