//! A full-duplex channel between two nodes, with functional messages.
//!
//! §3.2: full duplex "improves not only the overall bandwidth but also
//! simplifies the communication protocols by excluding deadlocks". A
//! [`DuplexChannel`] bundles the two independent directions; messages
//! carry real payload bytes and a CRC the receiving link interface
//! verifies (§3.3).

use pm_node::crc::{crc16, Crc16};
use pm_node::ni::{NiConfig, NiDirection, CRC_TRAILER_BYTES};
use pm_sim::time::Time;

/// Which node of the pair an operation acts for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Side {
    /// Node A.
    A,
    /// Node B.
    B,
}

/// A message with payload and checksum.
///
/// # Examples
///
/// ```
/// use pm_comm::duplex::Message;
///
/// let m = Message::new(b"hello".to_vec());
/// assert!(m.verify());
/// assert_eq!(m.payload(), b"hello");
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Message {
    payload: Vec<u8>,
    crc: u16,
}

impl Message {
    /// Creates a message, computing its CRC as the link interface would.
    pub fn new(payload: Vec<u8>) -> Self {
        let crc = crc16(&payload);
        Message { payload, crc }
    }

    /// The payload bytes.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }

    /// The stored checksum.
    pub fn crc(&self) -> u16 {
        self.crc
    }

    /// Verifies payload against checksum (the receiving ASIC's check).
    pub fn verify(&self) -> bool {
        Crc16::verify(&self.payload, self.crc)
    }

    /// Corrupts one bit — used by the fault-injection tests to prove the
    /// CRC catches it.
    pub fn corrupt_bit(&mut self, byte: usize, bit: u8) {
        if let Some(b) = self.payload.get_mut(byte) {
            *b ^= 1 << (bit & 7);
        }
    }
}

/// A failed receive.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RecvError {
    /// No message is pending for this side.
    Empty,
    /// A message arrived but its CRC check failed.
    CrcMismatch,
}

impl core::fmt::Display for RecvError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RecvError::Empty => f.write_str("no message pending"),
            RecvError::CrcMismatch => f.write_str("message failed its CRC check"),
        }
    }
}

impl std::error::Error for RecvError {}

/// The full-duplex pair of NI directions plus in-flight message payloads.
///
/// Timing flows through the [`NiDirection`]s; payload bytes ride along in
/// a queue per direction so receivers get real data to verify.
///
/// # Examples
///
/// ```
/// use pm_comm::duplex::{DuplexChannel, Message, Side};
/// use pm_node::ni::NiConfig;
/// use pm_sim::time::Time;
///
/// let mut ch = DuplexChannel::new(NiConfig::powermanna());
/// let sent = ch.send(Side::A, Time::ZERO, Message::new(vec![1, 2, 3]));
/// let (at, msg) = ch.recv(Side::B, sent).expect("delivered");
/// assert_eq!(msg.payload(), &[1, 2, 3]);
/// assert!(at > Time::ZERO);
/// ```
#[derive(Clone, Debug)]
pub struct DuplexChannel {
    a_to_b: NiDirection,
    b_to_a: NiDirection,
    queue_ab: std::collections::VecDeque<Message>,
    queue_ba: std::collections::VecDeque<Message>,
}

impl DuplexChannel {
    /// Creates an idle channel with identical NI config on both ends.
    pub fn new(config: NiConfig) -> Self {
        DuplexChannel {
            a_to_b: NiDirection::new(config),
            b_to_a: NiDirection::new(config),
            queue_ab: std::collections::VecDeque::new(),
            queue_ba: std::collections::VecDeque::new(),
        }
    }

    /// Direct access to one direction's timing model.
    pub fn direction(&mut self, from: Side) -> &mut NiDirection {
        match from {
            Side::A => &mut self.a_to_b,
            Side::B => &mut self.b_to_a,
        }
    }

    /// Sends a whole message from `from` at `t`, pushing it through the
    /// NI in cache-line chunks and blocking (in simulated time) on flow
    /// control. Returns when the sending CPU is done pushing.
    ///
    /// # Panics
    ///
    /// Panics if flow control blocks and the peer never drains (a real
    /// driver would spin; in the microbenchmarks the orchestrator drains
    /// the peer first).
    pub fn send(&mut self, from: Side, t: Time, msg: Message) -> Time {
        let dir = self.direction(from);
        let mut cursor = t;
        let mut remaining = msg.len() as u32 + CRC_TRAILER_BYTES;
        while remaining > 0 {
            let chunk = remaining.min(64);
            cursor = dir
                .push(cursor, chunk)
                .expect("peer receive FIFO permanently full — drain the peer first");
            remaining -= chunk;
        }
        match from {
            Side::A => self.queue_ab.push_back(msg),
            Side::B => self.queue_ba.push_back(msg),
        }
        cursor
    }

    /// Receives the next pending message at `to`, returning the pop
    /// completion time and the (CRC-verified) message.
    ///
    /// # Errors
    ///
    /// [`RecvError::Empty`] if nothing is pending;
    /// [`RecvError::CrcMismatch`] if verification fails (the message is
    /// consumed, as the hardware would discard it).
    pub fn recv(&mut self, to: Side, t: Time) -> Result<(Time, Message), RecvError> {
        let (dir, queue) = match to {
            Side::A => (&mut self.b_to_a, &mut self.queue_ba),
            Side::B => (&mut self.a_to_b, &mut self.queue_ab),
        };
        let msg = queue.pop_front().ok_or(RecvError::Empty)?;
        let mut cursor = t;
        let mut remaining = msg.len() as u32 + CRC_TRAILER_BYTES;
        while remaining > 0 {
            let chunk = remaining.min(64);
            cursor = dir
                .pop(cursor, chunk)
                .expect("payload queue ahead of NI timing model");
            remaining -= chunk;
        }
        if msg.verify() {
            Ok((cursor, msg))
        } else {
            Err(RecvError::CrcMismatch)
        }
    }

    /// Total payload bytes sent A→B and B→A.
    pub fn bytes(&self) -> (u64, u64) {
        (self.a_to_b.bytes(), self.b_to_a.bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn channel() -> DuplexChannel {
        DuplexChannel::new(NiConfig::powermanna())
    }

    #[test]
    fn round_trip_preserves_payload() {
        let mut ch = channel();
        let data: Vec<u8> = (0..200).collect();
        let sent = ch.send(Side::A, Time::ZERO, Message::new(data.clone()));
        let (at, msg) = ch.recv(Side::B, sent).unwrap();
        assert_eq!(msg.payload(), data.as_slice());
        assert!(at > sent);
    }

    #[test]
    fn directions_are_independent() {
        let mut ch = channel();
        let sa = ch.send(Side::A, Time::ZERO, Message::new(vec![1]));
        let sb = ch.send(Side::B, Time::ZERO, Message::new(vec![2]));
        assert_eq!(sa, sb, "full duplex: both sends proceed in parallel");
        let (_, ma) = ch.recv(Side::B, sa).unwrap();
        let (_, mb) = ch.recv(Side::A, sb).unwrap();
        assert_eq!(ma.payload(), &[1]);
        assert_eq!(mb.payload(), &[2]);
    }

    #[test]
    fn recv_empty_errors() {
        let mut ch = channel();
        assert_eq!(ch.recv(Side::A, Time::ZERO).unwrap_err(), RecvError::Empty);
    }

    #[test]
    fn corrupted_message_fails_crc() {
        let mut ch = channel();
        let mut msg = Message::new(vec![0xAA; 32]);
        msg.corrupt_bit(7, 3);
        // The CRC was computed before corruption, as if the wire flipped
        // a bit after the sending ASIC summed the payload.
        let sent = ch.send(Side::A, Time::ZERO, msg);
        assert_eq!(ch.recv(Side::B, sent).unwrap_err(), RecvError::CrcMismatch);
    }

    #[test]
    fn fifo_ordering_is_preserved() {
        let mut ch = channel();
        let mut t = Time::ZERO;
        for i in 0..5u8 {
            t = ch.send(Side::A, t, Message::new(vec![i; 8]));
        }
        let mut rt = t;
        for i in 0..5u8 {
            let (nt, m) = ch.recv(Side::B, rt).unwrap();
            assert_eq!(m.payload()[0], i);
            rt = nt;
        }
    }

    #[test]
    fn empty_message_has_crc_only() {
        let m = Message::new(Vec::new());
        assert!(m.is_empty());
        assert!(m.verify());
        assert_eq!(m.crc(), 0xFFFF);
    }
}
