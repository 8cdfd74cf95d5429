//! The source backlog: packets generated at a terminal but not yet
//! injected, held delta-coded.
//!
//! Past saturation the open-loop sources build a backlog that grows with
//! the window (on the 64-terminal hot-spot run, about 16 packets a
//! cycle), which makes it the simulator's largest data structure. A
//! [`SourceQueue`] sizes its storage to what is held rather than to a
//! fixed per-entry width:
//!
//! * the **head** is kept decoded, so the per-cycle peek in `inject` is a
//!   field read;
//! * the rest is a byte FIFO of LEB128 varints, four per packet: the
//!   serial gap from the packet ahead, the birth-cycle gap from the packet
//!   ahead, the destination, and `length << 1 | corrupt`;
//! * the serial and birth cycle of the newest packet are the base for the
//!   next pushed packet's gaps.
//!
//! Serials and birth cycles are global monotone counters, so the gaps are
//! small and the destination and length fit one or two bytes: a packet
//! costs about 4 bytes instead of the 32 of a decoded [`PendingPacket`].
//! Gaps are taken with wrapping subtraction and every field is a full
//! `u64` varint, so any sequence round-trips: there is no width limit and
//! no escape case.

use std::collections::VecDeque;

use damq_core::{AuditError, NodeId, Packet, PacketId};

/// A generated packet waiting at its source, in compact form.
///
/// Holds exactly the identity a [`Packet`] is built from — serial,
/// destination, length, birth cycle — plus the corruption flag a fault
/// plan may have stamped at generation time. `materialize` rebuilds the
/// identical `Packet` (the source is the queue index), so deferring
/// construction to injection time is unobservable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PendingPacket {
    pub(crate) serial: u64,
    pub(crate) birth_cycle: u64,
    pub(crate) dest: u32,
    pub(crate) length_bytes: u32,
    pub(crate) corrupt: bool,
}

impl PendingPacket {
    pub(crate) fn materialize(self, source: usize) -> Packet {
        let mut packet = Packet::builder(NodeId::new(source), NodeId::new(self.dest as usize))
            .id(PacketId::new(self.serial))
            .length_bytes(self.length_bytes as usize)
            .birth_cycle(self.birth_cycle)
            .build();
        if self.corrupt {
            packet.corrupt_payload();
        }
        packet
    }
}

/// One source's FIFO of [`PendingPacket`]s: a decoded head plus a
/// delta-coded tail (see the module docs for the layout).
#[derive(Debug, Clone, Default)]
pub(crate) struct SourceQueue {
    /// The oldest packet, decoded; `None` exactly when the queue is empty.
    head: Option<PendingPacket>,
    /// Every packet behind the head, four varints each, oldest first.
    tail: VecDeque<u8>,
    /// Serial of the newest packet: the base of the next serial gap.
    last_serial: u64,
    /// Birth cycle of the newest packet: the base of the next birth gap.
    last_birth: u64,
    /// Packets held, head included.
    len: usize,
}

impl SourceQueue {
    /// Packets held.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Bytes the delta-coded tail occupies (its capacity may be larger).
    #[cfg(test)]
    pub(crate) fn tail_bytes(&self) -> usize {
        self.tail.len()
    }

    /// The oldest packet, if any.
    pub(crate) fn front(&self) -> Option<&PendingPacket> {
        self.head.as_ref()
    }

    /// Appends `packet` behind every packet held.
    pub(crate) fn push_back(&mut self, packet: PendingPacket) {
        if self.head.is_none() {
            self.head = Some(packet);
        } else {
            write_varint(&mut self.tail, packet.serial.wrapping_sub(self.last_serial));
            write_varint(
                &mut self.tail,
                packet.birth_cycle.wrapping_sub(self.last_birth),
            );
            write_varint(&mut self.tail, u64::from(packet.dest));
            write_varint(
                &mut self.tail,
                u64::from(packet.length_bytes) << 1 | u64::from(packet.corrupt),
            );
        }
        self.last_serial = packet.serial;
        self.last_birth = packet.birth_cycle;
        self.len += 1;
    }

    /// Removes and returns the oldest packet, decoding the next one into
    /// the head.
    pub(crate) fn pop_front(&mut self) -> Option<PendingPacket> {
        let head = self.head.take()?;
        self.len -= 1;
        if self.len > 0 {
            // A short or malformed tail leaves the head empty with packets
            // still counted, which `audit` reports.
            self.head = read_packet(&mut self.tail, &head);
        }
        Some(head)
    }

    /// Checks the queue's structure: the head is present exactly when the
    /// queue holds a packet, and the tail holds bytes exactly when the
    /// queue holds more than one.
    pub(crate) fn audit(&self, source: usize) -> Result<(), AuditError> {
        if self.head.is_none() != (self.len == 0) {
            return Err(AuditError::new(
                "source-queue",
                format!(
                    "source {source}: {} packets counted but the head is {}",
                    self.len,
                    if self.head.is_some() { "set" } else { "empty" },
                ),
            ));
        }
        if self.tail.is_empty() != (self.len <= 1) {
            return Err(AuditError::new(
                "source-queue",
                format!(
                    "source {source}: {} packets counted but the tail holds {} bytes",
                    self.len,
                    self.tail.len(),
                ),
            ));
        }
        Ok(())
    }
}

/// Appends `value` as an LEB128 varint: seven bits a byte, low bits
/// first, the high bit set on every byte but the last.
fn write_varint(bytes: &mut VecDeque<u8>, mut value: u64) {
    while value >= 0x80 {
        bytes.push_back(value as u8 | 0x80);
        value >>= 7;
    }
    bytes.push_back(value as u8);
}

/// Pops one LEB128 varint; `None` if the bytes run out or it overruns 64
/// bits.
fn read_varint(bytes: &mut VecDeque<u8>) -> Option<u64> {
    let mut value = 0;
    let mut shift = 0;
    loop {
        let byte = bytes.pop_front()?;
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(value);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

/// Pops the packet behind `ahead` off the tail.
fn read_packet(bytes: &mut VecDeque<u8>, ahead: &PendingPacket) -> Option<PendingPacket> {
    let serial = ahead.serial.wrapping_add(read_varint(bytes)?);
    let birth_cycle = ahead.birth_cycle.wrapping_add(read_varint(bytes)?);
    let dest = u32::try_from(read_varint(bytes)?).ok()?;
    let word = read_varint(bytes)?;
    Some(PendingPacket {
        serial,
        birth_cycle,
        dest,
        length_bytes: u32::try_from(word >> 1).ok()?,
        corrupt: word & 1 == 1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn packet(serial: u64, birth_cycle: u64, dest: u32, length_bytes: u32) -> PendingPacket {
        PendingPacket {
            serial,
            birth_cycle,
            dest,
            length_bytes,
            corrupt: false,
        }
    }

    /// Pushes to and pops from both queues, then checks they agree.
    struct Pair {
        queue: SourceQueue,
        oracle: VecDeque<PendingPacket>,
    }

    impl Pair {
        fn new() -> Self {
            Pair {
                queue: SourceQueue::default(),
                oracle: VecDeque::new(),
            }
        }

        fn push(&mut self, p: PendingPacket) {
            self.queue.push_back(p);
            self.oracle.push_back(p);
            self.check();
        }

        fn pop(&mut self) {
            assert_eq!(self.queue.pop_front(), self.oracle.pop_front());
            self.check();
        }

        fn check(&self) {
            assert_eq!(self.queue.len(), self.oracle.len());
            assert_eq!(self.queue.front(), self.oracle.front());
            self.queue.audit(0).unwrap();
        }

        fn drain(&mut self) {
            while !self.oracle.is_empty() {
                self.pop();
            }
            self.pop(); // popping an empty queue is a no-op on both
        }
    }

    #[test]
    fn varints_round_trip_at_every_width() {
        let mut bytes = VecDeque::new();
        let values = [
            0,
            1,
            127,
            128,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::from(u32::MAX) + 1,
            u64::MAX - 1,
            u64::MAX,
        ];
        for v in values {
            write_varint(&mut bytes, v);
        }
        // 1+1+1+2+2+3+5+5+10+10 bytes.
        assert_eq!(bytes.len(), 40);
        for v in values {
            assert_eq!(read_varint(&mut bytes), Some(v));
        }
        assert_eq!(read_varint(&mut bytes), None);
    }

    #[test]
    fn malformed_varints_are_none() {
        // Runs out mid-value.
        let mut bytes: VecDeque<u8> = [0x80, 0x80].into_iter().collect();
        assert_eq!(read_varint(&mut bytes), None);
        // Eleven continuation bytes overrun 64 bits.
        let mut bytes: VecDeque<u8> = std::iter::repeat_n(0xff, 11).collect();
        assert_eq!(read_varint(&mut bytes), None);
    }

    #[test]
    fn edge_gaps_and_fields_match_the_oracle() {
        let mut pair = Pair::new();
        let mut serial = 0u64;
        let mut birth = 0u64;
        let gaps = [
            0,
            1,
            127,
            128,
            u64::from(u32::MAX),
            u64::from(u32::MAX) + 1,
            u64::MAX - 3,
            2,
        ];
        for (i, gap) in gaps.into_iter().enumerate() {
            serial = serial.wrapping_add(gap);
            birth = birth.wrapping_add(gaps[gaps.len() - 1 - i]);
            let mut p = packet(serial, birth, u32::MAX - i as u32, u32::MAX - i as u32);
            p.corrupt = i % 2 == 1;
            pair.push(p);
        }
        pair.push(packet(serial, birth, 0, 0)); // zero gaps, zero fields
        pair.drain();
    }

    #[test]
    fn random_push_pop_sequences_match_the_oracle() {
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut pair = Pair::new();
            let mut serial = rng.next_u64();
            let mut birth = rng.next_u64();
            for _ in 0..2_000 {
                // Bias toward pushes in even seeds so queues grow deep, and
                // toward pops in odd seeds so they empty and refill often.
                let push_share = if seed % 2 == 0 { 0.6 } else { 0.45 };
                if rng.random_bool(push_share) {
                    let gap = |rng: &mut StdRng| match rng.random_range(0..6usize) {
                        0 => 0,
                        1 => rng.random_range(126..130u64),
                        2 => u64::from(u32::MAX) + rng.random_range(0..3u64),
                        3 => u64::MAX - rng.random_range(0..3u64),
                        _ => rng.random_range(1..41u64),
                    };
                    serial = serial.wrapping_add(gap(&mut rng));
                    birth = birth.wrapping_add(gap(&mut rng));
                    let length = if rng.random_bool(0.1) {
                        u32::MAX
                    } else {
                        rng.random_range(1..65u64) as u32
                    };
                    let dest = rng.next_u64() as u32;
                    let mut p = packet(serial, birth, dest, length);
                    p.corrupt = rng.random_bool(0.2);
                    pair.push(p);
                } else {
                    pair.pop();
                }
            }
            pair.drain();
        }
    }

    #[test]
    fn repeated_empty_refill_cycles_match_the_oracle() {
        let mut pair = Pair::new();
        for round in 0..50u64 {
            let base = round * 1_000;
            for k in 0..(round % 4) {
                pair.push(packet(base + k, base / 2 + k, k as u32, 8));
            }
            pair.drain();
        }
        assert_eq!(pair.queue.tail_bytes(), 0);
    }

    #[test]
    fn audit_flags_a_corrupted_tail() {
        let mut queue = SourceQueue::default();
        for k in 0..3 {
            queue.push_back(packet(k, k, 1, 8));
        }
        queue.audit(5).unwrap();
        queue.tail.clear();
        // Count 3 with an empty tail.
        assert!(queue.audit(5).is_err());
        // Popping the head finds nothing to decode: count 2, no head.
        assert_eq!(queue.pop_front().map(|p| p.serial), Some(0));
        let err = queue.audit(5).unwrap_err();
        assert!(err.to_string().contains("source 5"), "{err}");
    }
}
