//! Standalone rigs for the two layers under the network: one 4×4
//! `Switch` (arbitration and crossbar) and a bank of input buffers (the
//! buffer designs). Each is loaded with parameters read from a
//! workload's network run, so its timings describe that workload.

use std::hint::black_box;
use std::time::{Duration, Instant};

use damq_core::{
    AnyBuffer, BufferConfig, BufferKind, FrontMeta, InputPort, NodeId, OutputPort, Packet,
    SwitchBuffer,
};
use damq_switch::{ArbiterPolicy, CycleSink, FlowControl, Switch, SwitchConfig};

use crate::workload::{Rng, RADIX, SLOTS};

/// Cycles or rounds between checks of the time budget.
const BATCH: usize = 256;

/// Buffers in the core rig's bank (one 64-terminal fabric's worth).
const BANK: usize = 192;

/// Median host time of an empty timed region, subtracted from every
/// timed call so short operations are not dominated by the clock read.
fn timer_overhead() -> f64 {
    let mut samples: Vec<u64> = (0..1001)
        .map(|_| {
            let t = Instant::now();
            black_box(());
            t.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2] as f64
}

/// Accumulated host time of one kind of call.
#[derive(Debug, Default, Clone, Copy)]
struct Timer {
    regions: u64,
    calls: u64,
    ns: u64,
}

impl Timer {
    fn add(&mut self, start: Instant, calls: usize) {
        self.regions += 1;
        self.calls += calls as u64;
        self.ns += start.elapsed().as_nanos() as u64;
    }

    /// Mean ns per call, net of the clock read of each timed region.
    fn per_call(&self, overhead: f64) -> f64 {
        if self.calls == 0 {
            return 0.0;
        }
        ((self.ns as f64 - overhead * self.regions as f64) / self.calls as f64).max(0.0)
    }
}

/// The load one switch in a workload's fabric sees.
#[derive(Debug, Clone, Copy)]
pub struct SwitchLoad {
    /// Buffer design.
    pub kind: BufferKind,
    /// Flow control of the workload.
    pub flow: FlowControl,
    /// Packets arriving per input per cycle (forwarded hops per
    /// switch input per cycle in the network).
    pub arrival: f64,
    /// Extra share of arrivals bound for output 0 (the busiest sink's
    /// share of deliveries in the network).
    pub hot_share: f64,
    /// Share of candidates the downstream refuses (the share of
    /// buffer-cycles spent full, under blocking flow control).
    pub refusal: f64,
}

/// Per-call host times and counts of the switch rig.
#[derive(Debug, Default, Clone, Copy)]
pub struct SwitchResult {
    /// ns per `transmit_cycle_with`.
    pub transmit_ns: f64,
    /// ns per `receive`.
    pub receive_ns: f64,
    /// ns per `accept_capacities_into`.
    pub accept_ns: f64,
    /// Departures per cycle.
    pub departures_per_cycle: f64,
    /// Refused candidates over offered candidates.
    pub refused_share: f64,
}

/// The downstream side of the standalone switch: refusals come from a
/// pre-drawn table so no random number is drawn inside the timed call.
struct Downstream<'a> {
    refuse: &'a [bool],
    next: usize,
    offered: u64,
    refused: u64,
    departed: u64,
}

impl CycleSink for Downstream<'_> {
    fn can_send(&mut self, _output: OutputPort, _front: FrontMeta) -> bool {
        let refuse = self.refuse[self.next % self.refuse.len()];
        self.next += 1;
        self.offered += 1;
        self.refused += u64::from(refuse);
        !refuse
    }

    fn depart(&mut self, _input: InputPort, _output: OutputPort, packet: Packet) {
        self.departed += 1;
        black_box(packet);
    }
}

fn destination(rng: &mut Rng, hot_share: f64) -> usize {
    if rng.chance(hot_share) {
        0
    } else {
        rng.below(RADIX)
    }
}

/// Drives one 4×4 switch at `load` for about `budget` of host time.
pub fn drive_switch(load: SwitchLoad, seed: u64, budget: Duration) -> SwitchResult {
    let mut sw = Switch::new(
        SwitchConfig::new(RADIX)
            .buffer_kind(load.kind)
            .slots_per_buffer(SLOTS)
            .arbiter_policy(ArbiterPolicy::Smart)
            .flow_control(load.flow),
    )
    .expect("4-slot 4x4 switches are valid for every design");
    let mut rng = Rng::new(seed);
    let overhead = timer_overhead();
    let (mut transmit, mut receive, mut accept) =
        (Timer::default(), Timer::default(), Timer::default());
    let mut caps = vec![0u16; RADIX * RADIX];
    let mut refuse = vec![false; 4 * RADIX * RADIX];
    let mut arrivals: Vec<(InputPort, OutputPort, Packet)> = Vec::with_capacity(RADIX);
    let (mut offered, mut refused, mut departed, mut cycles) = (0, 0, 0, 0u64);
    let start = Instant::now();
    while cycles == 0 || start.elapsed() < budget {
        for _ in 0..BATCH {
            let t = Instant::now();
            sw.accept_capacities_into(&mut caps);
            accept.add(t, 1);
            black_box(&caps);

            let refusal = if load.flow == FlowControl::Blocking {
                load.refusal
            } else {
                0.0
            };
            for r in refuse.iter_mut() {
                *r = rng.chance(refusal);
            }
            let mut sink = Downstream {
                refuse: &refuse,
                next: 0,
                offered: 0,
                refused: 0,
                departed: 0,
            };
            let t = Instant::now();
            sw.transmit_cycle_with(&mut sink);
            transmit.add(t, 1);
            offered += sink.offered;
            refused += sink.refused;
            departed += sink.departed;

            arrivals.clear();
            for input in 0..RADIX {
                if rng.chance(load.arrival) {
                    let dest = destination(&mut rng, load.hot_share);
                    let packet = Packet::builder(NodeId::new(input), NodeId::new(dest)).build();
                    arrivals.push((InputPort::new(input), OutputPort::new(dest), packet));
                }
            }
            let n = arrivals.len();
            let t = Instant::now();
            for (input, output, packet) in arrivals.drain(..) {
                // A full buffer refuses the packet: the network would
                // discard it or have held it upstream.
                let _ = black_box(sw.receive(input, output, packet));
            }
            if n > 0 {
                receive.add(t, n);
            }
            cycles += 1;
        }
    }
    SwitchResult {
        transmit_ns: transmit.per_call(overhead),
        receive_ns: receive.per_call(overhead),
        accept_ns: accept.per_call(overhead),
        departures_per_cycle: departed as f64 / cycles as f64,
        refused_share: if offered == 0 {
            0.0
        } else {
            refused as f64 / offered as f64
        },
    }
}

/// Per-call host times of the buffer operations the switch and network
/// call, and the enqueue reject share, for one design.
#[derive(Debug, Default, Clone, Copy)]
pub struct CoreResult {
    /// ns per `try_enqueue`.
    pub enqueue_ns: f64,
    /// ns per `dequeue`.
    pub dequeue_ns: f64,
    /// ns per `front_meta`.
    pub front_meta_ns: f64,
    /// ns per `queue_lens_into`.
    pub queue_lens_ns: f64,
    /// ns per `accept_capacity`.
    pub accept_capacity_ns: f64,
    /// Rejected enqueues over attempted enqueues.
    pub reject_share: f64,
}

/// Drives a bank of `kind` buffers held near `occupancy` occupied slots
/// each, for about `budget` of host time. Each round mirrors one switch
/// cycle's buffer calls: read queue lengths, examine heads, probe
/// admission, then enqueue into buffers below the target and dequeue
/// from the rest. Every phase is timed over the whole bank.
pub fn drive_core(kind: BufferKind, occupancy: f64, seed: u64, budget: Duration) -> CoreResult {
    let config = BufferConfig::new(RADIX, SLOTS);
    let mut bank: Vec<AnyBuffer> = (0..BANK)
        .map(|_| {
            config
                .build_any(kind)
                .expect("4-slot buffers are valid for every design")
        })
        .collect();
    let mut rng = Rng::new(seed);
    let overhead = timer_overhead();
    let occupancy = occupancy.clamp(0.0, SLOTS as f64);
    let (whole, frac) = (occupancy.floor() as usize, occupancy.fract());
    let mut t_lens = Timer::default();
    let mut t_front = Timer::default();
    let mut t_accept = Timer::default();
    let mut t_enqueue = Timer::default();
    let mut t_dequeue = Timer::default();
    let mut lens = vec![0u16; BANK * RADIX];
    let mut enqueues: Vec<(usize, OutputPort, Packet)> = Vec::with_capacity(BANK);
    let mut dequeues: Vec<(usize, OutputPort)> = Vec::with_capacity(BANK);
    let (mut attempted, mut rejected, mut rounds) = (0u64, 0u64, 0u64);
    let start = Instant::now();
    while rounds == 0 || start.elapsed() < budget {
        for _ in 0..BATCH / 8 {
            let t = Instant::now();
            for (b, row) in bank.iter().zip(lens.chunks_exact_mut(RADIX)) {
                b.queue_lens_into(row);
            }
            t_lens.add(t, BANK);

            let mut heads = 0;
            let t = Instant::now();
            for (b, row) in bank.iter().zip(lens.chunks_exact(RADIX)) {
                for (o, &len) in row.iter().enumerate() {
                    if len > 0 {
                        black_box(b.front_meta(OutputPort::new(o)));
                        heads += 1;
                    }
                }
            }
            t_front.add(t, heads);

            let t = Instant::now();
            for b in &bank {
                for o in 0..RADIX {
                    black_box(b.accept_capacity(OutputPort::new(o)));
                }
            }
            t_accept.add(t, BANK * RADIX);

            enqueues.clear();
            dequeues.clear();
            for (i, b) in bank.iter().enumerate() {
                let target = whole + usize::from(rng.chance(frac));
                if b.used_slots() < target {
                    let dest = rng.below(RADIX);
                    let packet = Packet::builder(NodeId::new(i % 64), NodeId::new(dest)).build();
                    enqueues.push((i, OutputPort::new(dest), packet));
                } else if b.packet_count() > 0 {
                    let row = &lens[i * RADIX..(i + 1) * RADIX];
                    let first = rng.below(RADIX);
                    if let Some(o) = (0..RADIX)
                        .map(|k| (first + k) % RADIX)
                        .find(|&o| row[o] > 0)
                    {
                        dequeues.push((i, OutputPort::new(o)));
                    }
                }
            }

            let n = enqueues.len();
            attempted += n as u64;
            let t = Instant::now();
            for (i, output, packet) in enqueues.drain(..) {
                rejected += u64::from(black_box(bank[i].try_enqueue(output, packet)).is_err());
            }
            t_enqueue.add(t, n);

            let t = Instant::now();
            for &(i, output) in &dequeues {
                black_box(bank[i].dequeue(output));
            }
            t_dequeue.add(t, dequeues.len());
            rounds += 1;
        }
    }
    CoreResult {
        enqueue_ns: t_enqueue.per_call(overhead),
        dequeue_ns: t_dequeue.per_call(overhead),
        front_meta_ns: t_front.per_call(overhead),
        queue_lens_ns: t_lens.per_call(overhead),
        accept_capacity_ns: t_accept.per_call(overhead),
        reject_share: if attempted == 0 {
            0.0
        } else {
            rejected as f64 / attempted as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refusals_waste_arbitration_only_under_blocking() {
        let load = |flow| SwitchLoad {
            kind: BufferKind::Damq,
            flow,
            arrival: 0.9,
            hot_share: 0.5,
            refusal: 0.5,
        };
        let tiny = Duration::from_millis(1);
        let blocking = drive_switch(load(FlowControl::Blocking), 3, tiny);
        assert!(blocking.refused_share > 0.3 && blocking.refused_share < 0.7);
        let discarding = drive_switch(load(FlowControl::Discarding), 3, tiny);
        assert_eq!(discarding.refused_share, 0.0);
        assert!(discarding.departures_per_cycle > blocking.departures_per_cycle);
    }

    #[test]
    fn static_designs_reject_where_dynamic_ones_do_not() {
        let tiny = Duration::from_millis(1);
        let damq = drive_core(BufferKind::Damq, 3.0, 5, tiny);
        let samq = drive_core(BufferKind::Samq, 3.0, 5, tiny);
        assert_eq!(damq.reject_share, 0.0);
        assert!(samq.reject_share > 0.0);
    }
}
