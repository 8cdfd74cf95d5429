//! The synchronous Omega-network simulator.
//!
//! The simulator follows the paper's assumptions (§4.2, after Pfister &
//! Norton): message transmissions are synchronised, so packets move between
//! stages "instantaneously once every twelve clock cycles". One call to
//! [`NetworkSim::step`] is one such network cycle:
//!
//! 1. every source generates a packet with probability equal to the offered
//!    load, appending it to its (unbounded) source queue;
//! 2. stages transmit, **last stage first**, so that space freed downstream
//!    in this cycle is visible upstream — a packet advances at most one
//!    stage per cycle;
//! 3. sources inject their head packet into the first stage if the protocol
//!    allows.
//!
//! Under the *blocking* protocol a switch only transmits a packet if the
//! downstream buffer can accept it (for the statically-allocated designs
//! this checks the specific queue the packet will join — the pre-routing
//! flow-control cost the paper describes). Under the *discarding* protocol
//! packets always fly and are dropped at full buffers.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use damq_core::{
    AnyBuffer, AuditError, BufferKind, BuildBuffer, ConfigError, FaultEvent, FaultLedger,
    FaultPlan, FrontMeta, InputPort, NodeId, OutputPort, Packet, PacketIdSource, RejectReason,
    SwitchBuffer, DEFAULT_SLOT_BYTES,
};
use damq_switch::{ArbiterPolicy, CycleSink, FlowControl, Switch, SwitchConfig};
use damq_telemetry::{
    CounterId, Event, EventKind, HistogramId, MetricsRegistry, NullSink, TelemetrySink,
};

use crate::metrics::NetMetrics;
use crate::source::{PendingPacket, SourceQueue};
use crate::topology::{HopRoute, RoutePlan, Topology, TopologyError, TopologyKind};
use crate::traffic::TrafficPattern;

/// How packet arrivals are timed at each source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Independent Bernoulli arrivals at the offered load each cycle (the
    /// paper's traffic model).
    Bernoulli,
    /// Two-state Markov-modulated (on/off) sources: bursts of back-to-back
    /// generation separated by silences. The long-run mean rate still
    /// equals the configured offered load; burstiness redistributes it.
    OnOff {
        /// Mean burst (ON-state) duration in cycles (≥ 1).
        mean_burst: f64,
        /// Long-run fraction of time spent ON, in (0, 1]. While ON the
        /// source generates with probability `load / duty` per cycle
        /// (clamped to 1), so smaller duty means denser bursts.
        duty: f64,
    },
}

/// How packet payload lengths are drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PacketLengths {
    /// Every packet carries exactly this many bytes (the paper's simulation
    /// assumption; 8 bytes = one slot).
    Fixed(usize),
    /// Lengths drawn uniformly from `min..=max` bytes (the variable-length
    /// workload the DAMQ buffer was designed for; see paper §5).
    Uniform {
        /// Smallest payload in bytes.
        min: usize,
        /// Largest payload in bytes.
        max: usize,
    },
}

impl PacketLengths {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        match *self {
            PacketLengths::Fixed(bytes) => bytes,
            PacketLengths::Uniform { min, max } => rng.random_range(min..=max),
        }
    }

    /// Whether every length this draws is in `1..=u32::MAX` bytes (a
    /// packet carries at least one byte and its length register is 32
    /// bits) and the range is non-empty.
    fn is_valid(&self) -> bool {
        let (min, max) = match *self {
            PacketLengths::Fixed(bytes) => (bytes, bytes),
            PacketLengths::Uniform { min, max } => (min, max),
        };
        1 <= min && min <= max && u32::try_from(max).is_ok()
    }
}

/// Error constructing a [`NetworkSim`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum NetworkError {
    /// The topology dimensions are invalid.
    Topology(TopologyError),
    /// The per-switch buffer configuration is invalid.
    Buffer(ConfigError),
    /// The packet lengths can draw 0 bytes or more than `u32::MAX` bytes,
    /// or the `Uniform` range is empty (`min > max`).
    PacketLengths(PacketLengths),
}

impl std::fmt::Display for NetworkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetworkError::Topology(e) => write!(f, "topology: {e}"),
            NetworkError::Buffer(e) => write!(f, "buffer: {e}"),
            NetworkError::PacketLengths(lengths) => write!(
                f,
                "packet lengths {lengths:?}: every length must be 1..={} bytes with min <= max",
                u32::MAX
            ),
        }
    }
}

impl std::error::Error for NetworkError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetworkError::Topology(e) => Some(e),
            NetworkError::Buffer(e) => Some(e),
            NetworkError::PacketLengths(_) => None,
        }
    }
}

impl From<TopologyError> for NetworkError {
    fn from(e: TopologyError) -> Self {
        NetworkError::Topology(e)
    }
}

impl From<ConfigError> for NetworkError {
    fn from(e: ConfigError) -> Self {
        NetworkError::Buffer(e)
    }
}

/// Closed-loop recovery configuration: link-level retransmission and
/// fault-adaptive (deflection) rerouting.
///
/// Disabled by default — a `NetworkSim` without recovery behaves exactly
/// as before this subsystem existed. All timers are **simulated network
/// cycles**, never wall clock, so recovery is seed-stable.
///
/// # Examples
///
/// ```
/// use damq_net::{NetworkConfig, RecoveryConfig};
///
/// let cfg = NetworkConfig::new(64, 4).recovery(RecoveryConfig::enabled());
/// assert!(cfg.recovery_config().retransmit);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryConfig {
    /// Park packets lost to flapped links or checksum-caught corruption
    /// in a bounded per-hop retransmit buffer and resend them after a
    /// deterministic cycle-count timeout.
    pub retransmit: bool,
    /// Retransmit-buffer depth per hop (parked packets per link). A
    /// loss on a hop whose buffer is full gives the packet up
    /// immediately.
    pub retransmit_slots: usize,
    /// Resend attempts before a parked packet is given up
    /// (`net.retry_exhausted`, `gave_up` telemetry).
    pub max_retries: u32,
    /// Cycles from a loss (or failed resend) to the next resend attempt,
    /// before backoff scaling.
    pub base_timeout: u64,
    /// Cap on the exponential backoff: attempt `n` waits
    /// `base_timeout << min(n, max_backoff_exp)` cycles.
    pub max_backoff_exp: u32,
    /// Deflect packets through the route plan's alternate output when
    /// the primary output's link is down or its downstream queue is
    /// saturated (misroute-on-block; the deflection is corrected by
    /// end-to-end retransmission at the wrong sink).
    pub adaptive: bool,
    /// Deflections allowed per packet — bounds deliberate misrouting so
    /// every packet keeps making progress toward *some* sink.
    pub misroute_budget: u8,
    /// Cycles between a link fault striking and recovery's link-health
    /// state believing it (routing reacts within this window).
    pub detection_window: u64,
}

impl RecoveryConfig {
    /// No recovery: losses are final, routing never deflects (the
    /// drop-only behaviour of the plain fault model).
    pub fn disabled() -> Self {
        RecoveryConfig {
            retransmit: false,
            retransmit_slots: 0,
            max_retries: 0,
            base_timeout: 0,
            max_backoff_exp: 0,
            adaptive: false,
            misroute_budget: 0,
            detection_window: 0,
        }
    }

    /// Retransmission and adaptive rerouting both on, with defaults
    /// sized for the paper's 64-terminal network: 8 retransmit slots
    /// per hop, 8 resend attempts starting 4 cycles after a loss with
    /// backoff capped at `4 << 5` cycles, a misroute budget of 2
    /// deflections per packet, and a 2-cycle fault-detection window.
    pub fn enabled() -> Self {
        RecoveryConfig {
            retransmit: true,
            retransmit_slots: 8,
            max_retries: 8,
            base_timeout: 4,
            max_backoff_exp: 5,
            adaptive: true,
            misroute_budget: 2,
            detection_window: 2,
        }
    }

    /// Whether any recovery mechanism is on.
    pub fn active(&self) -> bool {
        self.retransmit || self.adaptive
    }

    /// The resend delay after `attempts` failed attempts:
    /// `base_timeout << min(attempts, max_backoff_exp)`, floored at one
    /// cycle so a zero configuration cannot spin.
    fn backoff(&self, attempts: u32) -> u64 {
        let exp = attempts.min(self.max_backoff_exp).min(32);
        self.base_timeout.max(1).saturating_mul(1u64 << exp)
    }
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// Full description of a network experiment.
///
/// Defaults reproduce the paper's Omega setup: 64 terminals, 4×4 switches,
/// DAMQ buffers of 4 slots, smart arbitration, blocking protocol, uniform
/// traffic, fixed one-slot packets.
///
/// # Examples
///
/// ```
/// use damq_core::BufferKind;
/// use damq_net::{NetworkConfig, NetworkSim};
///
/// let mut sim = NetworkSim::new(
///     NetworkConfig::new(64, 4)
///         .buffer_kind(BufferKind::Fifo)
///         .offered_load(0.4)
///         .seed(7),
/// )?;
/// sim.run(100);
/// assert!(sim.metrics().delivered() > 0);
/// # Ok::<(), damq_net::NetworkError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkConfig {
    size: usize,
    radix: usize,
    topology_kind: TopologyKind,
    buffer_kind: BufferKind,
    slots_per_buffer: usize,
    arbiter_policy: ArbiterPolicy,
    flow_control: FlowControl,
    pattern: TrafficPattern,
    offered_load: f64,
    packet_lengths: PacketLengths,
    arrivals: ArrivalProcess,
    recovery: RecoveryConfig,
    seed: u64,
}

impl NetworkConfig {
    /// Starts a configuration for `size` terminals and `radix`×`radix`
    /// switches.
    pub fn new(size: usize, radix: usize) -> Self {
        NetworkConfig {
            size,
            radix,
            topology_kind: TopologyKind::Omega,
            buffer_kind: BufferKind::Damq,
            slots_per_buffer: 4,
            arbiter_policy: ArbiterPolicy::Smart,
            flow_control: FlowControl::Blocking,
            pattern: TrafficPattern::Uniform,
            offered_load: 0.5,
            packet_lengths: PacketLengths::Fixed(DEFAULT_SLOT_BYTES),
            arrivals: ArrivalProcess::Bernoulli,
            recovery: RecoveryConfig::disabled(),
            seed: 0xDA3B,
        }
    }

    /// Selects the recovery protocols (off by default; see
    /// [`RecoveryConfig`]).
    #[must_use]
    pub fn recovery(mut self, recovery: RecoveryConfig) -> Self {
        self.recovery = recovery;
        self
    }

    /// The recovery configuration in use.
    pub fn recovery_config(&self) -> RecoveryConfig {
        self.recovery
    }

    /// Selects the MIN wiring (Omega by default; the paper's network).
    #[must_use]
    pub fn topology_kind(mut self, kind: TopologyKind) -> Self {
        self.topology_kind = kind;
        self
    }

    /// The MIN wiring in use.
    pub fn wiring(&self) -> TopologyKind {
        self.topology_kind
    }

    /// Selects the input-buffer design used by every switch.
    #[must_use]
    pub fn buffer_kind(mut self, kind: BufferKind) -> Self {
        self.buffer_kind = kind;
        self
    }

    /// Sets the storage per input buffer, in slots.
    #[must_use]
    pub fn slots_per_buffer(mut self, slots: usize) -> Self {
        self.slots_per_buffer = slots;
        self
    }

    /// Selects the crossbar arbitration policy.
    #[must_use]
    pub fn arbiter_policy(mut self, policy: ArbiterPolicy) -> Self {
        self.arbiter_policy = policy;
        self
    }

    /// Selects the flow-control protocol.
    #[must_use]
    pub fn flow_control(mut self, flow: FlowControl) -> Self {
        self.flow_control = flow;
        self
    }

    /// Selects the traffic pattern.
    #[must_use]
    pub fn traffic(mut self, pattern: TrafficPattern) -> Self {
        self.pattern = pattern;
        self
    }

    /// Sets the offered load: probability each source generates a packet
    /// each cycle.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= load <= 1.0`.
    #[must_use]
    pub fn offered_load(mut self, load: f64) -> Self {
        assert!((0.0..=1.0).contains(&load), "load must be a probability");
        self.offered_load = load;
        self
    }

    /// Selects the packet-length distribution. Building the simulator
    /// returns [`NetworkError::PacketLengths`] unless every length it can
    /// draw is in `1..=u32::MAX` bytes.
    #[must_use]
    pub fn packet_lengths(mut self, lengths: PacketLengths) -> Self {
        self.packet_lengths = lengths;
        self
    }

    /// Selects the arrival process (Bernoulli by default).
    ///
    /// # Panics
    ///
    /// Panics if an on/off process has `mean_burst < 1` or `duty` outside
    /// `(0, 1]`.
    #[must_use]
    pub fn arrival_process(mut self, arrivals: ArrivalProcess) -> Self {
        if let ArrivalProcess::OnOff { mean_burst, duty } = arrivals {
            assert!(mean_burst >= 1.0, "bursts last at least one cycle");
            assert!(duty > 0.0 && duty <= 1.0, "duty is a fraction of time");
        }
        self.arrivals = arrivals;
        self
    }

    /// The arrival process in use.
    pub fn arrivals(&self) -> ArrivalProcess {
        self.arrivals
    }

    /// Seeds the traffic generator (same seed ⇒ identical run).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of terminals.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Switch radix.
    pub fn radix(&self) -> usize {
        self.radix
    }

    /// Buffer design in use.
    pub fn kind(&self) -> BufferKind {
        self.buffer_kind
    }

    /// Slots per input buffer.
    pub fn slots(&self) -> usize {
        self.slots_per_buffer
    }

    /// Arbitration policy in use.
    pub fn policy(&self) -> ArbiterPolicy {
        self.arbiter_policy
    }

    /// Flow-control protocol in use.
    pub fn flow(&self) -> FlowControl {
        self.flow_control
    }

    /// Traffic pattern in use.
    pub fn pattern(&self) -> TrafficPattern {
        self.pattern
    }

    /// Offered load per source per cycle.
    pub fn load(&self) -> f64 {
        self.offered_load
    }

    /// Packet length distribution in use.
    pub fn lengths(&self) -> PacketLengths {
        self.packet_lengths
    }
}

/// Lifetime packet ledger for the conservation audit.
///
/// [`NetMetrics`] counters are zeroed by [`NetworkSim::warm_up`], so they
/// cannot back a whole-run balance check. This ledger counts from
/// construction and is never reset: at the end of every cycle,
///
/// ```text
/// generated = delivered + discarded + source backlog + in flight
/// ```
///
/// must hold exactly — the network-level analogue of the slot-partition
/// invariant (a packet is always in exactly one place).
#[derive(Debug, Clone, Copy, Default)]
struct ConservationLedger {
    generated: u64,
    delivered: u64,
    discarded: u64,
}

/// Run-time fault machinery: the installed [`FaultPlan`] plus the mutable
/// state its application needs, sized against the topology at install
/// time.
#[derive(Debug)]
struct FaultState {
    plan: FaultPlan,
    /// Index of the first plan event not yet applied.
    next_event: usize,
    /// Per-link outage end cycle (exclusive), indexed
    /// `(stage * per_stage + switch) * radix + input`.
    link_down_until: Vec<u64>,
    /// Payload corruptions waiting to strike, per source terminal.
    corrupt_pending: Vec<u32>,
    /// Transient misroutes waiting to strike, per `(stage, switch)`
    /// flattened stage-major.
    misroute_pending: Vec<u32>,
}

impl FaultState {
    fn new(plan: FaultPlan, stages: usize, per_stage: usize, radix: usize, size: usize) -> Self {
        FaultState {
            plan,
            next_event: 0,
            link_down_until: vec![0; stages * per_stage * radix],
            corrupt_pending: vec![0; size],
            misroute_pending: vec![0; stages * per_stage],
        }
    }

    fn link_index(
        &self,
        per_stage: usize,
        radix: usize,
        stage: usize,
        sw: usize,
        input: usize,
    ) -> usize {
        (stage * per_stage + sw) * radix + input
    }

    /// Whether the link into (`stage`, `sw`, `input`) is out of service at
    /// `cycle`.
    fn link_down(
        &self,
        per_stage: usize,
        radix: usize,
        stage: usize,
        sw: usize,
        input: usize,
        cycle: u64,
    ) -> bool {
        self.link_down_until[self.link_index(per_stage, radix, stage, sw, input)] > cycle
    }

    /// Consumes one pending misroute at (`stage`, `sw`) if any is armed.
    fn take_misroute(&mut self, per_stage: usize, stage: usize, sw: usize) -> bool {
        let idx = stage * per_stage + sw;
        if self.misroute_pending[idx] > 0 {
            self.misroute_pending[idx] -= 1;
            true
        } else {
            false
        }
    }

    /// Consumes one pending corruption for terminal `src` if any is armed.
    fn take_corruption(&mut self, src: usize) -> bool {
        if self.corrupt_pending[src] > 0 {
            self.corrupt_pending[src] -= 1;
            true
        } else {
            false
        }
    }
}

/// Where a parked packet re-enters the network when its retransmit
/// timer fires.
#[derive(Debug, Clone, Copy)]
enum HopKind {
    /// Lost on the source→stage-0 link: re-inject at the entry
    /// (`switch`, `port`) toward `out`.
    Entry { sw: usize, port: usize, out: usize },
    /// Lost on an interior hop: re-deliver into the receiving `stage`'s
    /// (`next_switch`, `next_port`) queue `next_out`.
    Interior {
        stage: usize,
        next_switch: usize,
        next_port: usize,
        next_out: usize,
    },
    /// NACKed at the sink (checksum failure or a misrouted arrival):
    /// resend the clean upstream copy end-to-end to the packet's true
    /// destination terminal.
    Final,
}

/// One packet parked in a hop's retransmit buffer, waiting for its
/// cycle-count timer.
#[derive(Debug, Clone)]
struct RetransmitEntry {
    /// Per-hop sequence number, stamped at park time.
    seq: u64,
    /// Hop slot (see [`RecoveryState::held`]) charged for this entry.
    link: usize,
    /// Cycle at which the next resend attempt fires.
    due: u64,
    /// Failed resend attempts so far.
    attempts: u32,
    /// Whether the current attempt already deferred once for believed
    /// link health (the free wait is capped at one deferral per
    /// attempt, so a permanently dead link still exhausts its retries).
    deferred: bool,
    /// Upstream (stage, switch) of the lossy hop, for telemetry.
    stage: u32,
    switch: u32,
    kind: HopKind,
    packet: Packet,
}

/// Run-time recovery machinery: the bounded per-hop retransmit buffers,
/// per-hop sequence counters, and the believed link-health state that
/// adaptive rerouting consults.
///
/// Arbitration probes only read it; it is mutated by `service_recovery`,
/// the departure merges and `inject`.
#[derive(Debug)]
struct RecoveryState {
    config: RecoveryConfig,
    per_stage: usize,
    radix: usize,
    /// First hop slot of the per-sink namespace (`Final` entries):
    /// `stages * per_stage * radix`.
    sink_base: usize,
    /// Parked packets, serviced in park order each cycle.
    pending: Vec<RetransmitEntry>,
    /// Next sequence number per hop slot.
    next_seq: Vec<u64>,
    /// Parked packets per hop slot — the bounded retransmit buffer.
    held: Vec<u32>,
    /// Cycle (exclusive) until which each link is *believed* down.
    /// Trails ground truth by the detection window; also raised by
    /// every observed loss.
    believed_down_until: Vec<u64>,
    /// Link faults observed but not yet believed:
    /// `(effective_cycle, hop slot, down until)`, in effective-cycle
    /// order (fault events apply in cycle order, window is constant).
    detections: Vec<(u64, usize, u64)>,
}

impl RecoveryState {
    fn new(
        config: RecoveryConfig,
        stages: usize,
        per_stage: usize,
        radix: usize,
        size: usize,
    ) -> Self {
        let sink_base = stages * per_stage * radix;
        RecoveryState {
            config,
            per_stage,
            radix,
            sink_base,
            pending: Vec::new(),
            next_seq: vec![0; sink_base + size],
            held: vec![0; sink_base + size],
            believed_down_until: vec![0; sink_base + size],
            detections: Vec::new(),
        }
    }

    /// Hop slot of the link into (`stage`, `sw`, `input`) — the same
    /// indexing as [`FaultState::link_index`].
    fn link_index(&self, stage: usize, sw: usize, input: usize) -> usize {
        (stage * self.per_stage + sw) * self.radix + input
    }

    /// Hop slot of the final switch→`sink` hop.
    fn sink_slot(&self, sink: usize) -> usize {
        self.sink_base + sink
    }

    /// Whether recovery currently believes the link behind `slot` is
    /// out of service.
    fn believed_down(&self, slot: usize, cycle: u64) -> bool {
        self.believed_down_until[slot] > cycle
    }

    /// Records an observed loss on `slot`: believe the link down for
    /// one detection window (local suspicion; cleared by time).
    fn note_loss(&mut self, slot: usize, cycle: u64) {
        let until = cycle + self.config.detection_window.max(1);
        if self.believed_down_until[slot] < until {
            self.believed_down_until[slot] = until;
        }
    }

    /// Schedules a detected link fault: believed from `effective` until
    /// the fault's own end cycle.
    fn schedule_detection(&mut self, effective: u64, slot: usize, until: u64) {
        self.detections.push((effective, slot, until));
    }

    /// Whether `slot`'s retransmit buffer has room for another park.
    fn can_park(&self, slot: usize) -> bool {
        self.config.retransmit && (self.held[slot] as usize) < self.config.retransmit_slots
    }

    /// Parks `packet` in `slot`'s retransmit buffer, stamping its
    /// sequence number and first resend deadline. The caller must have
    /// checked [`RecoveryState::can_park`].
    fn park(
        &mut self,
        slot: usize,
        cycle: u64,
        stage: u32,
        switch: u32,
        kind: HopKind,
        packet: Packet,
    ) {
        let seq = self.next_seq[slot];
        self.next_seq[slot] += 1;
        self.held[slot] += 1;
        self.pending.push(RetransmitEntry {
            seq,
            link: slot,
            due: cycle + self.config.backoff(0),
            attempts: 0,
            deferred: false,
            stage,
            switch,
            kind,
            packet,
        });
    }
}

/// A departure collected while a stage arbitrates, applied when the
/// stage's departures merge.
///
/// `route` carries the backpressure probe's parked [`HopRoute`] under
/// the blocking protocol (so the merge routes each departure exactly
/// once); it is `None` under discarding flow control, where only the
/// merge routes.
#[derive(Debug)]
struct DepartRecord {
    /// Switch index within the stage.
    sw: usize,
    /// The crossbar output the packet left through.
    output: OutputPort,
    /// The probe's parked route (blocking protocol only).
    route: Option<HopRoute>,
    /// The departing packet.
    packet: Packet,
}

/// Read-only context shared by one stage's transmit probes: everything
/// a switch needs to route a candidate departure and test downstream
/// space. Downstream space is read from `caps`, the snapshot of
/// [`Switch::accept_capacities_into`] taken before the stage
/// arbitrates. The downstream stage is frozen from then until this
/// stage's merge (its own transmit and every merge into it are already
/// done), so one flat-array load answers the probe exactly as the live
/// `can_accept` would.
struct ProbeCtx<'a> {
    stage: usize,
    per_stage: usize,
    radix: usize,
    cycle: u64,
    blocking: bool,
    plan: &'a RoutePlan,
    faults: Option<&'a FaultState>,
    /// `caps[(sw * radix + input) * radix + output]` = largest packet
    /// (slots) downstream switch `sw` accepts on that input/output pair.
    caps: &'a [u16],
    /// Recovery's believed link health, for the adaptive probe (absent
    /// while recovery is off — the probe then behaves exactly as before
    /// recovery existed).
    recovery: Option<&'a RecoveryState>,
}

/// Departure sink for the last pipeline stage: terminals always
/// accept, so flow control never blocks and no route is parked.
struct LastStageSink<'a> {
    sw: usize,
    records: &'a mut Vec<DepartRecord>,
}

impl CycleSink for LastStageSink<'_> {
    fn can_send(&mut self, _output: OutputPort, _front: FrontMeta) -> bool {
        true
    }

    fn depart(&mut self, _input: InputPort, output: OutputPort, packet: Packet) {
        self.records.push(DepartRecord {
            sw: self.sw,
            output,
            route: None,
            packet,
        });
    }
}

/// Departure sink for interior stages. Under the blocking protocol the
/// `can_send` probe routes the candidate, parks the route in the
/// scratch, and tests the downstream link and space; each grant then
/// moves the parked route onto its departure record, so the merge never
/// routes a probed departure a second time.
struct InteriorStageSink<'a, 'b> {
    sw: usize,
    ctx: &'a ProbeCtx<'b>,
    scratch: &'a mut [Option<HopRoute>],
    records: &'a mut Vec<DepartRecord>,
}

impl CycleSink for InteriorStageSink<'_, '_> {
    fn can_send(&mut self, output: OutputPort, front: FrontMeta) -> bool {
        let ctx = self.ctx;
        if !ctx.blocking {
            return true;
        }
        // A grant through `output` always takes the packet probed here
        // most recently (the crossbar skips taken outputs), so the parked
        // route is the granted packet's when `depart` fires.
        let route = ctx
            .plan
            .departure_route(ctx.stage, self.sw, output, front.dest);
        self.scratch[output.index()] = Some(route);
        let slots = front.slots_needed(DEFAULT_SLOT_BYTES);
        let primary_ok = !ctx.faults.is_some_and(|f| {
            f.link_down(
                ctx.per_stage,
                ctx.radix,
                ctx.stage + 1,
                route.next_switch,
                route.next_port.index(),
                ctx.cycle,
            )
        }) && {
            let idx = (route.next_switch * ctx.radix + route.next_port.index()) * ctx.radix
                + route.next_output.index();
            slots <= ctx.caps[idx] as usize
        };
        if primary_ok {
            return true;
        }
        // Adaptive recovery: the departure may still leave through the
        // alternate output (misroute-on-block), so the probe passes if
        // the deflection target looks viable. The merge re-checks both
        // live and charges the misroute budget.
        let Some(recovery) = ctx.recovery.filter(|r| r.config.adaptive) else {
            return false; // hold: link out or downstream space exhausted
        };
        let alt_out = ctx.plan.alternate_output(ctx.stage, self.sw, output);
        let alt = ctx
            .plan
            .departure_route(ctx.stage, self.sw, alt_out, front.dest);
        let alt_slot = (ctx.stage + 1) * ctx.per_stage * ctx.radix
            + alt.next_switch * ctx.radix
            + alt.next_port.index();
        if recovery.believed_down(alt_slot, ctx.cycle)
            || ctx.faults.is_some_and(|f| {
                f.link_down(
                    ctx.per_stage,
                    ctx.radix,
                    ctx.stage + 1,
                    alt.next_switch,
                    alt.next_port.index(),
                    ctx.cycle,
                )
            })
        {
            return false;
        }
        let idx = (alt.next_switch * ctx.radix + alt.next_port.index()) * ctx.radix
            + alt.next_output.index();
        slots <= ctx.caps[idx] as usize
    }

    fn depart(&mut self, _input: InputPort, output: OutputPort, packet: Packet) {
        let route = if self.ctx.blocking {
            self.scratch[output.index()].take()
        } else {
            None
        };
        self.records.push(DepartRecord {
            sw: self.sw,
            output,
            route,
            packet,
        });
    }
}

/// The simulator: a grid of switches, source queues and sinks.
///
/// `NetworkSim` is generic over two axes:
///
/// * the **buffer type** `B` of every switch. The default, [`AnyBuffer`],
///   selects the design at run time from the configuration's
///   [`BufferKind`] through enum dispatch; instantiate with a concrete
///   design (`NetworkSim::<DamqBuffer>::typed(..)`) to monomorphize the
///   whole data path for that design.
/// * the [`TelemetrySink`] `S`. The default [`NullSink`] compiles every
///   instrumentation point away, so [`NetworkSim::new`] behaves exactly
///   as before telemetry existed. Pass a real sink to
///   [`NetworkSim::with_sink`] to stream cycle-stamped lifecycle events
///   (see `docs/OBSERVABILITY.md`).
///
/// Routing is resolved through a [`RoutePlan`] precomputed at
/// construction: the per-packet path performs indexed loads instead of
/// shuffle/digit arithmetic, and each departure is routed exactly once.
#[derive(Debug)]
pub struct NetworkSim<B: SwitchBuffer = AnyBuffer, S: TelemetrySink<Event> = NullSink> {
    config: NetworkConfig,
    topology: Topology,
    plan: RoutePlan,
    /// `switches[stage][index]`.
    switches: Vec<Vec<Switch<B>>>,
    /// Generated-but-not-yet-injected packets, one queue per source. The
    /// full [`Packet`] (including its identity checksum) is materialized
    /// at injection time, so packets the window never injects are never
    /// built. Past saturation these queues grow without bound, so all but
    /// each head are delta-coded at about 4 bytes a packet (see
    /// [`SourceQueue`]).
    source_queues: Vec<SourceQueue>,
    /// On/off state per source (always `true` under Bernoulli arrivals).
    source_on: Vec<bool>,
    /// Reused per-stage backpressure snapshot
    /// (`per_stage x radix x radix`, see [`ProbeCtx::caps`]): refilled
    /// from the downstream stage before each interior stage arbitrates
    /// under the blocking protocol.
    accept_caps: Vec<u16>,
    /// Reused departure buffer: one stage's departures, collected in
    /// switch order while it arbitrates and drained by its merge.
    departs: Vec<DepartRecord>,
    /// Reused per-output parked probe routes (`radix` entries, reset
    /// per switch).
    route_scratch: Vec<Option<HopRoute>>,
    ids: PacketIdSource,
    rng: StdRng,
    cycle: u64,
    metrics: NetMetrics,
    /// Named-metric registry (disabled by default; see
    /// [`NetworkSim::with_metrics`]).
    registry: MetricsRegistry,
    /// Static registry ids, resolved once at construction.
    metric_ids: MetricIds,
    /// Per-switch quiescence map, flat `stage * per_stage + switch`.
    /// Invariant (audited as `quiescence-map`): whenever a stage starts
    /// arbitrating and at end of cycle, `quiescent[i]` ⇔ that switch
    /// holds zero packets. Maintained incrementally: a successful
    /// receive (merge, inject) clears the receiver's bit; each
    /// departure record re-derives the transmitter's bit from
    /// [`Switch::is_quiescent`].
    quiescent: Vec<bool>,
    /// Whether arbitration advances quiescent switches with
    /// [`Switch::note_idle_cycle`] instead of a full arbitration sweep
    /// (on by default; see [`NetworkSim::with_idle_skip`]).
    idle_skip: bool,
    /// Lifetime count of idle-skipped switch-cycles.
    idle_skipped: u64,
    ledger: ConservationLedger,
    faults: Option<FaultState>,
    fault_ledger: FaultLedger,
    /// Fault-ledger values already mirrored into the registry's
    /// `net.fault.*` counters (the per-cycle sync adds the delta).
    reported_faults: FaultLedger,
    /// Recovery machinery, present only while the configuration's
    /// [`RecoveryConfig`] is active.
    recovery: Option<RecoveryState>,
    sink: S,
}

/// Registry ids for the simulator's built-in metrics, resolved once at
/// construction so the hot path never does a name lookup.
///
/// Every name registered here must be listed in the metrics reference
/// table of `docs/OBSERVABILITY.md` (workspace lint 10).
#[derive(Debug)]
struct MetricIds {
    /// Network cycles stepped.
    cycles: CounterId,
    /// Packets generated at the sources.
    generated: CounterId,
    /// Packets injected into stage 0.
    injected: CounterId,
    /// Packets delivered to their destination terminal.
    delivered: CounterId,
    /// Packets discarded at the network entry.
    discarded_entry: CounterId,
    /// Packets discarded inside the network.
    discarded_network: CounterId,
    /// Source-to-sink latency per delivered packet.
    latency: HistogramId,
    /// Injection-to-sink latency per delivered packet.
    network_latency: HistogramId,
    /// Per-buffer occupied slots, sampled every cycle.
    occupancy: HistogramId,
    /// Switch-cycles advanced by the quiescent fast path.
    idle_skipped: CounterId,
    /// Resend attempts made by link-level retransmission.
    retransmits: CounterId,
    /// Parked packets given up after exhausting their retries.
    retry_exhausted: CounterId,
    /// Packets deflected through an alternate output (adaptive
    /// rerouting).
    rerouted: CounterId,
    /// Wrong-sink arrivals recirculated end-to-end instead of dropped.
    recirculated: CounterId,
    /// Fault-ledger mirror: buffer slots killed.
    fault_slots_killed: CounterId,
    /// Fault-ledger mirror: packets lost to link outages.
    fault_link_dropped: CounterId,
    /// Fault-ledger mirror: corrupted packets refused at sinks.
    fault_corrupt_dropped: CounterId,
    /// Fault-ledger mirror: transiently misrouted packets dropped.
    fault_misrouted: CounterId,
    /// Fault-ledger mirror: blocking probes invalidated by a misroute.
    fault_probe_invalidated: CounterId,
}

impl MetricIds {
    fn register(reg: &mut MetricsRegistry) -> Self {
        MetricIds {
            cycles: reg.counter("net.cycles"),
            generated: reg.counter("net.generated"),
            injected: reg.counter("net.injected"),
            delivered: reg.counter("net.delivered"),
            discarded_entry: reg.counter("net.discarded_entry"),
            discarded_network: reg.counter("net.discarded_network"),
            latency: reg.histogram("net.latency_cycles"),
            network_latency: reg.histogram("net.network_latency_cycles"),
            occupancy: reg.histogram("net.occupancy_slots"),
            idle_skipped: reg.counter("net.idle_skipped"),
            retransmits: reg.counter("net.retransmits"),
            retry_exhausted: reg.counter("net.retry_exhausted"),
            rerouted: reg.counter("net.rerouted"),
            recirculated: reg.counter("net.recirculated"),
            fault_slots_killed: reg.counter("net.fault.slots_killed"),
            fault_link_dropped: reg.counter("net.fault.link_dropped"),
            fault_corrupt_dropped: reg.counter("net.fault.corrupt_dropped"),
            fault_misrouted: reg.counter("net.fault.misrouted"),
            fault_probe_invalidated: reg.counter("net.fault.probe_invalidated"),
        }
    }
}

impl NetworkSim {
    /// Builds the network without telemetry, with run-time buffer-design
    /// selection (the [`AnyBuffer`] default).
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError`] if the topology dimensions are invalid,
    /// the buffer configuration is rejected (e.g. SAMQ slots not divisible
    /// by the radix), or the packet lengths can draw 0 bytes or more than
    /// `u32::MAX` bytes.
    pub fn new(config: NetworkConfig) -> Result<Self, NetworkError> {
        Self::with_sink(config, NullSink)
    }

    /// Builds the network with a fault plan installed (see
    /// [`NetworkSim::install_fault_plan`]).
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError`] as [`NetworkSim::new`] does.
    pub fn with_faults(config: NetworkConfig, plan: FaultPlan) -> Result<Self, NetworkError> {
        let mut sim = Self::new(config)?;
        sim.install_fault_plan(plan);
        Ok(sim)
    }
}

impl<S: TelemetrySink<Event>> NetworkSim<AnyBuffer, S> {
    /// Builds the network with a telemetry sink attached.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError`] if the topology dimensions are invalid,
    /// the buffer configuration is rejected (e.g. SAMQ slots not divisible
    /// by the radix), or the packet lengths can draw 0 bytes or more than
    /// `u32::MAX` bytes.
    pub fn with_sink(config: NetworkConfig, sink: S) -> Result<Self, NetworkError> {
        Self::typed_with_sink(config, sink)
    }
}

impl<B: BuildBuffer> NetworkSim<B> {
    /// Builds the network without telemetry, with the buffer type fixed
    /// by the caller (`NetworkSim::<DamqBuffer>::typed(..)`). Concrete
    /// designs ignore the configuration's `buffer_kind`; kind-erased
    /// types ([`AnyBuffer`], `Box<dyn SwitchBuffer>`) honour it.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError`] as [`NetworkSim::new`] does.
    pub fn typed(config: NetworkConfig) -> Result<Self, NetworkError> {
        Self::typed_with_sink(config, NullSink)
    }
}

impl<B: BuildBuffer, S: TelemetrySink<Event>> NetworkSim<B, S> {
    /// Builds the network with both the buffer type and the telemetry
    /// sink chosen by the caller.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError`] as [`NetworkSim::new`] does.
    pub fn typed_with_sink(config: NetworkConfig, sink: S) -> Result<Self, NetworkError> {
        if !config.packet_lengths.is_valid() {
            return Err(NetworkError::PacketLengths(config.packet_lengths));
        }
        let topology = Topology::build(config.topology_kind, config.size, config.radix)?;
        let plan = RoutePlan::new(&topology);
        let switch_config = SwitchConfig::new(config.radix)
            .buffer_kind(config.buffer_kind)
            .slots_per_buffer(config.slots_per_buffer)
            .arbiter_policy(config.arbiter_policy)
            .flow_control(config.flow_control);
        let per_stage = topology.switches_per_stage();
        let stages = topology.stages();
        let mut switches = Vec::with_capacity(stages);
        for _stage in 0..stages {
            let mut row = Vec::with_capacity(per_stage);
            for _ in 0..per_stage {
                row.push(Switch::typed(switch_config)?);
            }
            switches.push(row);
        }
        let mut registry = MetricsRegistry::disabled();
        let metric_ids = MetricIds::register(&mut registry);
        Ok(NetworkSim {
            config,
            topology,
            plan,
            switches,
            source_queues: vec![SourceQueue::default(); config.size],
            source_on: vec![true; config.size],
            accept_caps: vec![0; per_stage * config.radix * config.radix],
            // Room for two switches' grants up front; the buffer grows to
            // a busy stage's worth in the first cycles. Starting empty
            // instead measurably slowed back-to-back builds of small
            // faulted networks (+15-20%): the smaller allocation pattern
            // let glibc trim the heap top after each drop and re-fault it
            // on the next build.
            departs: Vec::with_capacity(2 * config.radix),
            route_scratch: vec![None; config.radix],
            ids: PacketIdSource::new(),
            rng: StdRng::seed_from_u64(config.seed),
            cycle: 0,
            metrics: NetMetrics::new(config.size),
            registry,
            metric_ids,
            // Every switch starts empty, hence quiescent.
            quiescent: vec![true; stages * per_stage],
            idle_skip: true,
            idle_skipped: 0,
            ledger: ConservationLedger::default(),
            faults: None,
            fault_ledger: FaultLedger::default(),
            reported_faults: FaultLedger::default(),
            recovery: config.recovery.active().then(|| {
                RecoveryState::new(
                    config.recovery,
                    stages,
                    per_stage,
                    config.radix,
                    config.size,
                )
            }),
            sink,
        })
    }
}

impl<B: SwitchBuffer, S: TelemetrySink<Event>> NetworkSim<B, S> {
    /// Read access to the telemetry sink.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Mutable access to the telemetry sink (e.g. to pause a
    /// [`MemorySink`](damq_telemetry::MemorySink) during warm-up).
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }

    /// Consumes the simulator, flushing and returning the sink.
    pub fn into_sink(mut self) -> S {
        self.sink.flush();
        self.sink
    }

    /// Emits a [`RunMeta`](EventKind::RunMeta) event describing this run.
    ///
    /// Call once before stepping so trace consumers can tell runs apart;
    /// `note` is free-form (traffic pattern, load, seed).
    pub fn emit_run_meta(&mut self, note: &str) {
        if !self.sink.enabled() {
            return;
        }
        self.sink.record(Event::new(
            self.cycle,
            EventKind::RunMeta {
                design: self.config.buffer_kind.name().to_string(),
                terminals: self.config.size as u32,
                radix: self.config.radix as u32,
                stages: self.topology.stages() as u32,
                slots: self.config.slots_per_buffer as u32,
                note: note.to_string(),
            },
        ));
    }

    /// The experiment configuration.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// The wiring.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The precomputed routing tables (and their query counter).
    pub fn route_plan(&self) -> &RoutePlan {
        &self.plan
    }

    /// The current cycle number.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Measurement counters for the current window.
    pub fn metrics(&self) -> &NetMetrics {
        &self.metrics
    }

    /// Packets waiting in source queues.
    pub fn source_backlog(&self) -> usize {
        self.source_queues.iter().map(SourceQueue::len).sum()
    }

    /// Installs a fault plan, replacing any previous one.
    ///
    /// Events already due are applied at the start of the next
    /// [`step`](NetworkSim::step); sites that fall outside this topology
    /// are skipped (plans are topology-agnostic index schedules). The
    /// same configuration and plan always replay the identical faulted
    /// run.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = Some(FaultState::new(
            plan,
            self.topology.stages(),
            self.topology.switches_per_stage(),
            self.config.radix,
            self.config.size,
        ));
    }

    /// Tally of every fault actually applied so far.
    pub fn fault_ledger(&self) -> FaultLedger {
        self.fault_ledger
    }

    /// Buffer slots lost to fault injection across the whole network.
    pub fn dead_slots(&self) -> usize {
        self.switches
            .iter()
            .flatten()
            .map(|sw| sw.dead_slots())
            .sum()
    }

    /// Applies every plan event due at the current cycle: dead slots and
    /// link outages take effect immediately; corruptions and misroutes arm
    /// and strike on the next matching packet.
    fn apply_due_faults(&mut self) {
        let Some(mut faults) = self.faults.take() else {
            return;
        };
        let per_stage = self.topology.switches_per_stage();
        let radix = self.config.radix;
        let stages = self.topology.stages();
        while let Some(&event) = faults.plan.events().get(faults.next_event) {
            if event.cycle() > self.cycle {
                break;
            }
            faults.next_event += 1;
            match event {
                FaultEvent::DeadSlot {
                    site, queue_hint, ..
                } => {
                    if site.stage >= stages || site.switch >= per_stage || site.input >= radix {
                        continue;
                    }
                    let killed = self.switches[site.stage][site.switch]
                        .kill_buffer_slot(InputPort::new(site.input), OutputPort::new(queue_hint));
                    if killed {
                        self.fault_ledger.slots_killed += 1;
                        if self.sink.enabled() {
                            self.sink.record(Event::new(
                                self.cycle,
                                EventKind::SlotKilled {
                                    stage: site.stage as u32,
                                    switch: site.switch as u32,
                                    input: site.input as u32,
                                },
                            ));
                        }
                    }
                }
                FaultEvent::LinkDown { site, until, .. } => {
                    if site.stage >= stages || site.switch >= per_stage || site.input >= radix {
                        continue;
                    }
                    let idx =
                        faults.link_index(per_stage, radix, site.stage, site.switch, site.input);
                    faults.link_down_until[idx] = faults.link_down_until[idx].max(until);
                    if let Some(rec) = self.recovery.as_mut() {
                        // Recovery learns of the outage one detection
                        // window after it strikes.
                        let window = rec.config.detection_window;
                        rec.schedule_detection(self.cycle + window, idx, until);
                    }
                    if self.sink.enabled() {
                        self.sink.record(Event::new(
                            self.cycle,
                            EventKind::LinkDown {
                                stage: site.stage as u32,
                                switch: site.switch as u32,
                                input: site.input as u32,
                                until,
                            },
                        ));
                    }
                }
                FaultEvent::CorruptPayload { source, .. } if source < self.config.size => {
                    faults.corrupt_pending[source] += 1;
                }
                FaultEvent::Misroute { stage, switch, .. }
                    if stage < stages && switch < per_stage =>
                {
                    faults.misroute_pending[stage * per_stage + switch] += 1;
                }
                // `FaultEvent` is non-exhaustive: fault classes this
                // simulator does not model are skipped, not errors.
                _ => {}
            }
        }
        self.faults = Some(faults);
    }

    /// Packets currently parked in recovery's retransmit buffers
    /// (accounted by the conservation audit).
    pub fn recovery_held(&self) -> usize {
        self.recovery.as_ref().map_or(0, |r| r.pending.len())
    }

    /// Drives the recovery protocols at the start of each cycle
    /// (serial, right after fault application): promotes link-fault
    /// detections whose window elapsed into believed link health, then
    /// services every due retransmit entry — resending, backing off,
    /// or giving up. All deadlines are cycle counts, so the schedule is
    /// seed-stable.
    fn service_recovery(&mut self) {
        let Some(mut rec) = self.recovery.take() else {
            return;
        };
        let cycle = self.cycle;
        // Believe every detection whose window has elapsed (kept in
        // effective-cycle order by construction).
        let mut promoted = 0;
        while let Some(&(effective, slot, until)) = rec.detections.get(promoted) {
            if effective > cycle {
                break;
            }
            if rec.believed_down_until[slot] < until {
                rec.believed_down_until[slot] = until;
            }
            promoted += 1;
        }
        rec.detections.drain(..promoted);
        if rec.pending.is_empty() {
            self.recovery = Some(rec);
            return;
        }
        let per_stage = self.topology.switches_per_stage();
        let radix = self.config.radix;
        let entries = std::mem::take(&mut rec.pending);
        for mut entry in entries {
            if entry.due > cycle {
                rec.pending.push(entry);
                continue;
            }
            if entry.link < rec.sink_base && !entry.deferred && rec.believed_down(entry.link, cycle)
            {
                // The link is still believed out: wait for believed
                // health instead of burning an attempt. The free wait
                // is capped at one maximum-backoff deferral per attempt
                // — when the capped deadline arrives the resend goes
                // out against ground truth regardless, so a permanently
                // dead link still burns through its retries and gives
                // the packet up (bounded memory). The new deadline is
                // itself deterministic.
                entry.deferred = true;
                let cap = cycle + rec.config.backoff(rec.config.max_backoff_exp);
                entry.due = rec.believed_down_until[entry.link].min(cap).max(cycle + 1);
                rec.pending.push(entry);
                continue;
            }
            // One resend attempt.
            entry.deferred = false;
            let attempt = entry.attempts + 1;
            self.registry.add(self.metric_ids.retransmits, 1);
            if self.sink.enabled() {
                self.sink.record(Event::new(
                    cycle,
                    EventKind::Retransmit {
                        packet: entry.packet.id().serial(),
                        stage: entry.stage,
                        switch: entry.switch,
                        attempt,
                        seq: entry.seq,
                    },
                ));
            }
            match entry.kind {
                HopKind::Final => {
                    // Sinks always accept: the clean upstream copy is
                    // resent end-to-end and delivered.
                    entry.packet.repair_payload();
                    let sink = entry.packet.dest();
                    let total = cycle.saturating_sub(entry.packet.birth_cycle());
                    let injected = entry
                        .packet
                        .injected_cycle()
                        .unwrap_or(entry.packet.birth_cycle());
                    let network = cycle.saturating_sub(injected);
                    if self.sink.enabled() {
                        self.sink.record(Event::new(
                            cycle,
                            EventKind::Delivered {
                                packet: entry.packet.id().serial(),
                                sink: sink.index() as u32,
                            },
                        ));
                    }
                    self.metrics.record_delivery_from(
                        entry.packet.source().index(),
                        sink.index(),
                        total,
                        network,
                    );
                    self.registry.add(self.metric_ids.delivered, 1);
                    self.registry.observe(self.metric_ids.latency, total);
                    self.registry
                        .observe(self.metric_ids.network_latency, network);
                    self.ledger.delivered += 1;
                    rec.held[entry.link] -= 1;
                    continue;
                }
                HopKind::Interior {
                    stage,
                    next_switch,
                    next_port,
                    next_out,
                } => {
                    let link_dead = self.faults.as_ref().is_some_and(|f| {
                        f.link_down(per_stage, radix, stage, next_switch, next_port, cycle)
                    });
                    if !link_dead {
                        let slots = entry.packet.slots_needed(DEFAULT_SLOT_BYTES);
                        let port = InputPort::new(next_port);
                        let out = OutputPort::new(next_out);
                        if self.switches[stage][next_switch].can_accept(port, out, slots) {
                            match self.switches[stage][next_switch].receive(port, out, entry.packet)
                            {
                                Ok(()) => {
                                    self.quiescent[stage * per_stage + next_switch] = false;
                                    rec.held[entry.link] -= 1;
                                    continue;
                                }
                                Err(rejected) => {
                                    debug_assert!(false, "can_accept pre-checked the resend");
                                    entry.packet = rejected.into_packet();
                                }
                            }
                        }
                    }
                }
                HopKind::Entry { sw, port, out } => {
                    let link_dead = self
                        .faults
                        .as_ref()
                        .is_some_and(|f| f.link_down(per_stage, radix, 0, sw, port, cycle));
                    if !link_dead {
                        let slots = entry.packet.slots_needed(DEFAULT_SLOT_BYTES);
                        let port = InputPort::new(port);
                        let out = OutputPort::new(out);
                        if self.switches[0][sw].can_accept(port, out, slots) {
                            let serial = entry.packet.id().serial();
                            let src = entry.packet.source().index();
                            match self.switches[0][sw].receive(port, out, entry.packet) {
                                Ok(()) => {
                                    self.quiescent[sw] = false;
                                    if self.sink.enabled() {
                                        self.sink.record(Event::new(
                                            cycle,
                                            EventKind::Injected {
                                                packet: serial,
                                                source: src as u32,
                                            },
                                        ));
                                    }
                                    self.metrics.record_injected();
                                    self.registry.add(self.metric_ids.injected, 1);
                                    rec.held[entry.link] -= 1;
                                    continue;
                                }
                                Err(rejected) => {
                                    debug_assert!(false, "can_accept pre-checked the resend");
                                    entry.packet = rejected.into_packet();
                                }
                            }
                        }
                    }
                }
            }
            // The attempt failed: the copy stays parked.
            entry.attempts = attempt;
            rec.note_loss(entry.link, cycle);
            if attempt >= rec.config.max_retries.max(1) {
                // Retries exhausted: the protocol gives the packet up.
                rec.held[entry.link] -= 1;
                self.registry.add(self.metric_ids.retry_exhausted, 1);
                if self.sink.enabled() {
                    self.sink.record(Event::new(
                        cycle,
                        EventKind::GaveUp {
                            packet: entry.packet.id().serial(),
                            stage: entry.stage,
                            switch: entry.switch,
                            attempts: attempt,
                        },
                    ));
                }
                self.ledger.discarded += 1;
                if matches!(entry.kind, HopKind::Entry { .. }) {
                    self.metrics.record_entry_discard();
                    self.registry.add(self.metric_ids.discarded_entry, 1);
                } else {
                    self.metrics.record_network_discard();
                    self.registry.add(self.metric_ids.discarded_network, 1);
                }
            } else {
                entry.due = cycle + rec.config.backoff(entry.attempts);
                rec.pending.push(entry);
            }
        }
        self.recovery = Some(rec);
    }

    /// Mirrors fault-ledger deltas into the `net.fault.*` registry
    /// counters (serial, once per cycle) so fault state shows up in
    /// `obs_report` snapshots without parsing JSONL traces.
    fn sync_fault_metrics(&mut self) {
        let cur = self.fault_ledger;
        let prev = self.reported_faults;
        self.registry.add(
            self.metric_ids.fault_slots_killed,
            cur.slots_killed - prev.slots_killed,
        );
        self.registry.add(
            self.metric_ids.fault_link_dropped,
            cur.link_dropped - prev.link_dropped,
        );
        self.registry.add(
            self.metric_ids.fault_corrupt_dropped,
            cur.corrupt_dropped - prev.corrupt_dropped,
        );
        self.registry.add(
            self.metric_ids.fault_misrouted,
            cur.misrouted - prev.misrouted,
        );
        self.registry.add(
            self.metric_ids.fault_probe_invalidated,
            cur.probe_invalidated - prev.probe_invalidated,
        );
        self.reported_faults = cur;
    }

    /// Aggregated buffer operation counters over every switch in the
    /// network (used by the dispatch-equivalence tests to compare
    /// simulation paths operation-for-operation).
    pub fn aggregate_buffer_stats(&self) -> damq_core::BufferStats {
        let mut total = damq_core::BufferStats::new();
        for row in &self.switches {
            for sw in row {
                total.merge(&sw.aggregate_stats());
            }
        }
        total
    }

    /// Packets resident in switch buffers.
    pub fn packets_in_flight(&self) -> usize {
        self.switches
            .iter()
            .flatten()
            .map(|sw| sw.packets_resident())
            .sum()
    }

    /// Buffer-occupancy fraction of each switch in `stage` (a snapshot;
    /// used to visualise tree saturation spreading stage by stage).
    ///
    /// # Panics
    ///
    /// Panics if `stage` is out of range.
    pub fn stage_occupancy(&self, stage: usize) -> Vec<f64> {
        self.switches[stage]
            .iter()
            .map(|sw| sw.occupancy_fraction())
            .collect()
    }

    /// Mean buffer-occupancy fraction per stage, input side first.
    pub fn occupancy_by_stage(&self) -> Vec<f64> {
        self.switches
            .iter()
            .map(|row| row.iter().map(|sw| sw.occupancy_fraction()).sum::<f64>() / row.len() as f64)
            .collect()
    }

    /// Enables the named-metric registry: cycle-domain counters and
    /// log-scale latency/occupancy histograms, readable as a
    /// deterministic JSON snapshot via
    /// [`metrics_snapshot`](NetworkSim::metrics_snapshot).
    ///
    /// Off by default; while off, every registry update is a single
    /// branch on a cold flag (pinned by the `no_op_registry_overhead`
    /// bench).
    #[must_use]
    pub fn with_metrics(mut self) -> Self {
        self.registry.set_enabled(true);
        self
    }

    /// Turns the quiescent-switch fast path on or off (on by default).
    ///
    /// With it on, arbitration advances a switch whose quiescence bit is set
    /// with [`Switch::note_idle_cycle`] — one counter tick instead of an
    /// arbitration sweep over its buffers. The fast path is byte-identical
    /// to arbitrating an empty switch (pinned per switch by
    /// `idle_cycle_is_byte_identical_to_empty_transmit_cycle` and
    /// end-to-end by `idle_skip_correctness`), so the toggle exists only
    /// to measure the speedup and to cross-check equivalence.
    #[must_use]
    pub fn with_idle_skip(mut self, enabled: bool) -> Self {
        self.idle_skip = enabled;
        self
    }

    /// Lifetime count of switch-cycles advanced by the quiescent fast
    /// path (also exported as the `net.idle_skipped` registry counter).
    pub fn idle_skipped_total(&self) -> u64 {
        self.idle_skipped
    }

    /// The named-metric registry (disabled unless
    /// [`with_metrics`](NetworkSim::with_metrics) was called).
    pub fn metrics_registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The registry snapshot as deterministic JSON — counters and
    /// histogram percentiles in registration order, integers only.
    pub fn metrics_snapshot(&self) -> String {
        self.registry.snapshot_json()
    }

    /// Simulates one network cycle (12 clock cycles).
    ///
    /// With the `strict-audit` feature on, every cycle ends with a full
    /// audit: buffer structure in every switch plus the packet-conservation
    /// balance.
    ///
    /// # Determinism
    ///
    /// One cycle is: generate, advance stages last-to-first (each stage
    /// arbitrates every switch, then merges the departures in switch
    /// order), inject. The same configuration and seed replay the
    /// identical cycle.
    ///
    /// # Panics
    ///
    /// Panics under `strict-audit` if the audit fails.
    pub fn step(&mut self) {
        self.cycle += 1;
        self.metrics.record_cycle();
        self.registry.add(self.metric_ids.cycles, 1);
        if self.faults.is_some() {
            self.apply_due_faults();
        }
        if self.recovery.is_some() {
            self.service_recovery();
        }
        self.generate();
        let forwarded = self.advance_stages();
        self.inject();
        self.sync_fault_metrics();
        if self.registry.enabled() {
            self.observe_occupancy();
        }
        if self.sink.enabled() {
            self.emit_cycle_sample(forwarded);
        }
        #[cfg(feature = "strict-audit")]
        if let Err(e) = self.audit() {
            // lint: allow — strict-audit must stop at the offending cycle.
            panic!("strict-audit at cycle {}: {e}", self.cycle);
        }
    }

    /// Simulates `cycles` network cycles.
    pub fn run(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.step();
        }
    }

    /// Runs `cycles` cycles and then zeroes the metrics: the standard
    /// warm-up before a measurement window.
    pub fn warm_up(&mut self, cycles: u64) {
        self.run(cycles);
        self.metrics.reset();
    }

    fn generate(&mut self) {
        let size = self.config.size;
        for src in 0..size {
            let generate_probability = match self.config.arrivals {
                ArrivalProcess::Bernoulli => self.config.offered_load,
                ArrivalProcess::OnOff { duty, .. } if duty >= 1.0 => {
                    // Always-on degenerates to Bernoulli.
                    self.config.offered_load
                }
                ArrivalProcess::OnOff { mean_burst, duty } => {
                    // Two-state modulation: leave ON w.p. 1/mean_burst,
                    // enter ON at the rate that makes the stationary ON
                    // fraction equal the duty cycle.
                    let exit_on = 1.0 / mean_burst;
                    let enter_on = (duty * exit_on / (1.0 - duty)).min(1.0);
                    let flip = if self.source_on[src] {
                        exit_on
                    } else {
                        enter_on
                    };
                    if self.rng.random_bool(flip) {
                        self.source_on[src] = !self.source_on[src];
                    }
                    if self.source_on[src] {
                        (self.config.offered_load / duty).min(1.0)
                    } else {
                        0.0
                    }
                }
            };
            if generate_probability <= 0.0 || !self.rng.random_bool(generate_probability) {
                continue;
            }
            let source = NodeId::new(src);
            let dest = self.config.pattern.sample(&mut self.rng, source, size);
            let length = self.config.packet_lengths.sample(&mut self.rng);
            let pending = PendingPacket {
                serial: self.ids.next_id().serial(),
                birth_cycle: self.cycle,
                dest: dest.index() as u32,
                // Build-time validation keeps every length within u32.
                length_bytes: length as u32,
                corrupt: self
                    .faults
                    .as_mut()
                    .is_some_and(|faults| faults.take_corruption(src)),
            };
            if self.sink.enabled() {
                self.sink.record(Event::new(
                    self.cycle,
                    EventKind::Generated {
                        packet: pending.serial,
                        source: src as u32,
                        dest: pending.dest,
                    },
                ));
            }
            self.source_queues[src].push_back(pending);
            self.metrics.record_generated();
            self.registry.add(self.metric_ids.generated, 1);
            self.ledger.generated += 1;
        }
    }

    /// Returns per-stage forwarded-packet counts for the cycle sample
    /// (empty, allocation-free, while the sink is disabled).
    ///
    /// Each stage is stepped collect-then-merge. First every switch
    /// arbitrates, in switch order, and each departure (with the
    /// backpressure probe's parked route) is collected into
    /// `self.departs`. Then the departures merge in the order collected:
    /// misroute faults, routing fallback, telemetry, downstream
    /// receives, metrics. Probes therefore see the downstream stage as
    /// it stood before any of this stage's departures landed (see
    /// `docs/ARCHITECTURE.md`).
    fn advance_stages(&mut self) -> Vec<u32> {
        let stages = self.topology.stages();
        let per_stage = self.topology.switches_per_stage();
        let blocking = self.config.flow_control.requires_backpressure();
        let tracing = self.sink.enabled();
        let mut forwarded = if tracing {
            vec![0u32; stages]
        } else {
            Vec::new()
        };

        // Fault state leaves `self` for the stage loops so the probes
        // can read it while the switch grid is mutably borrowed;
        // recovery state leaves for the same reason (probes read its
        // believed link health, merges park and deflect through it).
        let mut faults = self.faults.take();
        let mut recovery = self.recovery.take();
        let radix = self.config.radix;
        let cycle = self.cycle;

        // Last stage delivers straight to the (always-ready) sinks.
        // Every switch arbitrates; no probing needed. Quiescent switches
        // take the idle fast path — one counter tick instead of a buffer
        // sweep.
        let last = stages - 1;
        let mut skipped = 0;
        for (sw, switch) in self.switches[last].iter_mut().enumerate() {
            let quiescent = self.quiescent[last * per_stage + sw];
            debug_assert_eq!(quiescent, switch.is_quiescent(), "stale quiescence bit");
            if self.idle_skip && quiescent {
                switch.note_idle_cycle();
                skipped += 1;
                continue;
            }
            switch.transmit_cycle_with(&mut LastStageSink {
                sw,
                records: &mut self.departs,
            });
        }
        self.idle_skipped += skipped;
        self.registry.add(self.metric_ids.idle_skipped, skipped);
        // Deliver in ascending switch order.
        for rec in self.departs.drain(..) {
            let sw = rec.sw;
            // The record proves `sw` transmitted: re-derive its
            // quiescence bit from the post-arbitration residency
            // (idempotent; receives into this stage happen later, in
            // the previous stage's merge, and clear it again).
            self.quiescent[last * per_stage + sw] = self.switches[last][sw].is_quiescent();
            let misrouted_here = faults
                .as_mut()
                .is_some_and(|f| f.take_misroute(per_stage, last, sw));
            let out = if misrouted_here {
                OutputPort::new((rec.output.index() + 1) % radix)
            } else {
                rec.output
            };
            let sink = self.plan.sink_of(sw, out);
            let serial = rec.packet.id().serial();
            if tracing {
                forwarded[last] += 1;
                self.sink.record(Event::new(
                    self.cycle,
                    EventKind::Forwarded {
                        packet: serial,
                        stage: last as u32,
                        switch: sw as u32,
                        output: out.index() as u32,
                    },
                ));
            }
            if sink != rec.packet.dest() {
                // A transient misroute (here or upstream) or a deliberate
                // deflection carried the packet to the wrong terminal.
                debug_assert!(
                    faults.is_some() || rec.packet.deflections() > 0,
                    "misrouted packet without faults"
                );
                // With retransmission on, the wrong sink NACKs and the
                // packet recirculates from the hop buffer: it parks at
                // the terminal slot of its *true* destination and is
                // re-delivered by the retransmit timer.
                if let Some(recv) = recovery.as_mut() {
                    let slot = recv.sink_slot(rec.packet.dest().index());
                    if recv.can_park(slot) {
                        self.registry.add(self.metric_ids.recirculated, 1);
                        if tracing {
                            self.sink.record(Event::new(
                                self.cycle,
                                EventKind::Recirculated {
                                    packet: serial,
                                    sink: sink.index() as u32,
                                },
                            ));
                        }
                        recv.park(
                            slot,
                            cycle,
                            last as u32,
                            sw as u32,
                            HopKind::Final,
                            rec.packet,
                        );
                        continue;
                    }
                }
                if tracing {
                    self.sink.record(Event::new(
                        self.cycle,
                        EventKind::Misrouted {
                            packet: serial,
                            sink: sink.index() as u32,
                        },
                    ));
                }
                self.metrics.record_network_discard();
                self.registry.add(self.metric_ids.discarded_network, 1);
                self.ledger.discarded += 1;
                self.fault_ledger.misrouted += 1;
                continue;
            }
            if !rec.packet.verify_checksum() {
                // Payload damaged in flight: the sink refuses delivery.
                // With retransmission on the refusal is a NACK — the
                // packet parks at the terminal hop and the timer resends
                // a repaired copy (no discard is charged unless every
                // retry is exhausted).
                if let Some(recv) = recovery.as_mut() {
                    let slot = recv.sink_slot(rec.packet.dest().index());
                    if recv.can_park(slot) {
                        recv.park(
                            slot,
                            cycle,
                            last as u32,
                            sw as u32,
                            HopKind::Final,
                            rec.packet,
                        );
                        continue;
                    }
                }
                if tracing {
                    self.sink.record(Event::new(
                        self.cycle,
                        EventKind::CorruptDropped {
                            packet: serial,
                            sink: sink.index() as u32,
                        },
                    ));
                }
                self.metrics.record_network_discard();
                self.registry.add(self.metric_ids.discarded_network, 1);
                self.ledger.discarded += 1;
                self.fault_ledger.corrupt_dropped += 1;
                continue;
            }
            let total = self.cycle.saturating_sub(rec.packet.birth_cycle());
            let injected = rec
                .packet
                .injected_cycle()
                .unwrap_or(rec.packet.birth_cycle());
            let network = self.cycle.saturating_sub(injected);
            if tracing {
                self.sink.record(Event::new(
                    self.cycle,
                    EventKind::Delivered {
                        packet: serial,
                        sink: sink.index() as u32,
                    },
                ));
            }
            self.metrics.record_delivery_from(
                rec.packet.source().index(),
                sink.index(),
                total,
                network,
            );
            self.registry.add(self.metric_ids.delivered, 1);
            self.registry.observe(self.metric_ids.latency, total);
            self.registry
                .observe(self.metric_ids.network_latency, network);
            self.ledger.delivered += 1;
        }

        // Earlier stages, last to first, feed their successor stage.
        for stage in (0..last).rev() {
            let (current_stages, later_stages) = self.switches.split_at_mut(stage + 1);
            let current = &mut current_stages[stage];
            let downstream = &mut later_stages[0];
            // Snapshot the downstream stage's admission capacities into
            // the flat reused matrix. The downstream stage is frozen while
            // this stage arbitrates (its transmit and every merge into it
            // already ran), so the snapshot answers every probe exactly
            // as the live `can_accept` would — and probes read a 256-byte
            // array instead of chasing through foreign switch state.
            if blocking {
                let link = radix * radix;
                for (sw, caps) in self.accept_caps.chunks_exact_mut(link).enumerate() {
                    downstream[sw].accept_capacities_into(caps);
                }
            }
            // Every switch arbitrates. Blocking probes route, check the
            // downstream link and read downstream space; each departure
            // leaves with the probe's parked route.
            let ctx = ProbeCtx {
                stage,
                per_stage,
                radix,
                cycle,
                blocking,
                plan: &self.plan,
                faults: faults.as_ref(),
                recovery: recovery.as_ref(),
                caps: &self.accept_caps,
            };
            let mut skipped = 0;
            for (sw, switch) in current.iter_mut().enumerate() {
                let quiescent = self.quiescent[stage * per_stage + sw];
                debug_assert_eq!(quiescent, switch.is_quiescent(), "stale quiescence bit");
                if self.idle_skip && quiescent {
                    switch.note_idle_cycle();
                    skipped += 1;
                    continue;
                }
                self.route_scratch.fill(None);
                switch.transmit_cycle_with(&mut InteriorStageSink {
                    sw,
                    ctx: &ctx,
                    scratch: &mut self.route_scratch,
                    records: &mut self.departs,
                });
            }
            self.idle_skipped += skipped;
            self.registry.add(self.metric_ids.idle_skipped, skipped);
            // Merge departures in ascending switch order. Misroutes
            // applied so far in *this stage's* merge — the only mechanism
            // that can invalidate a probe (see the invariant at the
            // receive below).
            let mut stage_misroutes = 0u64;
            // Deflections applied so far in this stage's merge: like a
            // misroute, a deflection lands on an input its probe never
            // reserved and can therefore invalidate a later in-order
            // blocking departure in the same merge.
            let mut stage_deflections = 0u64;
            for rec in self.departs.drain(..) {
                let sw = rec.sw;
                // The record proves `sw` transmitted: re-derive its
                // quiescence bit from the post-arbitration residency.
                self.quiescent[stage * per_stage + sw] = current[sw].is_quiescent();
                // Blocking probes parked the route on the record; the
                // discarding path routes here — either way exactly one
                // query per departure (misroutes pay one extra for the
                // flip).
                let misrouted_here = faults
                    .as_mut()
                    .is_some_and(|f| f.take_misroute(per_stage, stage, sw));
                stage_misroutes += u64::from(misrouted_here);
                let (out, route) = if misrouted_here {
                    let wrong = OutputPort::new((rec.output.index() + 1) % radix);
                    (
                        wrong,
                        self.plan
                            .departure_route(stage, sw, wrong, rec.packet.dest()),
                    )
                } else {
                    let route = rec.route.unwrap_or_else(|| {
                        self.plan
                            .departure_route(stage, sw, rec.output, rec.packet.dest())
                    });
                    (rec.output, route)
                };
                let HopRoute {
                    next_switch,
                    next_port,
                    next_output: next_out,
                } = route;
                if tracing {
                    forwarded[stage] += 1;
                    self.sink.record(Event::new(
                        self.cycle,
                        EventKind::Forwarded {
                            packet: rec.packet.id().serial(),
                            stage: stage as u32,
                            switch: sw as u32,
                            output: out.index() as u32,
                        },
                    ));
                }
                let serial = rec.packet.id().serial();
                let link_dead = faults.as_ref().is_some_and(|f| {
                    f.link_down(
                        per_stage,
                        radix,
                        stage + 1,
                        next_switch,
                        next_port.index(),
                        cycle,
                    )
                });
                // `loss` carries the packet through the recovery ladder
                // below whenever the primary hop fails (dead wire or a
                // bounced receive); `None` means it was delivered.
                let mut loss: Option<Packet> = None;
                if link_dead {
                    // The packet would fly into the outage and be lost;
                    // the ladder below may still save it.
                    loss = Some(rec.packet);
                } else {
                    match downstream[next_switch].receive(next_port, next_out, rec.packet) {
                        Ok(()) => {
                            // The receiver now holds a packet: it cannot
                            // idle-skip until it drains again.
                            self.quiescent[(stage + 1) * per_stage + next_switch] = false;
                        }
                        Err(rejected) => {
                            // Every rejection reason in the delivery path
                            // is handled explicitly (workspace lint 12):
                            // capacity and fault bounces are recoverable
                            // losses, structural rejects are programming
                            // errors in the route plan.
                            match rejected.reason {
                                RejectReason::BufferFull
                                | RejectReason::QueueFull
                                | RejectReason::Faulted => {}
                                RejectReason::PacketTooLarge | RejectReason::NoSuchOutput => {
                                    debug_assert!(
                                        false,
                                        "structural reject in the delivery path: {}",
                                        rejected.reason
                                    );
                                }
                                _ => {
                                    debug_assert!(
                                        false,
                                        "unknown reject reason in the delivery path: {}",
                                        rejected.reason
                                    );
                                }
                            }
                            // Invariant: a probed blocking departure can only
                            // bounce after a misroute or a deflection in this
                            // same stage's merge. The banyan wiring maps each
                            // upstream (switch, output) to a *unique*
                            // downstream (switch, input), and the crossbar
                            // grants at most one departure per output per
                            // cycle, so every in-order departure in this
                            // merge owns a private downstream input whose
                            // space its probe reserved. Earlier in-order
                            // receives therefore cannot consume it; only a
                            // misroute or deflection — which flips a packet
                            // onto an output it never probed, landing on an
                            // input port that belongs to another departure —
                            // can. (Retransmit resends run before this
                            // stage's capacity snapshot, so they cannot
                            // invalidate a probe.) With adaptive recovery
                            // the bounce is additionally expected whenever
                            // the probe admitted the departure on the
                            // *alternate* route's space — the primary was
                            // already known to be blocked and the ladder
                            // below deflects — so the invariant only has
                            // teeth without deflection in play.
                            let adaptive_on = recovery.as_ref().is_some_and(|r| r.config.adaptive);
                            assert!(
                                !blocking
                                    || adaptive_on
                                    || stage_misroutes > 0
                                    || stage_deflections > 0,
                                "blocking probe invalidated with no misroute or \
                                 deflection in this stage's merge (stage {stage}, \
                                 switch {sw})"
                            );
                            loss = Some(rejected.into_packet());
                        }
                    }
                }
                if loss.is_some() {
                    if let Some(recv) = recovery.as_mut() {
                        // Rung 1 — deflect: misroute on purpose through
                        // the alternate output and let the wrong sink
                        // recirculate it (unique-path banyans have no
                        // second path to the right sink mid-network).
                        let budget_left = recv.config.adaptive
                            && loss
                                .as_ref()
                                .is_some_and(|p| p.deflections() < recv.config.misroute_budget);
                        if budget_left {
                            let alt_out = self.plan.alternate_output(stage, sw, out);
                            let alt = self.plan.departure_route(
                                stage,
                                sw,
                                alt_out,
                                // lint: allow — loss was just set Some on both paths above
                                loss.as_ref().expect("checked above").dest(),
                            );
                            let alt_dead = faults.as_ref().is_some_and(|f| {
                                f.link_down(
                                    per_stage,
                                    radix,
                                    stage + 1,
                                    alt.next_switch,
                                    alt.next_port.index(),
                                    cycle,
                                )
                            });
                            let alt_slot =
                                recv.link_index(stage + 1, alt.next_switch, alt.next_port.index());
                            let slots = loss
                                .as_ref()
                                // lint: allow — loss was just set Some on both paths above
                                .expect("checked above")
                                .slots_needed(DEFAULT_SLOT_BYTES);
                            if !alt_dead
                                && !recv.believed_down(alt_slot, cycle)
                                && downstream[alt.next_switch].can_accept(
                                    alt.next_port,
                                    alt.next_output,
                                    slots,
                                )
                            {
                                // lint: allow — loss was just set Some on both paths above
                                let mut packet = loss.take().expect("checked above");
                                packet.note_deflection();
                                match downstream[alt.next_switch].receive(
                                    alt.next_port,
                                    alt.next_output,
                                    packet,
                                ) {
                                    Ok(()) => {
                                        self.quiescent[(stage + 1) * per_stage + alt.next_switch] =
                                            false;
                                        stage_deflections += 1;
                                        self.registry.add(self.metric_ids.rerouted, 1);
                                        if tracing {
                                            self.sink.record(Event::new(
                                                self.cycle,
                                                EventKind::Rerouted {
                                                    packet: serial,
                                                    stage: stage as u32,
                                                    switch: sw as u32,
                                                    output: alt_out.index() as u32,
                                                },
                                            ));
                                        }
                                    }
                                    Err(rejected) => {
                                        debug_assert!(false, "deflection bounced after can_accept");
                                        loss = Some(rejected.into_packet());
                                    }
                                }
                            }
                        }
                        // Rung 2 — park: hold the packet in the hop's
                        // bounded retransmit buffer; the timer resends
                        // it once the link is believed healthy again.
                        if loss.is_some() {
                            let slot = recv.link_index(stage + 1, next_switch, next_port.index());
                            if recv.can_park(slot) {
                                if link_dead {
                                    recv.note_loss(slot, cycle);
                                }
                                recv.park(
                                    slot,
                                    cycle,
                                    stage as u32,
                                    sw as u32,
                                    HopKind::Interior {
                                        stage: stage + 1,
                                        next_switch,
                                        next_port: next_port.index(),
                                        next_out: next_out.index(),
                                    },
                                    // lint: allow — can_park was checked in the rung-2 guard
                                    loss.take().expect("checked above"),
                                );
                            }
                        }
                    }
                }
                // Rung 3 — drop: the plain fault model (recovery off,
                // out of deflection budget, or the hop buffer is full).
                if loss.take().is_some() {
                    if tracing {
                        self.sink.record(Event::new(
                            self.cycle,
                            EventKind::NetworkDiscarded {
                                packet: serial,
                                stage: stage as u32,
                                switch: sw as u32,
                            },
                        ));
                    }
                    self.metrics.record_network_discard();
                    self.registry.add(self.metric_ids.discarded_network, 1);
                    self.ledger.discarded += 1;
                    if link_dead {
                        self.fault_ledger.link_dropped += 1;
                    } else if misrouted_here {
                        self.fault_ledger.misrouted += 1;
                    } else if blocking {
                        // An in-order departure whose probe a misroute or
                        // deflection invalidated (the invariant above).
                        self.fault_ledger.probe_invalidated += 1;
                    }
                }
            }
        }
        self.faults = faults;
        self.recovery = recovery;
        forwarded
    }

    fn inject(&mut self) {
        let blocking = self.config.flow_control.requires_backpressure();
        let per_stage = self.topology.switches_per_stage();
        let radix = self.config.radix;
        for src in 0..self.config.size {
            let Some(&front) = self.source_queues[src].front() else {
                continue;
            };
            let (sw, port) = self.plan.entry(NodeId::new(src));
            let link_dead = self
                .faults
                .as_ref()
                .is_some_and(|f| f.link_down(per_stage, radix, 0, sw, port.index(), self.cycle));
            if blocking && link_dead {
                continue; // hold at the source until the link recovers
            }
            let out = self.plan.route_output(0, NodeId::new(front.dest as usize));
            let slots = (front.length_bytes as usize)
                .div_ceil(DEFAULT_SLOT_BYTES)
                .max(1);
            if blocking && !self.switches[0][sw].can_accept(port, out, slots) {
                continue; // hold the packet; try again next cycle
            }
            self.source_queues[src].pop_front();
            let serial = front.serial;
            if link_dead {
                // With retransmission on, the edge hop buffers the launch
                // instead of losing it: park at the entry link's slot and
                // resend once the link is believed healthy again.
                let parked = self.recovery.as_mut().is_some_and(|recv| {
                    let slot = recv.link_index(0, sw, port.index());
                    recv.can_park(slot) && {
                        recv.note_loss(slot, self.cycle);
                        true
                    }
                });
                if parked {
                    let mut packet = front.materialize(src);
                    packet.mark_injected(self.cycle);
                    // lint: allow — parked is only true when recovery is Some
                    let recv = self.recovery.as_mut().expect("checked above");
                    let slot = recv.link_index(0, sw, port.index());
                    recv.park(
                        slot,
                        self.cycle,
                        0,
                        sw as u32,
                        HopKind::Entry {
                            sw,
                            port: port.index(),
                            out: out.index(),
                        },
                        packet,
                    );
                    continue;
                }
                // Discarding protocol: the packet is launched into the
                // outage and lost at the network's edge (never built —
                // only its serial reaches the telemetry).
                if self.sink.enabled() {
                    self.sink.record(Event::new(
                        self.cycle,
                        EventKind::EntryDiscarded {
                            packet: serial,
                            source: src as u32,
                        },
                    ));
                }
                self.metrics.record_entry_discard();
                self.registry.add(self.metric_ids.discarded_entry, 1);
                self.ledger.discarded += 1;
                self.fault_ledger.link_dropped += 1;
                continue;
            }
            let mut packet = front.materialize(src);
            packet.mark_injected(self.cycle);
            match self.switches[0][sw].receive(port, out, packet) {
                Ok(()) => {
                    // Entry switch `sw` of stage 0 now holds a packet.
                    self.quiescent[sw] = false;
                    if self.sink.enabled() {
                        self.sink.record(Event::new(
                            self.cycle,
                            EventKind::Injected {
                                packet: serial,
                                source: src as u32,
                            },
                        ));
                    }
                    self.metrics.record_injected();
                    self.registry.add(self.metric_ids.injected, 1);
                }
                Err(_rejected) => {
                    debug_assert!(!blocking, "blocking inject was pre-checked");
                    if self.sink.enabled() {
                        self.sink.record(Event::new(
                            self.cycle,
                            EventKind::EntryDiscarded {
                                packet: serial,
                                source: src as u32,
                            },
                        ));
                    }
                    self.metrics.record_entry_discard();
                    self.registry.add(self.metric_ids.discarded_entry, 1);
                    self.ledger.discarded += 1;
                }
            }
        }
    }

    /// Samples every input buffer's occupied slots into the
    /// `net.occupancy_slots` histogram. Only called while the registry
    /// is enabled (one scan per cycle, serial, after injection).
    fn observe_occupancy(&mut self) {
        for row in &self.switches {
            for switch in row {
                for port in 0..switch.ports() {
                    let used = switch.buffer(InputPort::new(port)).used_slots();
                    self.registry
                        .observe(self.metric_ids.occupancy, used as u64);
                }
            }
        }
    }

    /// Emits end-of-cycle aggregate events: one
    /// [`HolBlocked`](EventKind::HolBlocked) per switch that blocked this
    /// cycle, then one [`CycleSample`](EventKind::CycleSample). Only
    /// called while the sink is enabled.
    fn emit_cycle_sample(&mut self, forwarded: Vec<u32>) {
        let stages = self.topology.stages();
        let mut occupied = vec![0u32; stages];
        let mut buffer_occupancy = vec![0u32; self.config.slots_per_buffer + 1];
        let mut hol_total = 0u32;
        for (stage, row) in self.switches.iter().enumerate() {
            for (sw, switch) in row.iter().enumerate() {
                occupied[stage] += switch.occupied_slots() as u32;
                for port in 0..switch.ports() {
                    let used = switch.buffer(damq_core::InputPort::new(port)).used_slots();
                    buffer_occupancy[used.min(self.config.slots_per_buffer)] += 1;
                }
                let blocked = switch.hol_blocked_last_cycle() as u32;
                if blocked > 0 {
                    hol_total += blocked;
                    self.sink.record(Event::new(
                        self.cycle,
                        EventKind::HolBlocked {
                            stage: stage as u32,
                            switch: sw as u32,
                            blocked,
                        },
                    ));
                }
            }
        }
        let forwarded = if forwarded.is_empty() {
            vec![0u32; stages]
        } else {
            forwarded
        };
        self.sink.record(Event::new(
            self.cycle,
            EventKind::CycleSample {
                occupied,
                forwarded,
                buffer_occupancy,
                backlog: self.source_backlog() as u32,
                hol_blocked: hol_total,
            },
        ));
    }

    /// Verifies end-of-cycle packet conservation against the lifetime
    /// ledger (which, unlike [`NetworkSim::metrics`], survives
    /// [`NetworkSim::warm_up`]): every packet ever generated is delivered,
    /// discarded, waiting at a source, resident in a buffer, or held in
    /// a hop's retransmit buffer — exactly one of the five.
    ///
    /// # Errors
    ///
    /// Returns an [`AuditError`] naming the imbalance.
    pub fn audit_conservation(&self) -> Result<(), AuditError> {
        let accounted = self.ledger.delivered
            + self.ledger.discarded
            + self.source_backlog() as u64
            + self.packets_in_flight() as u64
            + self.recovery_held() as u64;
        if self.ledger.generated != accounted {
            return Err(AuditError::new(
                "packet-conservation",
                format!(
                    "generated {} but delivered {} + discarded {} + backlog {} + in-flight {} + retransmit-held {} = {accounted}",
                    self.ledger.generated,
                    self.ledger.delivered,
                    self.ledger.discarded,
                    self.source_backlog(),
                    self.packets_in_flight(),
                    self.recovery_held(),
                ),
            ));
        }
        Ok(())
    }

    /// Verifies the fault ledger against observable state: the drops the
    /// ledger declares never exceed the total discards of the base
    /// conservation ledger (faults lose packets only in admitted ways),
    /// and every slot kill is visible as a dead slot in some buffer.
    ///
    /// # Errors
    ///
    /// Returns an [`AuditError`] naming the mismatch.
    pub fn audit_fault_ledger(&self) -> Result<(), AuditError> {
        if self.fault_ledger.dropped() > self.ledger.discarded {
            return Err(AuditError::new(
                "fault-ledger",
                format!(
                    "fault ledger admits to {} drops but only {} packets were discarded",
                    self.fault_ledger.dropped(),
                    self.ledger.discarded,
                ),
            ));
        }
        let dead = self.dead_slots() as u64;
        if self.fault_ledger.slots_killed != dead {
            return Err(AuditError::new(
                "fault-ledger",
                format!(
                    "ledger counts {} slot kills but the buffers report {dead} dead slots",
                    self.fault_ledger.slots_killed,
                ),
            ));
        }
        Ok(())
    }

    /// Verifies the idle-skip quiescence map against ground truth: at end
    /// of cycle every bit must equal its switch's actual emptiness — a
    /// stale set bit would let the fast path freeze resident packets, a
    /// stale clear bit only costs speed, but both break the documented
    /// invariant.
    ///
    /// # Errors
    ///
    /// Returns an [`AuditError`] naming the stale bit.
    pub fn audit_quiescence(&self) -> Result<(), AuditError> {
        let per_stage = self.topology.switches_per_stage();
        for (stage, row) in self.switches.iter().enumerate() {
            for (sw, switch) in row.iter().enumerate() {
                let bit = self.quiescent[stage * per_stage + sw];
                if bit != switch.is_quiescent() {
                    return Err(AuditError::new(
                        "quiescence-map",
                        format!(
                            "stage {stage} switch {sw}: map bit {bit} but the \
                             switch holds {} packets",
                            switch.packets_resident(),
                        ),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Full network audit: buffer structure in every switch, the
    /// structure of every source queue, the quiescence map, packet
    /// conservation, and the fault ledger.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn audit(&self) -> Result<(), AuditError> {
        for row in &self.switches {
            for sw in row {
                sw.audit()?;
            }
        }
        for (src, queue) in self.source_queues.iter().enumerate() {
            queue.audit(src)?;
        }
        self.audit_quiescence()?;
        self.audit_conservation()?;
        self.audit_fault_ledger()
    }

    /// Verifies buffer invariants in every switch (testing aid).
    ///
    /// # Panics
    ///
    /// Panics with a description on violation.
    pub fn check_invariants(&self) {
        for row in &self.switches {
            for sw in row {
                sw.check_invariants();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::CLOCKS_PER_CYCLE;

    fn small(kind: BufferKind) -> NetworkConfig {
        NetworkConfig::new(16, 4)
            .buffer_kind(kind)
            .offered_load(0.3)
            .seed(11)
    }

    #[test]
    fn registry_disabled_by_default_and_mirrors_metrics_when_enabled() {
        let mut plain = NetworkSim::new(small(BufferKind::Damq)).unwrap();
        plain.run(100);
        assert!(!plain.metrics_registry().enabled());
        assert_eq!(
            plain.metrics_registry().counter_value("net.cycles"),
            Some(0)
        );

        let mut sim = NetworkSim::new(small(BufferKind::Damq))
            .unwrap()
            .with_metrics();
        sim.run(100);
        let reg = sim.metrics_registry();
        assert_eq!(reg.counter_value("net.cycles"), Some(100));
        assert_eq!(
            reg.counter_value("net.delivered"),
            Some(sim.metrics().delivered())
        );
        assert_eq!(
            reg.counter_value("net.generated"),
            Some(sim.metrics().generated())
        );
        let latency = reg.histogram_named("net.latency_cycles").unwrap();
        assert_eq!(latency.count(), sim.metrics().delivered());
        assert!(latency.p50() <= latency.p99());
        assert!(latency.p99() <= latency.p999());
        // Occupancy was sampled once per buffer per cycle.
        let occupancy = reg.histogram_named("net.occupancy_slots").unwrap();
        let buffers: u64 = 16 / 4 * 2 * 4; // per-stage switches × stages × ports
        assert_eq!(occupancy.count(), 100 * buffers);
        // The snapshot is non-trivial JSON.
        let snap = sim.metrics_snapshot();
        assert!(snap.starts_with("{\"counters\":{\"net.cycles\":100,"));
    }

    #[test]
    fn packets_flow_and_arrive_at_their_destinations() {
        let mut sim = NetworkSim::new(small(BufferKind::Damq)).unwrap();
        sim.run(200);
        assert!(sim.metrics().delivered() > 500);
        // debug_assert in advance_stages checks per-packet destinations.
        sim.check_invariants();
    }

    #[test]
    fn conservation_generated_equals_everything_else() {
        for kind in BufferKind::ALL {
            for flow in FlowControl::ALL {
                let mut sim =
                    NetworkSim::new(small(kind).flow_control(flow).offered_load(0.8)).unwrap();
                sim.run(300);
                let m = sim.metrics();
                let accounted = m.delivered()
                    + m.discarded()
                    + sim.source_backlog() as u64
                    + sim.packets_in_flight() as u64;
                assert_eq!(m.generated(), accounted, "{kind}/{flow}");
            }
        }
    }

    #[test]
    fn blocking_protocol_never_discards() {
        let mut sim = NetworkSim::new(
            small(BufferKind::Fifo)
                .flow_control(FlowControl::Blocking)
                .offered_load(0.95),
        )
        .unwrap();
        sim.run(300);
        assert_eq!(sim.metrics().discarded(), 0);
    }

    #[test]
    fn discarding_protocol_drops_under_overload() {
        let mut sim = NetworkSim::new(
            small(BufferKind::Fifo)
                .flow_control(FlowControl::Discarding)
                .offered_load(0.95),
        )
        .unwrap();
        sim.run(300);
        assert!(sim.metrics().discarded() > 0);
    }

    #[test]
    fn minimum_latency_is_one_cycle_per_stage() {
        // A single packet in an otherwise idle 2-stage network takes
        // exactly `stages` cycles from injection to delivery.
        let mut sim =
            NetworkSim::new(NetworkConfig::new(16, 4).offered_load(0.01).seed(3)).unwrap();
        sim.run(500);
        let m = sim.metrics();
        assert!(m.delivered() > 0);
        let floor = sim.topology().stages() as f64 * CLOCKS_PER_CYCLE as f64;
        assert!(m.mean_network_latency_clocks() >= floor - 1e-9);
        // At 1% load there is essentially no queueing.
        assert!(m.mean_network_latency_clocks() < floor * 1.2);
    }

    #[test]
    fn same_seed_same_results() {
        let run = || {
            let mut sim = NetworkSim::new(small(BufferKind::Damq).seed(99)).unwrap();
            sim.run(150);
            (
                sim.metrics().generated(),
                sim.metrics().delivered(),
                sim.metrics().mean_latency_clocks(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_seeds_differ() {
        let run = |seed| {
            let mut sim = NetworkSim::new(small(BufferKind::Damq).seed(seed)).unwrap();
            sim.run(150);
            sim.metrics().generated()
        };
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn warm_up_resets_the_window() {
        let mut sim = NetworkSim::new(small(BufferKind::Damq)).unwrap();
        sim.warm_up(50);
        assert_eq!(sim.metrics().cycles(), 0);
        assert_eq!(sim.metrics().generated(), 0);
        assert!(sim.cycle() == 50);
    }

    #[test]
    fn samq_slots_must_divide_radix() {
        let err = NetworkSim::new(
            NetworkConfig::new(16, 4)
                .buffer_kind(BufferKind::Samq)
                .slots_per_buffer(3),
        )
        .unwrap_err();
        assert!(matches!(err, NetworkError::Buffer(_)));
    }

    fn build_with_lengths(lengths: PacketLengths) -> Result<NetworkSim, NetworkError> {
        NetworkSim::new(NetworkConfig::new(16, 4).packet_lengths(lengths))
    }

    #[test]
    fn zero_byte_packet_lengths_are_rejected_at_build() {
        for lengths in [
            PacketLengths::Fixed(0),
            PacketLengths::Uniform { min: 0, max: 8 },
        ] {
            let err = build_with_lengths(lengths).unwrap_err();
            assert_eq!(err, NetworkError::PacketLengths(lengths));
            assert!(err.to_string().contains("1..=4294967295"), "{err}");
        }
        assert!(build_with_lengths(PacketLengths::Uniform { min: 1, max: 8 }).is_ok());
    }

    #[test]
    fn empty_uniform_length_range_is_rejected_at_build() {
        let lengths = PacketLengths::Uniform { min: 9, max: 8 };
        let err = build_with_lengths(lengths).unwrap_err();
        assert_eq!(err, NetworkError::PacketLengths(lengths));
        assert!(build_with_lengths(PacketLengths::Uniform { min: 8, max: 8 }).is_ok());
    }

    #[test]
    fn packet_lengths_past_u32_are_rejected_at_build() {
        let max = u32::MAX as usize;
        for lengths in [
            PacketLengths::Fixed(max + 9),
            PacketLengths::Uniform {
                min: 8,
                max: max + 1,
            },
        ] {
            let err = build_with_lengths(lengths).unwrap_err();
            assert_eq!(err, NetworkError::PacketLengths(lengths));
        }
        // The largest register value is still a valid length.
        assert!(build_with_lengths(PacketLengths::Fixed(max)).is_ok());
    }

    /// Pins the source backlog's encoded size on the saturated 64-terminal
    /// hot-spot shape, where it is the simulator's largest structure.
    #[test]
    fn hot_spot_backlog_stays_under_six_bytes_a_packet() {
        let mut sim = NetworkSim::new(
            NetworkConfig::new(64, 4)
                .buffer_kind(BufferKind::Damq)
                .slots_per_buffer(4)
                .arbiter_policy(ArbiterPolicy::Smart)
                .flow_control(FlowControl::Blocking)
                .traffic(TrafficPattern::paper_hot_spot())
                .offered_load(0.5)
                .seed(1),
        )
        .unwrap();
        sim.run(22_000);
        sim.audit().unwrap();
        let backlog = sim.source_backlog();
        assert!(backlog > 300_000, "the hot tree saturates: {backlog}");
        let bytes: usize = sim.source_queues.iter().map(SourceQueue::tail_bytes).sum();
        assert!(
            bytes <= 6 * backlog,
            "{bytes} tail bytes for {backlog} queued packets"
        );
    }

    #[test]
    fn shifted_traffic_with_zero_offset_is_conflict_free() {
        // dest = source: in an Omega network the identity permutation is
        // routable without conflicts, so blocking FIFO at full load still
        // delivers one packet per sink per cycle.
        let mut sim = NetworkSim::new(
            NetworkConfig::new(16, 4)
                .buffer_kind(BufferKind::Fifo)
                .traffic(TrafficPattern::Shifted { offset: 0 })
                .offered_load(1.0)
                .seed(5),
        )
        .unwrap();
        sim.warm_up(50);
        sim.run(100);
        let m = sim.metrics();
        assert!(
            m.delivered_throughput() > 0.999,
            "throughput {}",
            m.delivered_throughput()
        );
    }

    #[test]
    fn variable_length_packets_flow_too() {
        let mut sim = NetworkSim::new(
            NetworkConfig::new(16, 4)
                .packet_lengths(PacketLengths::Uniform { min: 1, max: 32 })
                .slots_per_buffer(8)
                .offered_load(0.2)
                .seed(21),
        )
        .unwrap();
        sim.run(300);
        assert!(sim.metrics().delivered() > 0);
        sim.check_invariants();
    }

    /// Counts `Forwarded` events emitted by non-final stages — exactly
    /// the departures that need a route to the next stage.
    fn non_final_forwards(
        sim: &NetworkSim<damq_core::AnyBuffer, damq_telemetry::MemorySink<Event>>,
    ) -> u64 {
        let last = (sim.topology().stages() - 1) as u32;
        sim.sink()
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Forwarded { stage, .. } if stage < last))
            .count() as u64
    }

    #[test]
    fn discarding_routes_each_departure_exactly_once() {
        // Without backpressure the probe closure never routes, so the
        // departure loop must account for every query: one per forwarded
        // packet leaving a non-final stage.
        let mut sim = NetworkSim::with_sink(
            small(BufferKind::Damq)
                .flow_control(FlowControl::Discarding)
                .offered_load(0.6),
            damq_telemetry::MemorySink::new(),
        )
        .unwrap();
        sim.run(300);
        let forwards = non_final_forwards(&sim);
        assert!(forwards > 0);
        assert_eq!(sim.route_plan().route_queries(), forwards);
    }

    #[test]
    fn blocking_departures_reuse_the_probe_route() {
        // The identity permutation is conflict-free in an Omega network
        // and the downstream buffers drain every cycle, so every
        // backpressure probe leads to a departure. Routing must therefore
        // be queried exactly once per non-final forward; recomputing the
        // route in the departure loop would double the count.
        let mut sim = NetworkSim::with_sink(
            NetworkConfig::new(16, 4)
                .buffer_kind(BufferKind::Damq)
                .traffic(TrafficPattern::Shifted { offset: 0 })
                .flow_control(FlowControl::Blocking)
                .offered_load(1.0)
                .seed(5),
            damq_telemetry::MemorySink::new(),
        )
        .unwrap();
        sim.run(100);
        let forwards = non_final_forwards(&sim);
        assert!(forwards > 0);
        assert_eq!(sim.route_plan().route_queries(), forwards);
    }

    #[test]
    fn hot_spot_concentrates_deliveries() {
        let mut sim = NetworkSim::new(
            NetworkConfig::new(16, 4)
                .traffic(TrafficPattern::HotSpot {
                    fraction: 0.3,
                    target: NodeId::new(5),
                })
                .offered_load(0.2)
                .seed(8),
        )
        .unwrap();
        sim.run(400);
        let per_sink = sim.metrics().per_sink_delivered();
        let hot = per_sink[5];
        let mean_other: f64 = per_sink
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != 5)
            .map(|(_, &c)| c as f64)
            .sum::<f64>()
            / 15.0;
        assert!(hot as f64 > 3.0 * mean_other);
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use damq_core::{FaultSite, FaultSpec};

    fn base(kind: BufferKind) -> NetworkConfig {
        NetworkConfig::new(16, 4)
            .buffer_kind(kind)
            .offered_load(0.5)
            .seed(17)
    }

    fn spec(dead_fraction: f64) -> FaultSpec {
        FaultSpec {
            dead_slot_fraction: dead_fraction,
            link_flaps: 2,
            flap_duration: 15,
            corrupt_packets: 3,
            misroutes: 3,
            ..FaultSpec::fault_free(2, 4, 4, 16, 4, 150)
        }
    }

    #[test]
    fn dead_slots_shrink_capacity_without_breaking_the_run() {
        let plan = FaultPlan::generate(5, &spec(0.25));
        let mut sim = NetworkSim::with_faults(base(BufferKind::Damq), plan).unwrap();
        sim.run(300);
        let ledger = sim.fault_ledger();
        assert!(ledger.slots_killed > 0);
        assert_eq!(ledger.slots_killed, sim.dead_slots() as u64);
        assert!(sim.metrics().delivered() > 0, "network still delivers");
        sim.audit().expect("faulted run stays consistent");
    }

    #[test]
    fn corruption_is_caught_at_the_sink() {
        let plan = FaultPlan::new()
            .with_corruption(1, 0)
            .with_corruption(1, 3)
            .with_corruption(2, 7);
        let mut sim = NetworkSim::with_faults(
            base(BufferKind::Damq).flow_control(FlowControl::Blocking),
            plan,
        )
        .unwrap();
        sim.run(300);
        // Blocking flow control never drops, so all three corrupted
        // packets reach a sink and fail the checksum there.
        assert_eq!(sim.fault_ledger().corrupt_dropped, 3);
        sim.audit().expect("conservation holds modulo the ledger");
    }

    #[test]
    fn link_outage_holds_under_blocking_and_drops_under_discarding() {
        let flap = |flow| {
            let site = FaultSite {
                stage: 0,
                switch: 0,
                input: 0,
            };
            let plan = FaultPlan::new().with_link_down(10, site, 200);
            let mut sim =
                NetworkSim::with_faults(base(BufferKind::Damq).flow_control(flow), plan).unwrap();
            sim.run(150);
            sim.audit().expect("faulted run stays consistent");
            sim.fault_ledger().link_dropped
        };
        assert_eq!(flap(FlowControl::Blocking), 0, "blocking holds upstream");
        assert!(
            flap(FlowControl::Discarding) > 0,
            "discarding loses packets"
        );
    }

    #[test]
    fn misroutes_are_dropped_and_declared() {
        let plan = FaultPlan::new()
            .with_misroute(5, 0, 0)
            .with_misroute(5, 0, 1)
            .with_misroute(10, 1, 0);
        let mut sim = NetworkSim::with_faults(base(BufferKind::Damq), plan).unwrap();
        sim.run(200);
        assert!(sim.fault_ledger().misrouted > 0);
        sim.audit().expect("faulted run stays consistent");
    }

    /// Under the blocking protocol a probe can be invalidated *only* by
    /// a misroute landing on the probed input port earlier in the same
    /// stage's merge (the banyan wiring gives every in-order departure a
    /// private downstream input, so nothing else can consume its
    /// reserved space). The merge enforces that invariant with a hard
    /// assert and tallies each invalidated probe in
    /// `FaultLedger::probe_invalidated`. The seeds are pinned to a
    /// schedule that hits the misroute-during-probe window, so this test
    /// fails if either the assert or the tally drifts.
    #[test]
    fn blocking_misroute_probe_invalidation_window() {
        let config = NetworkConfig::new(16, 4)
            .buffer_kind(BufferKind::Damq)
            .slots_per_buffer(4)
            .offered_load(0.9)
            .seed(0xDA3B)
            .flow_control(FlowControl::Blocking);
        let plan = FaultPlan::generate(
            37,
            &FaultSpec {
                misroutes: 8,
                ..FaultSpec::fault_free(2, 4, 4, 16, 4, 300)
            },
        );
        let mut sim = NetworkSim::with_faults(config, plan).unwrap();
        sim.run(300);
        sim.audit().expect("faulted run stays consistent");
        let ledger = sim.fault_ledger();
        assert_eq!(
            ledger.probe_invalidated, 3,
            "pinned seed must hit the probe-invalidation window"
        );
        assert_eq!(ledger.misrouted, 8, "all seeded misroutes fire");

        // Without misroute faults the blocking protocol never bounces a
        // probed departure — the strict assert in the merge would fire
        // otherwise, and the tally must stay zero.
        let mut clean = NetworkSim::new(config).unwrap();
        clean.run(300);
        assert_eq!(clean.fault_ledger().probe_invalidated, 0);
    }

    #[test]
    fn faulted_runs_are_deterministic_to_the_byte() {
        let run = || {
            let plan = FaultPlan::generate(9, &spec(0.1));
            let mut sim = NetworkSim::with_sink(
                base(BufferKind::Samq).flow_control(FlowControl::Discarding),
                damq_telemetry::MemorySink::new(),
            )
            .unwrap();
            sim.install_fault_plan(plan);
            sim.run(200);
            let ledger = sim.fault_ledger();
            let trace: String = sim
                .into_sink()
                .events()
                .iter()
                .map(|e| e.to_jsonl() + "\n")
                .collect();
            (ledger, trace)
        };
        let (ledger_a, trace_a) = run();
        let (ledger_b, trace_b) = run();
        assert_eq!(ledger_a, ledger_b);
        assert_eq!(trace_a, trace_b, "fault JSONL must be byte-identical");
        assert!(trace_a.contains("slot_killed"), "fault events in the trace");
    }

    #[test]
    fn all_designs_and_protocols_audit_clean_with_faults_active() {
        for kind in BufferKind::ALL {
            for flow in FlowControl::ALL {
                let plan = FaultPlan::generate(3, &spec(0.2));
                let mut sim = NetworkSim::with_faults(base(kind).flow_control(flow), plan).unwrap();
                sim.run(250);
                assert!(sim.fault_ledger().slots_killed > 0, "{kind}/{flow}");
                sim.audit().unwrap_or_else(|e| panic!("{kind}/{flow}: {e}"));
            }
        }
    }
}

#[cfg(test)]
mod recovery_tests {
    use super::*;
    use damq_core::{FaultSite, FaultSpec};

    fn base(kind: BufferKind) -> NetworkConfig {
        NetworkConfig::new(16, 4)
            .buffer_kind(kind)
            .offered_load(0.5)
            .seed(17)
    }

    /// Retransmission-only recovery with a deep per-hop buffer and a
    /// long detection window (no deflection).
    fn deep_retransmit() -> RecoveryConfig {
        RecoveryConfig {
            retransmit: true,
            retransmit_slots: 64,
            max_retries: 16,
            base_timeout: 4,
            max_backoff_exp: 5,
            adaptive: false,
            misroute_budget: 0,
            detection_window: 10,
        }
    }

    fn trace_of<B: SwitchBuffer>(sim: NetworkSim<B, damq_telemetry::MemorySink<Event>>) -> String {
        sim.into_sink()
            .events()
            .iter()
            .map(|e| e.to_jsonl() + "\n")
            .collect()
    }

    #[test]
    fn corrupted_payloads_are_repaired_and_delivered() {
        let plan = FaultPlan::new()
            .with_corruption(1, 0)
            .with_corruption(1, 3)
            .with_corruption(2, 7);
        let mut sim = NetworkSim::with_sink(
            base(BufferKind::Damq)
                .flow_control(FlowControl::Blocking)
                .recovery(deep_retransmit()),
            damq_telemetry::MemorySink::new(),
        )
        .unwrap();
        sim.install_fault_plan(plan);
        sim.run(300);
        // The sink NACKs each damaged arrival; the hop buffer resends a
        // repaired copy instead of charging a corrupt drop.
        assert_eq!(sim.fault_ledger().corrupt_dropped, 0);
        assert_eq!(sim.fault_ledger().dropped(), 0);
        sim.audit().expect("recovered run stays consistent");
        let trace = trace_of(sim);
        assert!(trace.contains("\"retransmit\""), "resends in the trace");
        assert!(!trace.contains("\"corrupt_dropped\""), "no corrupt drops");
    }

    #[test]
    fn flapped_link_losses_are_retransmitted_not_dropped() {
        let site = FaultSite {
            stage: 1,
            switch: 0,
            input: 0,
        };
        let run = |recovery: RecoveryConfig| {
            let plan = FaultPlan::new().with_link_down(10, site, 60);
            let mut sim = NetworkSim::with_faults(
                base(BufferKind::Damq)
                    .flow_control(FlowControl::Discarding)
                    .recovery(recovery),
                plan,
            )
            .unwrap();
            sim.run(400);
            sim.audit().expect("flapped run stays consistent");
            assert_eq!(sim.recovery_held(), 0, "buffers drain after the flap");
            (sim.fault_ledger().link_dropped, sim.metrics().delivered())
        };
        let (dropped_off, delivered_off) = run(RecoveryConfig::disabled());
        let (dropped_on, delivered_on) = run(deep_retransmit());
        assert!(dropped_off > 0, "the flap costs the plain fault model");
        assert_eq!(dropped_on, 0, "every flap loss parks and resends");
        assert!(
            delivered_on > delivered_off,
            "recovery delivers more: {delivered_on} vs {delivered_off}"
        );
    }

    #[test]
    fn deflection_recirculates_to_the_true_destination() {
        let site = FaultSite {
            stage: 1,
            switch: 0,
            input: 0,
        };
        let plan = FaultPlan::new().with_link_down(10, site, 260);
        let mut sim = NetworkSim::with_sink(
            base(BufferKind::Damq)
                .flow_control(FlowControl::Discarding)
                .recovery(RecoveryConfig::enabled()),
            damq_telemetry::MemorySink::new(),
        )
        .unwrap();
        sim.install_fault_plan(plan);
        sim.run(400);
        sim.audit().expect("deflected run stays consistent");
        assert!(sim.metrics().delivered() > 0);
        let trace = trace_of(sim);
        assert!(trace.contains("\"rerouted\""), "deflections in the trace");
        assert!(
            trace.contains("\"recirculated\""),
            "wrong-sink arrivals recirculate instead of dropping"
        );
    }

    #[test]
    fn bounded_retries_give_the_packet_up() {
        let site = FaultSite {
            stage: 0,
            switch: 0,
            input: 0,
        };
        // The entry link never comes back: every park must eventually
        // exhaust its retries and be given up, not held forever.
        let plan = FaultPlan::new().with_link_down(5, site, 100_000);
        let recovery = RecoveryConfig {
            retransmit: true,
            retransmit_slots: 8,
            max_retries: 3,
            base_timeout: 2,
            max_backoff_exp: 3,
            adaptive: false,
            misroute_budget: 0,
            detection_window: 5,
        };
        let mut sim = NetworkSim::with_sink(
            base(BufferKind::Damq)
                .flow_control(FlowControl::Discarding)
                .recovery(recovery)
                .seed(23),
            damq_telemetry::MemorySink::new(),
        )
        .unwrap();
        sim.install_fault_plan(plan);
        sim.run(600);
        sim.audit().expect("exhausted run stays consistent");
        assert!(sim.metrics().discarded() > 0, "give-ups count as discards");
        let snapshot = sim.metrics_snapshot();
        let trace = trace_of(sim);
        assert!(trace.contains("\"gave_up\""), "give-ups in the trace");
        // The registry was never enabled, so the snapshot stays zeroed —
        // the counter exists either way.
        assert!(snapshot.contains("\"net.retry_exhausted\""));
    }

    #[test]
    fn recovery_metrics_land_in_the_registry() {
        let plan = FaultPlan::new()
            .with_link_down(
                10,
                FaultSite {
                    stage: 1,
                    switch: 1,
                    input: 2,
                },
                60,
            )
            .with_corruption(5, 3);
        let mut sim = NetworkSim::with_faults(
            base(BufferKind::Damq)
                .flow_control(FlowControl::Discarding)
                .recovery(RecoveryConfig::enabled()),
            plan,
        )
        .unwrap()
        .with_metrics();
        sim.run(400);
        let snapshot = sim.metrics_snapshot();
        let counter = |name: &str| {
            let key = format!("\"{name}\":");
            let at = snapshot
                .find(&key)
                .unwrap_or_else(|| panic!("{name} missing"))
                + key.len();
            snapshot[at..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
                .parse::<u64>()
                .unwrap()
        };
        assert!(counter("net.retransmits") > 0, "resends counted");
        assert_eq!(
            counter("net.fault.corrupt_dropped"),
            sim.fault_ledger().corrupt_dropped,
            "registry mirrors the fault ledger"
        );
        assert_eq!(
            counter("net.fault.link_dropped"),
            sim.fault_ledger().link_dropped
        );
    }

    #[test]
    fn recovered_runs_are_deterministic_to_the_byte() {
        let run = || {
            let spec = FaultSpec {
                dead_slot_fraction: 0.1,
                link_flaps: 4,
                flap_duration: 30,
                corrupt_packets: 3,
                misroutes: 2,
                ..FaultSpec::fault_free(2, 4, 4, 16, 4, 200)
            };
            let plan = FaultPlan::generate(11, &spec);
            let mut sim = NetworkSim::with_sink(
                base(BufferKind::Damq)
                    .flow_control(FlowControl::Discarding)
                    .recovery(RecoveryConfig::enabled()),
                damq_telemetry::MemorySink::new(),
            )
            .unwrap()
            .with_metrics();
            sim.install_fault_plan(plan);
            sim.run(400);
            sim.audit().expect("recovered run stays consistent");
            let snapshot = sim.metrics_snapshot();
            let ledger = sim.fault_ledger();
            (ledger, snapshot, trace_of(sim))
        };
        let (ledger_a, snap_a, trace_a) = run();
        let (ledger_b, snap_b, trace_b) = run();
        assert_eq!(ledger_a, ledger_b);
        assert_eq!(snap_a, snap_b, "registry snapshots byte-identical");
        assert_eq!(trace_a, trace_b, "recovery JSONL byte-identical");
        assert!(trace_a.contains("\"retransmit\""), "recovery was exercised");
    }

    #[test]
    fn all_designs_and_protocols_audit_clean_with_recovery_active() {
        let spec = FaultSpec {
            dead_slot_fraction: 0.15,
            link_flaps: 3,
            flap_duration: 25,
            corrupt_packets: 3,
            misroutes: 3,
            ..FaultSpec::fault_free(2, 4, 4, 16, 4, 150)
        };
        for kind in BufferKind::ALL {
            for flow in FlowControl::ALL {
                let plan = FaultPlan::generate(7, &spec);
                let mut sim = NetworkSim::with_faults(
                    base(kind)
                        .flow_control(flow)
                        .recovery(RecoveryConfig::enabled()),
                    plan,
                )
                .unwrap();
                sim.run(300);
                sim.audit().unwrap_or_else(|e| panic!("{kind}/{flow}: {e}"));
            }
        }
    }
}

#[cfg(test)]
mod burst_tests {
    use super::*;

    #[test]
    fn on_off_preserves_the_mean_rate() {
        let mut sim = NetworkSim::new(
            NetworkConfig::new(16, 4)
                .offered_load(0.3)
                .arrival_process(ArrivalProcess::OnOff {
                    mean_burst: 8.0,
                    duty: 0.4,
                })
                .seed(42),
        )
        .unwrap();
        sim.run(20_000);
        let rate = sim.metrics().offered_throughput();
        assert!((rate - 0.3).abs() < 0.01, "mean rate drifted: {rate}");
    }

    #[test]
    fn bursts_create_burstier_queues_than_bernoulli() {
        // Same mean load; the on/off process should produce a longer
        // latency tail (p99) than Bernoulli.
        let run = |arrivals: ArrivalProcess| {
            let mut sim = NetworkSim::new(
                NetworkConfig::new(16, 4)
                    .buffer_kind(BufferKind::Damq)
                    .offered_load(0.35)
                    .arrival_process(arrivals)
                    .seed(9),
            )
            .unwrap();
            sim.warm_up(500);
            sim.run(8_000);
            sim.metrics().latency_percentile_clocks(0.99)
        };
        let smooth = run(ArrivalProcess::Bernoulli);
        let bursty = run(ArrivalProcess::OnOff {
            mean_burst: 12.0,
            duty: 0.3,
        });
        assert!(
            bursty > smooth,
            "bursty p99 {bursty} should exceed smooth p99 {smooth}"
        );
    }

    #[test]
    fn duty_one_degenerates_to_bernoulli_rates() {
        let mut sim = NetworkSim::new(
            NetworkConfig::new(16, 4)
                .offered_load(0.25)
                .arrival_process(ArrivalProcess::OnOff {
                    mean_burst: 5.0,
                    duty: 1.0,
                })
                .seed(3),
        )
        .unwrap();
        sim.run(10_000);
        let rate = sim.metrics().offered_throughput();
        assert!((rate - 0.25).abs() < 0.01, "rate {rate}");
    }

    #[test]
    #[should_panic(expected = "duty is a fraction")]
    fn invalid_duty_rejected() {
        let _ = NetworkConfig::new(16, 4).arrival_process(ArrivalProcess::OnOff {
            mean_burst: 4.0,
            duty: 1.5,
        });
    }
}
