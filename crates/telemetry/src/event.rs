//! The cycle-stamped packet-lifecycle event model and its JSONL encoding.
//!
//! Every event is one line of JSON with a fixed key order, so traces are
//! byte-deterministic for a given simulation (no floats, no timestamps).
//! The parser accepts exactly what the writer emits — a deliberately small
//! flat-object subset of JSON (string values, unsigned integers, arrays of
//! unsigned integers) — so golden-trace tests can round-trip files without
//! an external JSON dependency.

use std::fmt;

/// One telemetry record: something that happened at a network cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// The network cycle the event belongs to.
    pub cycle: u64,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// Creates an event at `cycle`.
    pub fn new(cycle: u64, kind: EventKind) -> Self {
        Event { cycle, kind }
    }
}

/// The event vocabulary.
///
/// Packet-lifecycle events carry the packet's serial number so a trace can
/// be replayed into per-packet spans: every delivered packet has a
/// matching `Injected`, its `Forwarded` stamps are strictly increasing,
/// and its last `Forwarded` coincides with `Delivered` (packets cross a
/// stage boundary instantaneously once per cycle). `HolBlocked` and
/// `CycleSample` are aggregate per-cycle observations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EventKind {
    /// Start of a run: identifies the experiment the following events
    /// belong to. A trace file may hold several runs, each introduced by
    /// its own `RunMeta`.
    RunMeta {
        /// Buffer design under test (e.g. `"DAMQ"`).
        design: String,
        /// Number of terminals.
        terminals: u32,
        /// Switch radix.
        radix: u32,
        /// Number of stages.
        stages: u32,
        /// Slots per input buffer.
        slots: u32,
        /// Free-form description (traffic pattern, load, seed).
        note: String,
    },
    /// A source created a packet (it enters the source queue).
    Generated {
        /// Packet serial number.
        packet: u64,
        /// Generating terminal.
        source: u32,
        /// Destination terminal.
        dest: u32,
    },
    /// A packet left its source queue into a first-stage buffer.
    Injected {
        /// Packet serial number.
        packet: u64,
        /// Injecting terminal.
        source: u32,
    },
    /// A packet was dropped trying to enter the network (discarding
    /// protocol, first-stage buffer full).
    EntryDiscarded {
        /// Packet serial number.
        packet: u64,
        /// Terminal whose packet was dropped.
        source: u32,
    },
    /// A packet crossed the crossbar of one switch.
    Forwarded {
        /// Packet serial number.
        packet: u64,
        /// Stage of the forwarding switch.
        stage: u32,
        /// Index of the forwarding switch within its stage.
        switch: u32,
        /// Output port the packet left through.
        output: u32,
    },
    /// A packet was dropped between stages (discarding protocol,
    /// downstream buffer full).
    NetworkDiscarded {
        /// Packet serial number.
        packet: u64,
        /// Stage the packet was leaving.
        stage: u32,
        /// Switch the packet was leaving.
        switch: u32,
    },
    /// A packet reached its sink.
    Delivered {
        /// Packet serial number.
        packet: u64,
        /// Receiving terminal.
        sink: u32,
    },
    /// Head-of-line blocking observed in one switch this cycle: `blocked`
    /// resident packets sit behind a head packet routed to a different
    /// output (only FIFO buffers exhibit this).
    HolBlocked {
        /// Stage of the switch.
        stage: u32,
        /// Switch index within its stage.
        switch: u32,
        /// Packets blocked behind a foreign-output head.
        blocked: u32,
    },
    /// Fault injection permanently disabled one buffer slot.
    SlotKilled {
        /// Stage of the affected switch.
        stage: u32,
        /// Switch index within its stage.
        switch: u32,
        /// Input port whose buffer lost the slot.
        input: u32,
    },
    /// Fault injection took a link out of service for a window of cycles.
    LinkDown {
        /// Stage of the affected switch.
        stage: u32,
        /// Switch index within its stage.
        switch: u32,
        /// Input port fed by the flapping link.
        input: u32,
        /// First cycle at which the link carries traffic again.
        until: u64,
    },
    /// A packet arrived at its sink with a failed checksum (payload
    /// corrupted in flight by fault injection) and was dropped.
    CorruptDropped {
        /// Packet serial number.
        packet: u64,
        /// Terminal that rejected the delivery.
        sink: u32,
    },
    /// A packet arrived at the wrong sink (a transient misroute flipped an
    /// output decision upstream) and was dropped there.
    Misrouted {
        /// Packet serial number.
        packet: u64,
        /// Terminal the packet wrongly arrived at.
        sink: u32,
    },
    /// The recovery layer resent a parked packet over its hop (a lost or
    /// corrupted transfer timed out, or a NACK arrived).
    Retransmit {
        /// Packet serial number.
        packet: u64,
        /// Stage of the retransmitting hop (`stages` for the final
        /// switch-to-sink hop).
        stage: u32,
        /// Switch index the retransmit buffer belongs to.
        switch: u32,
        /// Resend attempt number (1 = first resend).
        attempt: u32,
        /// Link-level sequence number of the transfer.
        seq: u64,
    },
    /// The recovery layer exhausted its retries for a parked packet and
    /// dropped it.
    GaveUp {
        /// Packet serial number.
        packet: u64,
        /// Stage of the hop that gave up.
        stage: u32,
        /// Switch index the retransmit buffer belongs to.
        switch: u32,
        /// Resend attempts made before giving up.
        attempts: u32,
    },
    /// Adaptive routing deflected a packet to an alternate output queue
    /// because the primary output's link was believed down or its queue
    /// was saturated.
    Rerouted {
        /// Packet serial number.
        packet: u64,
        /// Stage of the deflecting switch.
        stage: u32,
        /// Switch index within its stage.
        switch: u32,
        /// Alternate output queue the packet was deflected into.
        output: u32,
    },
    /// A deflected packet reached the wrong sink intact and was parked in
    /// the retransmit buffer at its true destination's terminal slot, to
    /// be re-delivered by the retransmit timer.
    Recirculated {
        /// Packet serial number.
        packet: u64,
        /// The wrong terminal the packet reached.
        sink: u32,
    },
    /// Per-cycle aggregate state, recorded once per cycle while the sink
    /// is enabled.
    CycleSample {
        /// Occupied slots per stage (summed over the stage's switches).
        occupied: Vec<u32>,
        /// Packets forwarded per stage this cycle (link utilisation).
        forwarded: Vec<u32>,
        /// Histogram of per-buffer occupancy: entry `k` counts input
        /// buffers currently holding exactly `k` used slots.
        buffer_occupancy: Vec<u32>,
        /// Packets waiting in source queues.
        backlog: u32,
        /// Total HOL-blocked packets across the network this cycle.
        hol_blocked: u32,
    },
}

impl EventKind {
    /// The `"type"` tag used in the JSONL encoding.
    pub fn type_tag(&self) -> &'static str {
        match self {
            EventKind::RunMeta { .. } => "run_meta",
            EventKind::Generated { .. } => "generated",
            EventKind::Injected { .. } => "injected",
            EventKind::EntryDiscarded { .. } => "entry_discarded",
            EventKind::Forwarded { .. } => "forwarded",
            EventKind::NetworkDiscarded { .. } => "network_discarded",
            EventKind::Delivered { .. } => "delivered",
            EventKind::HolBlocked { .. } => "hol_blocked",
            EventKind::SlotKilled { .. } => "slot_killed",
            EventKind::LinkDown { .. } => "link_down",
            EventKind::CorruptDropped { .. } => "corrupt_dropped",
            EventKind::Misrouted { .. } => "misrouted",
            EventKind::Retransmit { .. } => "retransmit",
            EventKind::GaveUp { .. } => "gave_up",
            EventKind::Rerouted { .. } => "rerouted",
            EventKind::Recirculated { .. } => "recirculated",
            EventKind::CycleSample { .. } => "cycle_sample",
        }
    }

    /// The packet serial this event belongs to, for lifecycle events.
    pub fn packet(&self) -> Option<u64> {
        match *self {
            EventKind::Generated { packet, .. }
            | EventKind::Injected { packet, .. }
            | EventKind::EntryDiscarded { packet, .. }
            | EventKind::Forwarded { packet, .. }
            | EventKind::NetworkDiscarded { packet, .. }
            | EventKind::Delivered { packet, .. }
            | EventKind::CorruptDropped { packet, .. }
            | EventKind::Misrouted { packet, .. }
            | EventKind::Retransmit { packet, .. }
            | EventKind::GaveUp { packet, .. }
            | EventKind::Rerouted { packet, .. }
            | EventKind::Recirculated { packet, .. } => Some(packet),
            _ => None,
        }
    }
}

fn push_str_field(out: &mut String, key: &str, value: &str) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":\"");
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_u64_field(out: &mut String, key: &str, value: u64) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
    out.push_str(&value.to_string());
}

fn push_arr_field(out: &mut String, key: &str, values: &[u32]) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
    out.push(']');
}

impl Event {
    /// Serializes the event as one line of JSON (no trailing newline).
    ///
    /// The encoding is deterministic: fixed key order, integers only.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(64);
        out.push_str("{\"type\":\"");
        out.push_str(self.kind.type_tag());
        out.push('"');
        push_u64_field(&mut out, "cycle", self.cycle);
        match &self.kind {
            EventKind::RunMeta {
                design,
                terminals,
                radix,
                stages,
                slots,
                note,
            } => {
                push_str_field(&mut out, "design", design);
                push_u64_field(&mut out, "terminals", u64::from(*terminals));
                push_u64_field(&mut out, "radix", u64::from(*radix));
                push_u64_field(&mut out, "stages", u64::from(*stages));
                push_u64_field(&mut out, "slots", u64::from(*slots));
                push_str_field(&mut out, "note", note);
            }
            EventKind::Generated {
                packet,
                source,
                dest,
            } => {
                push_u64_field(&mut out, "packet", *packet);
                push_u64_field(&mut out, "source", u64::from(*source));
                push_u64_field(&mut out, "dest", u64::from(*dest));
            }
            EventKind::Injected { packet, source }
            | EventKind::EntryDiscarded { packet, source } => {
                push_u64_field(&mut out, "packet", *packet);
                push_u64_field(&mut out, "source", u64::from(*source));
            }
            EventKind::Forwarded {
                packet,
                stage,
                switch,
                output,
            } => {
                push_u64_field(&mut out, "packet", *packet);
                push_u64_field(&mut out, "stage", u64::from(*stage));
                push_u64_field(&mut out, "switch", u64::from(*switch));
                push_u64_field(&mut out, "output", u64::from(*output));
            }
            EventKind::NetworkDiscarded {
                packet,
                stage,
                switch,
            } => {
                push_u64_field(&mut out, "packet", *packet);
                push_u64_field(&mut out, "stage", u64::from(*stage));
                push_u64_field(&mut out, "switch", u64::from(*switch));
            }
            EventKind::Delivered { packet, sink } => {
                push_u64_field(&mut out, "packet", *packet);
                push_u64_field(&mut out, "sink", u64::from(*sink));
            }
            EventKind::HolBlocked {
                stage,
                switch,
                blocked,
            } => {
                push_u64_field(&mut out, "stage", u64::from(*stage));
                push_u64_field(&mut out, "switch", u64::from(*switch));
                push_u64_field(&mut out, "blocked", u64::from(*blocked));
            }
            EventKind::SlotKilled {
                stage,
                switch,
                input,
            } => {
                push_u64_field(&mut out, "stage", u64::from(*stage));
                push_u64_field(&mut out, "switch", u64::from(*switch));
                push_u64_field(&mut out, "input", u64::from(*input));
            }
            EventKind::LinkDown {
                stage,
                switch,
                input,
                until,
            } => {
                push_u64_field(&mut out, "stage", u64::from(*stage));
                push_u64_field(&mut out, "switch", u64::from(*switch));
                push_u64_field(&mut out, "input", u64::from(*input));
                push_u64_field(&mut out, "until", *until);
            }
            EventKind::CorruptDropped { packet, sink }
            | EventKind::Misrouted { packet, sink }
            | EventKind::Recirculated { packet, sink } => {
                push_u64_field(&mut out, "packet", *packet);
                push_u64_field(&mut out, "sink", u64::from(*sink));
            }
            EventKind::Retransmit {
                packet,
                stage,
                switch,
                attempt,
                seq,
            } => {
                push_u64_field(&mut out, "packet", *packet);
                push_u64_field(&mut out, "stage", u64::from(*stage));
                push_u64_field(&mut out, "switch", u64::from(*switch));
                push_u64_field(&mut out, "attempt", u64::from(*attempt));
                push_u64_field(&mut out, "seq", *seq);
            }
            EventKind::GaveUp {
                packet,
                stage,
                switch,
                attempts,
            } => {
                push_u64_field(&mut out, "packet", *packet);
                push_u64_field(&mut out, "stage", u64::from(*stage));
                push_u64_field(&mut out, "switch", u64::from(*switch));
                push_u64_field(&mut out, "attempts", u64::from(*attempts));
            }
            EventKind::Rerouted {
                packet,
                stage,
                switch,
                output,
            } => {
                push_u64_field(&mut out, "packet", *packet);
                push_u64_field(&mut out, "stage", u64::from(*stage));
                push_u64_field(&mut out, "switch", u64::from(*switch));
                push_u64_field(&mut out, "output", u64::from(*output));
            }
            EventKind::CycleSample {
                occupied,
                forwarded,
                buffer_occupancy,
                backlog,
                hol_blocked,
            } => {
                push_arr_field(&mut out, "occupied", occupied);
                push_arr_field(&mut out, "forwarded", forwarded);
                push_arr_field(&mut out, "buffer_occupancy", buffer_occupancy);
                push_u64_field(&mut out, "backlog", u64::from(*backlog));
                push_u64_field(&mut out, "hol_blocked", u64::from(*hol_blocked));
            }
        }
        out.push('}');
        out
    }

    /// Parses one JSONL line produced by [`Event::to_jsonl`].
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] on malformed input, unknown event types or
    /// missing fields.
    pub fn parse_jsonl(line: &str) -> Result<Event, ParseError> {
        let fields = parse_flat_object(line)?;
        let get = |key: &str| -> Result<&Value, ParseError> {
            fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| ParseError::new(format!("missing field '{key}'")))
        };
        let get_u64 = |key: &str| -> Result<u64, ParseError> {
            match get(key)? {
                Value::Int(v) => Ok(*v),
                _ => Err(ParseError::new(format!("field '{key}' is not an integer"))),
            }
        };
        let get_u32 = |key: &str| -> Result<u32, ParseError> {
            u32::try_from(get_u64(key)?)
                .map_err(|_| ParseError::new(format!("field '{key}' out of u32 range")))
        };
        let get_str = |key: &str| -> Result<String, ParseError> {
            match get(key)? {
                Value::Str(s) => Ok(s.clone()),
                _ => Err(ParseError::new(format!("field '{key}' is not a string"))),
            }
        };
        let get_arr = |key: &str| -> Result<Vec<u32>, ParseError> {
            match get(key)? {
                Value::Arr(items) => items
                    .iter()
                    .map(|&v| {
                        u32::try_from(v).map_err(|_| {
                            ParseError::new(format!("field '{key}' element out of u32 range"))
                        })
                    })
                    .collect(),
                _ => Err(ParseError::new(format!("field '{key}' is not an array"))),
            }
        };

        let cycle = get_u64("cycle")?;
        let kind = match get_str("type")?.as_str() {
            "run_meta" => EventKind::RunMeta {
                design: get_str("design")?,
                terminals: get_u32("terminals")?,
                radix: get_u32("radix")?,
                stages: get_u32("stages")?,
                slots: get_u32("slots")?,
                note: get_str("note")?,
            },
            "generated" => EventKind::Generated {
                packet: get_u64("packet")?,
                source: get_u32("source")?,
                dest: get_u32("dest")?,
            },
            "injected" => EventKind::Injected {
                packet: get_u64("packet")?,
                source: get_u32("source")?,
            },
            "entry_discarded" => EventKind::EntryDiscarded {
                packet: get_u64("packet")?,
                source: get_u32("source")?,
            },
            "forwarded" => EventKind::Forwarded {
                packet: get_u64("packet")?,
                stage: get_u32("stage")?,
                switch: get_u32("switch")?,
                output: get_u32("output")?,
            },
            "network_discarded" => EventKind::NetworkDiscarded {
                packet: get_u64("packet")?,
                stage: get_u32("stage")?,
                switch: get_u32("switch")?,
            },
            "delivered" => EventKind::Delivered {
                packet: get_u64("packet")?,
                sink: get_u32("sink")?,
            },
            "hol_blocked" => EventKind::HolBlocked {
                stage: get_u32("stage")?,
                switch: get_u32("switch")?,
                blocked: get_u32("blocked")?,
            },
            "slot_killed" => EventKind::SlotKilled {
                stage: get_u32("stage")?,
                switch: get_u32("switch")?,
                input: get_u32("input")?,
            },
            "link_down" => EventKind::LinkDown {
                stage: get_u32("stage")?,
                switch: get_u32("switch")?,
                input: get_u32("input")?,
                until: get_u64("until")?,
            },
            "corrupt_dropped" => EventKind::CorruptDropped {
                packet: get_u64("packet")?,
                sink: get_u32("sink")?,
            },
            "misrouted" => EventKind::Misrouted {
                packet: get_u64("packet")?,
                sink: get_u32("sink")?,
            },
            "retransmit" => EventKind::Retransmit {
                packet: get_u64("packet")?,
                stage: get_u32("stage")?,
                switch: get_u32("switch")?,
                attempt: get_u32("attempt")?,
                seq: get_u64("seq")?,
            },
            "gave_up" => EventKind::GaveUp {
                packet: get_u64("packet")?,
                stage: get_u32("stage")?,
                switch: get_u32("switch")?,
                attempts: get_u32("attempts")?,
            },
            "rerouted" => EventKind::Rerouted {
                packet: get_u64("packet")?,
                stage: get_u32("stage")?,
                switch: get_u32("switch")?,
                output: get_u32("output")?,
            },
            "recirculated" => EventKind::Recirculated {
                packet: get_u64("packet")?,
                sink: get_u32("sink")?,
            },
            "cycle_sample" => EventKind::CycleSample {
                occupied: get_arr("occupied")?,
                forwarded: get_arr("forwarded")?,
                buffer_occupancy: get_arr("buffer_occupancy")?,
                backlog: get_u32("backlog")?,
                hol_blocked: get_u32("hol_blocked")?,
            },
            other => return Err(ParseError::new(format!("unknown event type '{other}'"))),
        };
        Ok(Event { cycle, kind })
    }

    /// Parses a whole JSONL document (one event per non-empty line).
    ///
    /// # Errors
    ///
    /// Returns the first [`ParseError`], annotated with its line number.
    pub fn parse_trace(text: &str) -> Result<Vec<Event>, ParseError> {
        text.lines()
            .enumerate()
            .filter(|(_, line)| !line.trim().is_empty())
            .map(|(i, line)| {
                Event::parse_jsonl(line)
                    .map_err(|e| ParseError::new(format!("line {}: {}", i + 1, e.message)))
            })
            .collect()
    }

    /// Like [`parse_trace`](Event::parse_trace), but tolerates a **torn
    /// tail**: a malformed *final* non-empty line — the signature of a
    /// writer killed mid-append — is dropped, and its [`ParseError`] is
    /// returned alongside the well-formed prefix so callers can report
    /// the truncation. Empty input parses as an empty trace.
    ///
    /// # Errors
    ///
    /// A malformed line anywhere *before* the final one is still a hard
    /// error: that is corruption, not truncation.
    pub fn parse_trace_tolerant(
        text: &str,
    ) -> Result<(Vec<Event>, Option<ParseError>), ParseError> {
        let lines: Vec<(usize, &str)> = text
            .lines()
            .enumerate()
            .filter(|(_, line)| !line.trim().is_empty())
            .collect();
        let mut events = Vec::with_capacity(lines.len());
        for (at, &(i, line)) in lines.iter().enumerate() {
            match Event::parse_jsonl(line) {
                Ok(event) => events.push(event),
                Err(e) => {
                    let err = ParseError::new(format!("line {}: {}", i + 1, e.message));
                    if at + 1 == lines.len() {
                        return Ok((events, Some(err)));
                    }
                    return Err(err);
                }
            }
        }
        Ok((events, None))
    }
}

/// Error from [`Event::parse_jsonl`] / [`Event::parse_trace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    message: String,
}

impl ParseError {
    fn new(message: impl Into<String>) -> Self {
        ParseError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

/// A parsed flat-JSON value (the subset the writer emits).
#[derive(Debug, Clone, PartialEq, Eq)]
enum Value {
    Int(u64),
    Str(String),
    Arr(Vec<u64>),
}

/// Parses a one-level JSON object of string / unsigned-integer /
/// integer-array values into key order-preserving pairs.
fn parse_flat_object(line: &str) -> Result<Vec<(String, Value)>, ParseError> {
    let mut chars = line.trim().chars().peekable();
    let mut fields = Vec::new();
    if chars.next() != Some('{') {
        return Err(ParseError::new("expected '{'"));
    }
    loop {
        match chars.peek() {
            Some('}') => {
                chars.next();
                break;
            }
            Some(',') => {
                chars.next();
            }
            Some('"') => {}
            Some(c) => return Err(ParseError::new(format!("unexpected character '{c}'"))),
            None => return Err(ParseError::new("unterminated object")),
        }
        if chars.peek() != Some(&'"') {
            continue;
        }
        let key = parse_string(&mut chars)?;
        if chars.next() != Some(':') {
            return Err(ParseError::new(format!("missing ':' after key '{key}'")));
        }
        let value = match chars.peek() {
            Some('"') => Value::Str(parse_string(&mut chars)?),
            Some('[') => {
                chars.next();
                let mut items = Vec::new();
                loop {
                    match chars.peek() {
                        Some(']') => {
                            chars.next();
                            break;
                        }
                        Some(',') => {
                            chars.next();
                        }
                        Some(c) if c.is_ascii_digit() => items.push(parse_int(&mut chars)?),
                        _ => return Err(ParseError::new("malformed array")),
                    }
                }
                Value::Arr(items)
            }
            Some(c) if c.is_ascii_digit() => Value::Int(parse_int(&mut chars)?),
            _ => return Err(ParseError::new(format!("malformed value for key '{key}'"))),
        };
        fields.push((key, value));
    }
    Ok(fields)
}

fn parse_string(
    chars: &mut std::iter::Peekable<std::str::Chars<'_>>,
) -> Result<String, ParseError> {
    if chars.next() != Some('"') {
        return Err(ParseError::new("expected '\"'"));
    }
    let mut out = String::new();
    loop {
        match chars.next() {
            Some('"') => return Ok(out),
            Some('\\') => match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('t') => out.push('\t'),
                Some('u') => {
                    let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                    let code = u32::from_str_radix(&hex, 16)
                        .map_err(|_| ParseError::new("bad \\u escape"))?;
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                }
                _ => return Err(ParseError::new("bad escape sequence")),
            },
            Some(c) => out.push(c),
            None => return Err(ParseError::new("unterminated string")),
        }
    }
}

fn parse_int(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Result<u64, ParseError> {
    let mut value: u64 = 0;
    let mut any = false;
    while let Some(c) = chars.peek() {
        let Some(digit) = c.to_digit(10) else { break };
        value = value
            .checked_mul(10)
            .and_then(|v| v.checked_add(u64::from(digit)))
            .ok_or_else(|| ParseError::new("integer overflow"))?;
        any = true;
        chars.next();
    }
    if any {
        Ok(value)
    } else {
        Err(ParseError::new("expected digits"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(event: Event) {
        let line = event.to_jsonl();
        let parsed = Event::parse_jsonl(&line).expect("round trip");
        assert_eq!(parsed, event, "line was: {line}");
    }

    #[test]
    fn every_kind_round_trips() {
        round_trip(Event::new(
            0,
            EventKind::RunMeta {
                design: "DAMQ".into(),
                terminals: 64,
                radix: 4,
                stages: 3,
                slots: 4,
                note: "hot-spot 10% \"quoted\"\nline".into(),
            },
        ));
        round_trip(Event::new(
            7,
            EventKind::Generated {
                packet: 42,
                source: 3,
                dest: 61,
            },
        ));
        round_trip(Event::new(
            7,
            EventKind::Injected {
                packet: 42,
                source: 3,
            },
        ));
        round_trip(Event::new(
            8,
            EventKind::EntryDiscarded {
                packet: 43,
                source: 9,
            },
        ));
        round_trip(Event::new(
            9,
            EventKind::Forwarded {
                packet: 42,
                stage: 1,
                switch: 15,
                output: 2,
            },
        ));
        round_trip(Event::new(
            9,
            EventKind::NetworkDiscarded {
                packet: 44,
                stage: 2,
                switch: 0,
            },
        ));
        round_trip(Event::new(
            11,
            EventKind::Delivered {
                packet: 42,
                sink: 61,
            },
        ));
        round_trip(Event::new(
            12,
            EventKind::HolBlocked {
                stage: 0,
                switch: 3,
                blocked: 2,
            },
        ));
        round_trip(Event::new(
            13,
            EventKind::SlotKilled {
                stage: 1,
                switch: 2,
                input: 3,
            },
        ));
        round_trip(Event::new(
            14,
            EventKind::LinkDown {
                stage: 0,
                switch: 1,
                input: 2,
                until: 40,
            },
        ));
        round_trip(Event::new(
            15,
            EventKind::CorruptDropped {
                packet: 45,
                sink: 12,
            },
        ));
        round_trip(Event::new(
            16,
            EventKind::Misrouted {
                packet: 46,
                sink: 13,
            },
        ));
        round_trip(Event::new(
            17,
            EventKind::Retransmit {
                packet: 47,
                stage: 1,
                switch: 2,
                attempt: 1,
                seq: 9,
            },
        ));
        round_trip(Event::new(
            18,
            EventKind::GaveUp {
                packet: 47,
                stage: 1,
                switch: 2,
                attempts: 3,
            },
        ));
        round_trip(Event::new(
            19,
            EventKind::Rerouted {
                packet: 48,
                stage: 0,
                switch: 3,
                output: 2,
            },
        ));
        round_trip(Event::new(
            20,
            EventKind::Recirculated {
                packet: 48,
                sink: 14,
            },
        ));
        round_trip(Event::new(
            12,
            EventKind::CycleSample {
                occupied: vec![10, 4, 0],
                forwarded: vec![3, 2, 1],
                buffer_occupancy: vec![40, 6, 2, 0, 0],
                backlog: 5,
                hol_blocked: 2,
            },
        ));
    }

    #[test]
    fn encoding_is_stable() {
        let e = Event::new(
            3,
            EventKind::Forwarded {
                packet: 5,
                stage: 0,
                switch: 1,
                output: 2,
            },
        );
        assert_eq!(
            e.to_jsonl(),
            r#"{"type":"forwarded","cycle":3,"packet":5,"stage":0,"switch":1,"output":2}"#
        );
    }

    #[test]
    fn parse_trace_skips_blank_lines_and_reports_line_numbers() {
        let text = "\n{\"type\":\"injected\",\"cycle\":1,\"packet\":0,\"source\":0}\n\n";
        let events = Event::parse_trace(text).unwrap();
        assert_eq!(events.len(), 1);
        let err = Event::parse_trace("{\"type\":\"nope\",\"cycle\":1}").unwrap_err();
        assert!(err.to_string().contains("line 1"));
    }

    #[test]
    fn tolerant_parse_drops_a_truncated_final_line() {
        // A writer killed mid-append leaves a torn tail: a valid prefix
        // followed by one malformed final line.
        let torn =
            "{\"type\":\"injected\",\"cycle\":1,\"packet\":0,\"source\":0}\n{\"type\":\"inje";
        let (events, tail) = Event::parse_trace_tolerant(torn).unwrap();
        assert_eq!(events.len(), 1);
        let tail = tail.expect("torn tail reported");
        assert!(tail.to_string().contains("line 2"));
    }

    #[test]
    fn tolerant_parse_still_rejects_mid_trace_corruption() {
        let corrupt = "garbage\n{\"type\":\"injected\",\"cycle\":1,\"packet\":0,\"source\":0}";
        let err = Event::parse_trace_tolerant(corrupt).unwrap_err();
        assert!(err.to_string().contains("line 1"));
    }

    #[test]
    fn tolerant_parse_accepts_empty_and_clean_traces() {
        let (events, tail) = Event::parse_trace_tolerant("").unwrap();
        assert!(events.is_empty());
        assert!(tail.is_none());
        let clean = "{\"type\":\"injected\",\"cycle\":1,\"packet\":0,\"source\":0}\n";
        let (events, tail) = Event::parse_trace_tolerant(clean).unwrap();
        assert_eq!(events.len(), 1);
        assert!(tail.is_none());
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(Event::parse_jsonl("not json").is_err());
        assert!(Event::parse_jsonl("{\"type\":\"injected\",\"cycle\":1}").is_err()); // missing fields
        assert!(Event::parse_jsonl("{\"type\":\"injected\",\"cycle\":-1}").is_err());
        // negative
    }

    #[test]
    fn packet_accessor_covers_lifecycle_kinds() {
        assert_eq!(
            EventKind::Delivered { packet: 9, sink: 0 }.packet(),
            Some(9)
        );
        assert_eq!(
            EventKind::HolBlocked {
                stage: 0,
                switch: 0,
                blocked: 1
            }
            .packet(),
            None
        );
    }
}
