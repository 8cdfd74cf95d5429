//! One repetition of a workload: build each simulation, warm it up, step
//! the measured window with every `step()` timed, then check the result.
//!
//! The host side is a closed loop (one `step()` starts when the previous
//! one returns); the simulated sources are an open loop (Bernoulli
//! arrivals into unbounded source queues at the configured load).

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use damq_core::FaultPlan;
use damq_net::{NetworkSim, TrafficPattern};
use damq_telemetry::{LogHistogram, MetricsRegistry};

use crate::report::quantile;
use crate::workload::{Lengths, SimSpec, Workload, SLOTS};

/// Allowed excess of delivered throughput over the hot-spot bound
/// 1/(1+h(N-1)), per terminal per cycle.
const HOT_SPOT_TOLERANCE: f64 = 0.02;

/// Allowed relative gap between delivered and offered load on
/// `uniform1024`, which runs below saturation.
const UNIFORM_TOLERANCE: f64 = 0.05;

/// Exact counts of one simulation's measured window, read through the
/// simulator's public accessors. Identical for every run of one seed,
/// traced or not: this is the behaviour fingerprint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Cycles in the measured window.
    pub cycles: u64,
    /// Packets generated at the sources.
    pub generated: u64,
    /// Packets injected into stage 0.
    pub injected: u64,
    /// Packets delivered to their destination.
    pub delivered: u64,
    /// Packets discarded: at entry, in the network, and to faults.
    pub discarded: u64,
    /// Route-plan queries, one per forwarded packet-hop.
    pub route_queries: u64,
    /// Switch-cycles advanced by the idle-skip fast path.
    pub idle_skipped: u64,
    /// Packets lost to dead links (fault ledger).
    pub link_dropped: u64,
    /// Packets waiting at the sources when the window ends.
    pub backlog: u64,
    /// Deliveries to the busiest sink.
    pub busiest_sink: u64,
}

/// Registry readings of a traced window (`with_metrics()` on).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Traced {
    /// Link-level resend attempts.
    pub retransmits: u64,
    /// Parked packets given up after their retries.
    pub retry_exhausted: u64,
    /// Packets deflected through an alternate output.
    pub rerouted: u64,
    /// Wrong-sink arrivals recirculated.
    pub recirculated: u64,
    /// Median injection-to-sink latency, cycles (whole rep).
    pub network_latency_p50: u64,
    /// 99th-percentile injection-to-sink latency, cycles (whole rep).
    pub network_latency_p99: u64,
    /// Mean occupied slots per buffer, sampled every cycle (whole rep).
    pub occupancy: f64,
    /// Share of buffer-cycles with every slot occupied (whole rep).
    pub full_share: f64,
}

/// One simulation's measured window.
#[derive(Debug, Clone, Copy)]
pub struct SimRun {
    /// The exact counts.
    pub counts: Counts,
    /// Registry readings, for a traced run.
    pub traced: Option<Traced>,
    /// Host time of the measured window.
    pub window: Duration,
    /// Host time of the closing `audit()`.
    pub audit: Duration,
}

/// Blocks per repetition: block `k` holds the `k`-th tenth of every
/// simulation's measured window, so each block covers every simulation
/// of the workload.
pub const BLOCKS: usize = 10;

/// Host-time figures of one block of measured steps. The step-time
/// quantiles are taken within each simulation's part of the block and
/// averaged over the simulations, so every design (and every fault plan)
/// moves them, not only the slowest.
#[derive(Debug, Clone, Copy)]
pub struct Block {
    /// Steps in the block over their summed host time.
    pub cycles_per_sec: f64,
    /// Median host time of one step, ns, averaged over the simulations.
    pub step_p50_ns: f64,
    /// 90th percentile of the same samples, ns, averaged over the
    /// simulations.
    pub step_p90_ns: f64,
}

/// One repetition: every simulation of the workload, in order.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Per-simulation results.
    pub sims: Vec<SimRun>,
    /// The repetition's measured steps, cut into `BLOCKS` blocks.
    pub blocks: Vec<Block>,
}

impl Rep {
    /// The behaviour fingerprint: every simulation's exact counts.
    pub fn fingerprint(&self) -> Vec<Counts> {
        self.sims.iter().map(|s| s.counts).collect()
    }

    /// Measured cycles over all simulations.
    pub fn cycles(&self) -> u64 {
        self.sims.iter().map(|s| s.counts.cycles).sum()
    }

    /// Host time of all measured windows.
    pub fn window(&self) -> Duration {
        self.sims.iter().map(|s| s.window).sum()
    }

    /// Simulated cycles per host second over the measured windows.
    pub fn cycles_per_sec(&self) -> f64 {
        self.cycles() as f64 / self.window().as_secs_f64()
    }
}

/// Lifetime values read before and after the window.
struct Marks {
    route_queries: u64,
    idle_skipped: u64,
    link_dropped: u64,
    fault_dropped: u64,
    resident: u64,
    registry: [u64; 9],
}

/// Registry counters read as deltas over the window. The first four
/// must match the simulator's own window counts.
const REGISTRY_COUNTERS: [&str; 9] = [
    "net.generated",
    "net.injected",
    "net.delivered",
    "net.discarded_entry",
    "net.discarded_network",
    "net.retransmits",
    "net.retry_exhausted",
    "net.rerouted",
    "net.recirculated",
];

impl Marks {
    fn take(sim: &NetworkSim) -> Marks {
        let ledger = sim.fault_ledger();
        let registry = sim.metrics_registry();
        Marks {
            route_queries: sim.route_plan().route_queries(),
            idle_skipped: sim.idle_skipped_total(),
            link_dropped: ledger.link_dropped,
            fault_dropped: ledger.dropped(),
            resident: (sim.source_backlog() + sim.packets_in_flight() + sim.recovery_held()) as u64,
            registry: REGISTRY_COUNTERS.map(|name| counter(registry, name)),
        }
    }
}

fn counter(registry: &MetricsRegistry, name: &str) -> u64 {
    registry.counter_value(name).unwrap_or(0)
}

/// Share of a histogram's samples at or above `value`, read exactly
/// from its percentile ranks (small values have one bucket each).
fn share_at_least(h: &LogHistogram, value: u64) -> f64 {
    let n = h.count();
    if n == 0 {
        return 0.0;
    }
    // Smallest 1-based rank whose sample is >= value; n + 1 if none.
    let (mut lo, mut hi) = (1, n + 1);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if h.percentile((mid as f64 - 0.5) / n as f64) >= value {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    (n + 1 - lo) as f64 / n as f64
}

/// Share of each round's host time spent timing extra builds for
/// `setup_s`, taken between rounds so the samples span the whole run.
const SETUP_SHARE: f64 = 0.05;

/// Builds every simulation of `specs` once and returns the host time, ns.
/// Fault plans are cloned before the clock starts; the built sims are
/// dropped after it stops.
fn time_setup(specs: &[SimSpec]) -> f64 {
    let plans: Vec<Option<FaultPlan>> = specs.iter().map(|s| s.faults.clone()).collect();
    let start = Instant::now();
    let sims: Vec<NetworkSim> = specs.iter().zip(plans).map(|(s, p)| s.build(p)).collect();
    let elapsed = start.elapsed();
    drop(black_box(sims));
    elapsed.as_nanos() as f64
}

/// Steps one simulation through a repetition and checks it. Each
/// measured step's host time is appended to `steps` (ns).
fn run_sim(
    spec: &SimSpec,
    lengths: Lengths,
    traced: bool,
    steps: &mut Vec<f64>,
) -> Result<SimRun, String> {
    let mut sim = spec.build(spec.faults.clone());
    if traced {
        sim = sim.with_metrics();
    }
    sim.warm_up(lengths.warm_up);
    let before = Marks::take(&sim);
    let start = Instant::now();
    for _ in 0..lengths.measured {
        let t = Instant::now();
        sim.step();
        steps.push(t.elapsed().as_nanos() as f64);
    }
    let window = start.elapsed();
    let after = Marks::take(&sim);

    let t = Instant::now();
    let audit = sim.audit();
    let audit_time = t.elapsed();
    audit.map_err(|e| format!("audit failed: {e}"))?;

    let m = sim.metrics();
    let counts = Counts {
        cycles: m.cycles(),
        generated: m.generated(),
        injected: m.injected(),
        delivered: m.delivered(),
        discarded: m.discarded(),
        route_queries: after.route_queries - before.route_queries,
        idle_skipped: after.idle_skipped - before.idle_skipped,
        link_dropped: after.link_dropped - before.link_dropped,
        backlog: sim.source_backlog() as u64,
        busiest_sink: m.per_sink_delivered().iter().copied().max().unwrap_or(0),
    };
    if counts.cycles != lengths.measured {
        return Err(format!(
            "window counted {} cycles, stepped {}",
            counts.cycles, lengths.measured
        ));
    }
    // Packet tie-out over the window: what was resident at the start plus
    // what was generated is delivered, discarded, or still resident
    // (source backlog, in flight, or held for retransmission).
    if before.resident + counts.generated != counts.delivered + counts.discarded + after.resident {
        return Err(format!(
            "tie-out: resident {} + generated {} != delivered {} + discarded {} + resident {}",
            before.resident, counts.generated, counts.delivered, counts.discarded, after.resident
        ));
    }
    if after.fault_dropped - before.fault_dropped > counts.discarded {
        return Err("fault ledger drops exceed the window's discards".to_string());
    }
    if traced {
        let d = |i: usize| after.registry[i] - before.registry[i];
        let registry = [d(0), d(1), d(2), d(3) + d(4)];
        let own = [
            counts.generated,
            counts.injected,
            counts.delivered,
            counts.discarded,
        ];
        if registry != own {
            return Err(format!(
                "registry counts {registry:?} disagree with the window's {own:?}"
            ));
        }
    }
    let traced = traced.then(|| read_registry(&sim, &before, &after));
    Ok(SimRun {
        counts,
        traced,
        window,
        audit: audit_time,
    })
}

fn read_registry(sim: &NetworkSim, before: &Marks, after: &Marks) -> Traced {
    let registry = sim.metrics_registry();
    let d = |i: usize| after.registry[i] - before.registry[i];
    let latency = registry
        .histogram_named("net.network_latency_cycles")
        .expect("the simulator registers net.network_latency_cycles");
    let occupancy = registry
        .histogram_named("net.occupancy_slots")
        .expect("the simulator registers net.occupancy_slots");
    Traced {
        retransmits: d(5),
        retry_exhausted: d(6),
        rerouted: d(7),
        recirculated: d(8),
        network_latency_p50: latency.p50(),
        network_latency_p99: latency.p99(),
        occupancy: occupancy.mean(),
        full_share: share_at_least(occupancy, SLOTS as u64),
    }
}

/// Theory sanity on one simulation's window.
fn check_theory(spec: &SimSpec, counts: &Counts) -> Result<(), String> {
    let n = spec.config.size() as f64;
    let delivered = counts.delivered as f64 / (counts.cycles as f64 * n);
    match spec.config.pattern() {
        TrafficPattern::HotSpot { fraction, .. } => {
            let bound = 1.0 / (1.0 + fraction * (n - 1.0));
            if delivered > bound + HOT_SPOT_TOLERANCE {
                return Err(format!(
                    "delivered {delivered:.4}/terminal/cycle exceeds the hot-spot bound {bound:.4}"
                ));
            }
        }
        TrafficPattern::Uniform if spec.config.size() == 1024 => {
            let offered = spec.config.load();
            if (delivered - offered).abs() > UNIFORM_TOLERANCE * offered {
                return Err(format!(
                    "delivered {delivered:.4}/terminal/cycle is not within {:.0}% of offered {offered}",
                    UNIFORM_TOLERANCE * 100.0
                ));
            }
        }
        _ => {}
    }
    Ok(())
}

/// Runs one repetition of `specs`. Any panic, failed audit, tie-out,
/// registry disagreement or theory check fails the repetition. `steps`
/// is scratch for the step times, reused so that the benchmark's own
/// memory does not grow with the number of repetitions.
pub fn run_rep(
    specs: &[SimSpec],
    lengths: Lengths,
    traced: bool,
    steps: &mut Vec<f64>,
) -> Result<Rep, String> {
    steps.clear();
    let mut sims = Vec::with_capacity(specs.len());
    for spec in specs {
        let run = catch_unwind(AssertUnwindSafe(|| run_sim(spec, lengths, traced, steps)))
            .map_err(|panic| {
                let msg = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                format!("panicked: {msg}")
            })??;
        check_theory(spec, &run.counts)
            .map_err(|e| format!("{}: {e}", spec.config.kind().name()))?;
        sims.push(run);
    }
    let per_sim = lengths.measured as usize;
    let mut block = Vec::with_capacity(per_sim / BLOCKS + 1);
    let blocks = (0..BLOCKS)
        .map(|k| {
            let (mut count, mut time, mut p50, mut p90) = (0, 0.0, 0.0, 0.0);
            for window in steps.chunks_exact(per_sim) {
                block.clear();
                block.extend_from_slice(&window[k * per_sim / BLOCKS..(k + 1) * per_sim / BLOCKS]);
                count += block.len();
                time += block.iter().sum::<f64>();
                p50 += quantile(&mut block, 0.5);
                p90 += quantile(&mut block, 0.9);
            }
            let sims = specs.len() as f64;
            Block {
                cycles_per_sec: count as f64 / (time * 1e-9),
                step_p50_ns: p50 / sims,
                step_p90_ns: p90 / sims,
            }
        })
        .collect();
    Ok(Rep { sims, blocks })
}

/// Result of a time-boxed series of repetitions.
#[derive(Debug, Default)]
pub struct Series {
    /// Repetitions attempted.
    pub attempted: u64,
    /// Repetitions that failed a check (including fingerprint mismatch).
    pub failed: u64,
    /// The passing repetitions.
    pub reps: Vec<Rep>,
}

impl Series {
    /// Records one attempted repetition, checking its fingerprint
    /// against `reference` (set by the first passing repetition).
    pub fn record(
        &mut self,
        workload: Workload,
        outcome: Result<Rep, String>,
        reference: &mut Option<Vec<Counts>>,
    ) {
        self.attempted += 1;
        let checked = outcome.and_then(|rep| match reference {
            Some(r) if *r != rep.fingerprint() => Err(format!(
                "exact counts differ from the first run of this seed: {:?} vs {:?}",
                rep.fingerprint(),
                r
            )),
            _ => Ok(rep),
        });
        match checked {
            Ok(rep) => {
                reference.get_or_insert_with(|| rep.fingerprint());
                self.reps.push(rep);
            }
            Err(e) => {
                self.failed += 1;
                eprintln!(
                    "{}: repetition {} failed: {e}",
                    workload.name(),
                    self.attempted
                );
            }
        }
    }
}

/// Runs rounds of repetitions until `budget` has elapsed (at least one
/// round), untraced and traced as `modes` lists them. After each round
/// it times builds of the workload's simulations for `SETUP_SHARE` of
/// the round's time (at least one) and appends them to `setups` (ns).
pub fn run_series(
    workload: Workload,
    specs: &[SimSpec],
    lengths: Lengths,
    modes: &[bool],
    budget: Duration,
    setups: &mut Vec<f64>,
) -> Vec<Series> {
    let mut series: Vec<Series> = modes.iter().map(|_| Series::default()).collect();
    let mut reference = None;
    let start = Instant::now();
    let mut steps = Vec::with_capacity(lengths.measured as usize * specs.len());
    while setups.is_empty() || start.elapsed() < budget {
        let round = Instant::now();
        for (s, &traced) in series.iter_mut().zip(modes) {
            let outcome = run_rep(specs, lengths, traced, &mut steps);
            s.record(workload, outcome, &mut reference);
        }
        let setup_budget = round.elapsed().mul_f64(SETUP_SHARE);
        let setup_start = Instant::now();
        setups.push(time_setup(specs));
        while setup_start.elapsed() < setup_budget {
            setups.push(time_setup(specs));
        }
    }
    series
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{DEFAULT_SEED, HELD_OUT_SEED};

    fn fingerprint(w: Workload, seed: u64, traced: bool) -> Vec<Counts> {
        let lengths = w.lengths(true);
        let rep = run_rep(&w.specs(seed, lengths), lengths, traced, &mut Vec::new())
            .expect("smoke repetition passes its checks");
        rep.fingerprint()
    }

    #[test]
    fn tracing_and_repetition_leave_counts_identical() {
        for w in [Workload::Hotspot64, Workload::Faulted64] {
            let plain = fingerprint(w, DEFAULT_SEED, false);
            assert_eq!(plain, fingerprint(w, DEFAULT_SEED, false));
            assert_eq!(plain, fingerprint(w, DEFAULT_SEED, true));
            assert_ne!(plain, fingerprint(w, HELD_OUT_SEED, false));
        }
    }

    #[test]
    fn a_mismatched_fingerprint_fails_the_repetition() {
        let w = Workload::Hotspot64;
        let lengths = w.lengths(true);
        let specs = w.specs(DEFAULT_SEED, lengths);
        let mut reference = Some(fingerprint(w, HELD_OUT_SEED, false));
        let mut series = Series::default();
        let rep = run_rep(&specs, lengths, false, &mut Vec::new());
        series.record(w, rep, &mut reference);
        assert_eq!((series.attempted, series.failed), (1, 1));
    }

    #[test]
    fn full_share_reads_exact_ranks() {
        let mut h = LogHistogram::new();
        for v in [0, 1, 4, 4, 2, 4, 3, 0] {
            h.observe(v);
        }
        assert_eq!(share_at_least(&h, 4), 3.0 / 8.0);
        assert_eq!(share_at_least(&h, 0), 1.0);
        assert_eq!(share_at_least(&h, 5), 0.0);
    }
}
