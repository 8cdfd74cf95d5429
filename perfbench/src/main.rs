//! Host-time benchmark of the DAMQ network simulator.
//!
//! ```text
//! damq-perfbench --workload <name> --seconds <s> [--seed <n>] [--trace <0|1>]
//! damq-perfbench --smoke [--seed <n>]
//! ```
//!
//! The run length has no default: `BENCHMARK.json`'s `run_seconds` is
//! the one length the benchmark's spreads and bounds were measured at.
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` is the separate traced run that reports the per-layer
//! metrics. `--smoke` runs both on every workload for a few hundred
//! cycles with every correctness check on and exits non-zero if any
//! fails. Every run ends with one JSON line: `correct`, `attempted`,
//! `failed` and `metrics`.

mod layers;
mod measure;
mod report;
mod workload;

use std::process::ExitCode;
use std::time::Duration;

use damq_net::TrafficPattern;

use layers::{drive_core, drive_switch, SwitchLoad};
use measure::{run_series, Block, Counts, Rep, Series};
use report::{
    central, design_name, layer_metrics, quantile, Metric, Outcome, END_TO_END, NOT_GATED,
};
use workload::{mix, SimSpec, Workload, DEFAULT_SEED, DESIGNS, HELD_OUT_SEED};

const USAGE: &str = "usage: damq-perfbench --workload <hotspot64|uniform1024|faulted64|designs64> \
--seconds <s> [--seed <n>] [--trace <0|1>]\n       damq-perfbench --smoke [--seed <n>]";

/// Every host-time end-to-end figure reads the fastest decile of a run's
/// samples: of its blocks for the step figures, of its timed builds for
/// `setup_s`. A shared host alternates between fast and slow phases that
/// stretch a step or a build by up to 1.9x; hundreds of samples spread
/// over the run catch the fast phases, where their median moves with the
/// run's mix of phases.
const FAST_DECILE: f64 = 0.1;
/// Shares of a traced run's budget: the untraced/traced network
/// repetitions, then the switch and core rigs.
const TRACE_NET_SHARE: f64 = 0.6;
const TRACE_RIG_SHARE: f64 = 0.15;

#[derive(Debug, PartialEq)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
    };
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            parsed.smoke = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                parsed.workload =
                    Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?);
            }
            "--seed" => {
                parsed.seed = value
                    .parse()
                    .map_err(|_| bad("expected an unsigned integer"))?
            }
            "--seconds" => {
                parsed.seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                        .ok_or_else(|| bad("expected seconds in (0, 3600]"))?,
                );
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                };
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if parsed.workload.is_none() && !parsed.smoke {
        return Err("--workload or --smoke is required".to_string());
    }
    if parsed.workload.is_some() && !parsed.smoke && parsed.seconds.is_none() {
        return Err("--workload needs --seconds".to_string());
    }
    Ok(parsed)
}

/// The end-to-end run: tracing off, repetitions for `seconds`.
fn end_to_end(w: Workload, seed: u64, seconds: f64, smoke: bool) -> Result<Outcome, String> {
    let lengths = w.lengths(smoke);
    let specs = w.specs(seed, lengths);
    let budget = Duration::from_secs_f64(seconds);
    let mut setups = Vec::new();
    let Series {
        attempted,
        failed,
        reps,
    } = run_series(w, &specs, lengths, &[false], budget, &mut setups).remove(0);
    let of_blocks = |f: fn(&Block) -> f64| {
        reps.iter()
            .flat_map(|r| r.blocks.iter().map(f))
            .collect::<Vec<_>>()
    };
    println!(
        "# {}: seed {seed}, {} passing repetitions of {} measured cycles (+{} warm-up) x {} sims, \
         {} timed setups",
        w.name(),
        reps.len(),
        lengths.measured,
        lengths.warm_up,
        specs.len(),
        setups.len()
    );
    let values = [
        quantile(&mut of_blocks(|b| b.cycles_per_sec), 1.0 - FAST_DECILE),
        quantile(&mut of_blocks(|b| b.step_p50_ns), FAST_DECILE) / 1e3,
        quantile(&mut of_blocks(|b| b.step_p90_ns), FAST_DECILE) / 1e3,
        quantile(&mut setups, FAST_DECILE) / 1e9,
        report::peak_rss_mb()?,
    ];
    Ok(Outcome {
        attempted,
        failed,
        metrics: END_TO_END
            .into_iter()
            .zip(values)
            .map(|((name, unit, gated), value)| Metric {
                name: name.to_string(),
                value,
                unit,
                note: if gated { "" } else { NOT_GATED },
                in_result: gated,
            })
            .collect(),
    })
}

/// Sum of every simulation's counts in one repetition.
fn pooled(rep: &Rep) -> Counts {
    rep.sims.iter().fold(Counts::default(), |a, s| {
        let c = s.counts;
        Counts {
            cycles: a.cycles + c.cycles,
            generated: a.generated + c.generated,
            injected: a.injected + c.injected,
            delivered: a.delivered + c.delivered,
            discarded: a.discarded + c.discarded,
            route_queries: a.route_queries + c.route_queries,
            idle_skipped: a.idle_skipped + c.idle_skipped,
            link_dropped: a.link_dropped + c.link_dropped,
            backlog: a.backlog + c.backlog,
            busiest_sink: a.busiest_sink.max(c.busiest_sink),
        }
    })
}

/// The traced run: untraced and traced repetitions in rotation (their
/// exact counts must agree), then the standalone switch and core rigs
/// loaded from the traced counts.
fn traced(w: Workload, seed: u64, seconds: f64, smoke: bool) -> Result<Outcome, String> {
    let lengths = w.lengths(smoke);
    let specs = w.specs(seed, lengths);
    let budget = Duration::from_secs_f64(seconds * TRACE_NET_SHARE);
    let mut setups = Vec::new();
    let mut series = run_series(w, &specs, lengths, &[false, true], budget, &mut setups);
    let (plain, traced) = (series.remove(0), series.remove(0));
    let attempted = plain.attempted + traced.attempted;
    let failed = plain.failed + traced.failed;
    let (Some(first), Some(_)) = (traced.reps.first(), plain.reps.first()) else {
        return Ok(Outcome {
            attempted,
            failed,
            metrics: Vec::new(),
        });
    };
    let registry: Vec<_> = first
        .sims
        .iter()
        .map(|s| s.traced.expect("traced repetitions read the registry"))
        .collect();
    let sims = specs.len() as f64;
    let total = pooled(first);
    let per_cycle = |n: u64| n as f64 / total.cycles as f64;
    let switch_cycles: u64 =
        specs.iter().map(|s| s.switches() as u64).sum::<u64>() * lengths.measured;
    let hop_ns: Vec<f64> = plain
        .reps
        .iter()
        .map(|r| r.window().as_nanos() as f64 / pooled(r).route_queries.max(1) as f64)
        .collect();
    let audit_ns: Vec<f64> = plain
        .reps
        .iter()
        .chain(&traced.reps)
        .flat_map(|r| r.sims.iter().map(|s| s.audit.as_nanos() as f64))
        .collect();
    let plain_rate = central(
        &plain
            .reps
            .iter()
            .map(Rep::cycles_per_sec)
            .collect::<Vec<_>>(),
    );
    let traced_rate = central(
        &traced
            .reps
            .iter()
            .map(Rep::cycles_per_sec)
            .collect::<Vec<_>>(),
    );

    let mut values: Vec<f64> = vec![
        quantile(&mut setups, FAST_DECILE),
        central(&audit_ns),
        central(&hop_ns),
        per_cycle(total.generated),
        per_cycle(total.injected),
        per_cycle(total.delivered),
        per_cycle(total.discarded),
        total.idle_skipped as f64 / switch_cycles as f64,
        per_cycle(total.route_queries),
        total.backlog as f64,
        per_cycle(registry.iter().map(|t| t.retransmits).sum()),
        per_cycle(registry.iter().map(|t| t.retry_exhausted).sum()),
        per_cycle(registry.iter().map(|t| t.rerouted).sum()),
        per_cycle(registry.iter().map(|t| t.recirculated).sum()),
        per_cycle(total.link_dropped),
        registry
            .iter()
            .map(|t| t.network_latency_p50 as f64)
            .sum::<f64>()
            / sims,
        registry
            .iter()
            .map(|t| t.network_latency_p99 as f64)
            .sum::<f64>()
            / sims,
    ];

    // The switch rig: each simulation's design under its own load,
    // pooled as a mean over the simulations.
    let rig_budget = Duration::from_secs_f64(seconds * TRACE_RIG_SHARE / sims);
    let mut sw = [0.0; 5];
    for (i, (spec, (run, tr))) in specs
        .iter()
        .zip(first.sims.iter().zip(&registry))
        .enumerate()
    {
        let c = run.counts;
        let load = SwitchLoad {
            kind: spec.config.kind(),
            flow: spec.config.flow(),
            arrival: c.route_queries as f64
                / (c.cycles * (spec.stages() * spec.config.size()) as u64) as f64,
            hot_share: match spec.config.pattern() {
                TrafficPattern::HotSpot { .. } => c.busiest_sink as f64 / c.delivered.max(1) as f64,
                _ => 0.0,
            },
            refusal: tr.full_share,
        };
        let r = drive_switch(load, mix(seed ^ 0x5717 ^ i as u64), rig_budget);
        for (acc, v) in sw.iter_mut().zip([
            r.transmit_ns,
            r.receive_ns,
            r.accept_ns,
            r.departures_per_cycle,
            r.refused_share,
        ]) {
            *acc += v / sims;
        }
    }
    values.extend(sw);

    // The core rig: every design at the mean occupancy its buffers had
    // in this workload (its own simulation on designs64, every
    // simulation's where the workload does not run the design).
    let mean_occupancy = |of: &dyn Fn(&SimSpec) -> bool| {
        let seen: Vec<f64> = specs
            .iter()
            .zip(&registry)
            .filter(|(s, _)| of(s))
            .map(|(_, t)| t.occupancy)
            .collect();
        (!seen.is_empty()).then(|| seen.iter().sum::<f64>() / seen.len() as f64)
    };
    let core_budget = Duration::from_secs_f64(seconds * TRACE_RIG_SHARE / DESIGNS.len() as f64);
    for (i, kind) in DESIGNS.into_iter().enumerate() {
        let occupancy = mean_occupancy(&|s| s.config.kind() == kind)
            .or_else(|| mean_occupancy(&|_| true))
            .expect("every workload builds at least one simulation");
        let r = drive_core(kind, occupancy, mix(seed ^ 0xC0DE ^ i as u64), core_budget);
        values.extend([
            r.enqueue_ns,
            r.dequeue_ns,
            r.front_meta_ns,
            r.queue_lens_ns,
            r.accept_capacity_ns,
            r.reject_share,
        ]);
    }
    values.push(1.0 - traced_rate / plain_rate);

    let metrics = layer_metrics();
    assert_eq!(
        metrics.len(),
        values.len(),
        "one value per per-layer metric"
    );
    println!(
        "# {}: seed {seed}, {} untraced + {} traced passing repetitions of {} measured cycles x {} sims; \
         untraced {plain_rate:.1} cycles/s, traced {traced_rate:.1} cycles/s",
        w.name(),
        plain.reps.len(),
        traced.reps.len(),
        lengths.measured,
        specs.len(),
    );
    println!(
        "# {}: exact counts {}",
        w.name(),
        first
            .sims
            .iter()
            .zip(&specs)
            .map(|(s, spec)| format!("{}={:?}", design_name(spec.config.kind()), s.counts))
            .collect::<Vec<_>>()
            .join(" ")
    );
    Ok(Outcome {
        attempted,
        failed,
        metrics: metrics
            .into_iter()
            .zip(values)
            .map(|(m, value)| Metric {
                name: m.name,
                value,
                unit: m.unit,
                note: m.moves,
                in_result: true,
            })
            .collect(),
    })
}

/// Both runs on every workload at smoke length; fails on any failed check.
fn smoke(seed: u64) -> Result<Outcome, String> {
    let mut all = Outcome::default();
    for w in Workload::ALL {
        for run in [end_to_end, traced] {
            let o = run(w, seed, 0.05, true)?;
            o.print_table(w.name());
            if o.metrics.is_empty() {
                all.failed += 1;
            }
            all.attempted += o.attempted;
            all.failed += o.failed;
        }
    }
    Ok(all)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("# host: {}", report::host_record());
    println!(
        "# seed {} (default {DEFAULT_SEED}, held-out {HELD_OUT_SEED})",
        args.seed
    );
    let outcome = match (args.workload, args.seconds) {
        _ if args.smoke => smoke(args.seed),
        (Some(w), Some(s)) if args.trace => traced(w, args.seed, s, false),
        (Some(w), Some(s)) => end_to_end(w, args.seed, s, false),
        _ => unreachable!("parse_args requires --smoke, or --workload with --seconds"),
    };
    match outcome {
        Ok(o) => {
            if let Some(w) = args.workload.filter(|_| !args.smoke) {
                o.print_table(w.name());
            }
            println!("{}", o.json());
            // A measured run reports failed checks in its result line; the
            // smoke run is a pass/fail gate of its own.
            if o.correct() || !args.smoke {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload hotspot64 --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Some(Workload::Hotspot64));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.smoke),
            (7, Some(10.0), true, false)
        );
        assert_eq!(args("--smoke").unwrap().seed, DEFAULT_SEED);
        for bad in [
            "",
            "--workload hit",
            "--workload hotspot64 --seed 7",
            "--workload designs64 --trace 2",
            "--seconds 0 --smoke",
            "--seed -1 --smoke",
        ] {
            assert!(args(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn smoke_passes_on_the_default_and_held_out_seeds() {
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            let o = smoke(seed).expect("smoke runs");
            assert!(
                o.correct(),
                "seed {seed}: {}/{} failed",
                o.failed,
                o.attempted
            );
        }
    }
}
