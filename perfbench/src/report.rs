//! Metric names and units, summary statistics, the host record, and the
//! result line the benchmark ends with.

use damq_core::BufferKind;

use crate::workload::DESIGNS;

/// The end-to-end metrics, all measured with tracing off: `(name, unit,
/// gated)`. Gated ones go into the result line and `BENCHMARK.json`; the
/// others are printed in the table only, because fast and slow phases of
/// a shared host move them by more than any usable bound (README).
pub const END_TO_END: [(&str, &str, bool); 5] = [
    ("cycles_per_sec", "cycles/s", false),
    ("step_us_p50", "us", false),
    ("step_us_p90", "us", false),
    ("setup_s", "s", true),
    ("peak_rss_mb", "MiB", true),
];

/// Table note of an end-to-end metric left out of the result line.
pub const NOT_GATED: &str = "printed only: moves with host phases (README)";

/// One per-layer metric of the traced run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerMetric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Which direction is better.
    pub better: &'static str,
    /// The end-to-end metric and workload it should move.
    pub moves: &'static str,
}

const FINGERPRINT: &str =
    "no end-to-end metric: exact behaviour fingerprint, identical under any simulator-only change";
const RECOVERY: &str =
    "cycles_per_sec and step_us_p90 on faulted64 (timeouts fire in bursts); zero elsewhere";
const SIMULATED: &str = "no end-to-end metric: simulated time, exact";

/// Core buffer operations timed per design, as metric-name stems.
pub const CORE_OPS: [&str; 5] = [
    "enqueue_ns",
    "dequeue_ns",
    "front_meta_ns",
    "queue_lens_ns",
    "accept_capacity_ns",
];

/// Lower-case design name used in metric names.
pub fn design_name(kind: BufferKind) -> String {
    kind.name().to_ascii_lowercase()
}

/// Every per-layer metric, in the order the traced run prints them.
pub fn layer_metrics() -> Vec<LayerMetric> {
    let m = |name: &str, unit, better, moves| LayerMetric {
        name: name.to_string(),
        unit,
        better,
        moves,
    };
    let mut all = vec![
        m(
            "net.setup_ns",
            "ns",
            "lower",
            "setup_s on uniform1024; negligible on the 64-terminal workloads",
        ),
        m(
            "net.audit_ns",
            "ns",
            "lower",
            "no end-to-end metric: the closing audit runs outside the measured window",
        ),
        m(
            "net.ns_per_packet_hop",
            "ns",
            "lower",
            "cycles_per_sec on uniform1024",
        ),
        m("net.generated", "1/cycle", "higher", FINGERPRINT),
        m("net.injected", "1/cycle", "higher", FINGERPRINT),
        m("net.delivered", "1/cycle", "higher", FINGERPRINT),
        m("net.discarded", "1/cycle", "lower", FINGERPRINT),
        m(
            "net.idle_skip_share",
            "share",
            "higher",
            "cycles_per_sec and step_us_p50 on uniform1024; lower on hotspot64",
        ),
        m(
            "net.route_queries",
            "1/cycle",
            "lower",
            "step_us_p50 on uniform1024",
        ),
        m(
            "net.source_backlog",
            "count",
            "lower",
            "peak_rss_mb on hotspot64",
        ),
        m("net.retransmits", "1/cycle", "lower", RECOVERY),
        m("net.retry_exhausted", "1/cycle", "lower", RECOVERY),
        m("net.rerouted", "1/cycle", "lower", RECOVERY),
        m("net.recirculated", "1/cycle", "lower", RECOVERY),
        m("net.fault.link_dropped", "1/cycle", "lower", RECOVERY),
        m(
            "net.network_latency_p50_cycles",
            "cycles",
            "lower",
            SIMULATED,
        ),
        m(
            "net.network_latency_p99_cycles",
            "cycles",
            "lower",
            SIMULATED,
        ),
        m(
            "switch.transmit_cycle_ns",
            "ns",
            "lower",
            "cycles_per_sec on hotspot64, where every switch arbitrates full buffers",
        ),
        m(
            "switch.receive_ns",
            "ns",
            "lower",
            "step_us_p50 on uniform1024",
        ),
        m(
            "switch.accept_capacities_ns",
            "ns",
            "lower",
            "cycles_per_sec on hotspot64 (the interior-stage probe)",
        ),
        m(
            "switch.departures_per_cycle",
            "1/cycle",
            "higher",
            "no end-to-end metric: rig work count",
        ),
        m(
            "switch.refused_share",
            "share",
            "lower",
            "cycles_per_sec on hotspot64 (wasted arbitration); about 0 on uniform1024",
        ),
    ];
    for kind in DESIGNS {
        let moves = if kind == BufferKind::Damq {
            "cycles_per_sec on designs64 and hotspot64"
        } else {
            "cycles_per_sec on designs64"
        };
        for op in CORE_OPS {
            all.push(LayerMetric {
                name: format!("core.{op}.{}", design_name(kind)),
                unit: "ns",
                better: "lower",
                moves,
            });
        }
        all.push(LayerMetric {
            name: format!("core.enqueue_reject_share.{}", design_name(kind)),
            unit: "share",
            better: "lower",
            moves: "no end-to-end metric: the design's admission at the workload's occupancy",
        });
    }
    all.push(m(
        "telemetry.registry_overhead_share",
        "share",
        "lower",
        "cycles_per_sec on all four workloads (1 - traced/untraced)",
    ));
    all
}

/// Interquartile mean of `values`: the mean of their middle half (of all
/// of them when there are fewer than four). Repetitions on a shared host
/// run in a fast or a slow mode; a median jumps between the modes when
/// their mix crosses one half, where this mean moves in proportion, and
/// it still ignores the outliers a preempted repetition produces.
pub fn central(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let middle = &v[cut..v.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Nearest-rank `q` quantile of `samples`, which it sorts.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// Peak resident memory of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak_rss_mb needs /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The host and build every wall-clock number was measured on.
pub fn host_record() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rev = std::env::var("PERFBENCH_REV")
        .ok()
        .or_else(git_rev)
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "nproc={nproc} cpu=\"{cpu}\" rustc=\"{}\" profile={} opt-level={} rev={rev}",
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
        env!("PERFBENCH_OPT_LEVEL"),
    )
}

/// The checkout's git revision, when the working directory is the root
/// of a git checkout.
fn git_rev() -> Option<String> {
    if !std::path::Path::new(".git").exists() {
        return None;
    }
    let out = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// What it should move, or why it is printed only.
    pub note: &'static str,
    /// Whether it goes into the result line.
    pub in_result: bool,
}

/// What one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Repetitions attempted.
    pub attempted: u64,
    /// Repetitions that failed a check.
    pub failed: u64,
    /// The figures, in print order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Whether every repetition passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Prints one line per metric (workload, name, value with all its
    /// digits, unit, note), then the failed/attempted count.
    pub fn print_table(&self, workload: &str) {
        for m in &self.metrics {
            let (name, value, unit) = (&m.name, m.value, m.unit);
            if m.note.is_empty() {
                println!("{workload:<12} {name:<34} {value:>22} {unit}");
            } else {
                println!(
                    "{workload:<12} {name:<34} {value:>22} {unit:<9} -> {}",
                    m.note
                );
            }
        }
        println!(
            "{workload:<12} failed/attempted {}/{}",
            self.failed, self.attempted
        );
    }

    /// The result line: one JSON object with every metric it carries.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| m.in_result)
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let mut s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&mut s, 0.5), 5.0);
        assert_eq!(quantile(&mut s, 0.9), 9.0);
        assert_eq!(central(&[3.0, 1.0, 2.0, 4.0]), 2.5);
        assert_eq!(central(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.0]), 3.5);
    }

    #[test]
    fn layer_metric_names_are_unique_and_valid() {
        let all = layer_metrics();
        let mut names: Vec<&str> = all.iter().map(|m| m.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
        for n in names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
    }

    /// `BENCHMARK.json` at the repository root lists exactly the metrics
    /// this program prints, with the same units and directions.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let entries = json.matches("\"name\":").count();
        let workloads = crate::workload::Workload::ALL;
        let gated = END_TO_END.iter().filter(|m| m.2).count();
        assert_eq!(entries, workloads.len() + gated + layer_metrics().len());
        for w in workloads {
            assert!(
                json.contains(&format!("{{\"name\": \"{}\", \"why\":", w.name())),
                "{}",
                w.name()
            );
        }
        for (name, unit, gated) in END_TO_END {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\":");
            assert_eq!(json.contains(&entry), gated, "{name}");
        }
        for m in layer_metrics() {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            );
            assert!(json.contains(&entry), "{entry}");
        }
    }

    #[test]
    fn result_line_is_one_json_object() {
        let metric = |name: &str, in_result| Metric {
            name: name.to_string(),
            value: 0.25,
            unit: "s",
            note: "",
            in_result,
        };
        let o = Outcome {
            attempted: 2,
            failed: 0,
            metrics: vec![metric("setup_s", true), metric("printed_only", false)],
        };
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 2, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
