//! Renders the observability dashboard: a metrics-registry snapshot on
//! the golden 2×2 network.
//!
//! Usage:
//!
//! ```text
//! obs_report                 # print dashboard, write results/json/obs_report.json
//! obs_report --out <path>    # write the snapshot JSON somewhere else
//! ```
//!
//! The golden 2×2 telemetry configuration (the same one
//! `scripts/check.sh` pins byte-for-byte) runs 200 cycles with the
//! registry enabled; every counter and histogram is printed, and the
//! deterministic snapshot (counters + p50/p99/p999, integers only) is
//! written as JSON. The committed copy under `results/json/` is the
//! `obs-smoke` gate's golden.

use std::path::PathBuf;
use std::process::ExitCode;

use damq_bench::json::Json;
use damq_core::BufferKind;
use damq_net::{NetworkConfig, NetworkSim};
use damq_switch::FlowControl;

/// Cycles the golden network runs.
const CYCLES: u64 = 200;

/// The golden 2×2 configuration — must stay in lockstep with the
/// `telemetry golden` gate in `scripts/check.sh`.
fn golden_config() -> NetworkConfig {
    NetworkConfig::new(2, 2)
        .buffer_kind(BufferKind::Damq)
        .slots_per_buffer(4)
        .flow_control(FlowControl::Blocking)
        .offered_load(0.75)
        .seed(7)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let out = match args.as_slice() {
        [] => default_out_path(),
        ["--out", p] => PathBuf::from(p),
        _ => {
            eprintln!("usage: obs_report [--out <snapshot.json>]");
            return ExitCode::FAILURE;
        }
    };

    let config = golden_config();
    let mut sim = NetworkSim::new(config)
        .expect("the golden 2x2 configuration is valid")
        .with_metrics();
    sim.run(CYCLES);

    println!("observability report: golden 2x2 DAMQ, load 0.75, seed 7, {CYCLES} cycles");
    println!();
    render_registry(&sim);

    let snapshot = Json::parse(&sim.metrics_snapshot()).expect("registry snapshot is valid JSON");
    let doc = Json::obj([
        ("bench", Json::from("obs_report")),
        (
            "network",
            Json::obj([
                ("terminals", Json::from(2u64)),
                ("radix", Json::from(2u64)),
                ("design", Json::from("DAMQ")),
                ("flow", Json::from("blocking")),
                ("load", Json::Num(0.75)),
                ("seed", Json::from(7u64)),
            ]),
        ),
        ("cycles", Json::from(CYCLES)),
        ("metrics", snapshot),
    ]);
    if let Some(dir) = out.parent() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: could not create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    if let Err(e) = std::fs::write(&out, doc.render_pretty()) {
        eprintln!("error: could not write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    println!();
    println!("wrote deterministic snapshot -> {}", out.display());
    ExitCode::SUCCESS
}

/// `results/json/obs_report.json`, honouring `DAMQ_RESULTS_DIR`.
fn default_out_path() -> PathBuf {
    let dir = std::env::var("DAMQ_RESULTS_DIR").unwrap_or_else(|_| "results".to_owned());
    PathBuf::from(dir).join("json").join("obs_report.json")
}

/// Prints the registry's counters and histograms as a text table.
fn render_registry<B, S>(sim: &NetworkSim<B, S>)
where
    B: damq_core::SwitchBuffer,
    S: damq_telemetry::TelemetrySink<damq_telemetry::Event>,
{
    let reg = sim.metrics_registry();
    println!("  counters");
    for name in reg.counter_names() {
        let value = reg.counter_value(name).unwrap_or(0);
        println!("    {name:<28} {value:>10}");
    }
    println!("  histograms (cycle / slot domain)");
    println!(
        "    {:<28} {:>8} {:>7} {:>7} {:>7} {:>7} {:>9}",
        "name", "count", "p50", "p99", "p999", "max", "mean"
    );
    for name in reg.histogram_names() {
        let h = reg.histogram_named(name).expect("listed name resolves");
        println!(
            "    {name:<28} {:>8} {:>7} {:>7} {:>7} {:>7} {:>9.2}",
            h.count(),
            h.p50(),
            h.p99(),
            h.p999(),
            h.max(),
            h.mean()
        );
    }
}
