//! Workspace task runner: `cargo xtask lint`.
//!
//! The analysis itself lives in the [`analyze`] module — a hand-rolled
//! lexer, a brace tree and the structural lints. The twelve lints
//! (details in `docs/VERIFICATION.md` § Static analysis):
//!
//! 1. **No panics in simulator library code** (`crates/core`,
//!    `crates/net`) — propagate `Result`; waivable.
//! 2. **No unseeded randomness outside `crates/rng`** — `from_entropy`,
//!    `thread_rng`, `rand::random` make experiments irreproducible.
//! 3. **Documentation is mandatory** — `#![deny(missing_docs)]` on every
//!    library crate root; `//!` overviews on every module of the network
//!    simulator (`crates/net`).
//! 4. **No stdout/stderr printing in library code** — binaries,
//!    benches and xtask are exempt.
//! 5. **No `Box<dyn SwitchBuffer>` on the simulation data path**
//!    (`crates/switch`, `crates/net`) — the hot path stays
//!    monomorphized.
//! 6. **Consuming builder methods carry `#[must_use]`** (`crates/core`,
//!    `crates/net`).
//! 7. **No dead intra-repo markdown links** (root `*.md` and `docs/`).
//! 8. **Unsafe audit** — no `unsafe` site anywhere; every crate root
//!    forbids unsafe code; atomic `Ordering` choices on the sim path
//!    carry `// ordering:`.
//! 9. **Determinism** — no `HashMap`/`HashSet`, wall-clock time, or
//!    thread identity in the sim-path crates; waivable.
//! 10. **Metric docs** — every metric name registered on the telemetry
//!     `MetricsRegistry` appears in the metrics reference table of
//!     `docs/OBSERVABILITY.md`; waivable.
//!
//! `cargo xtask lint` runs all ten plus the `cargo clippy` / `cargo fmt
//! --check` gates; `--no-cargo` skips the cargo gates (fast, no
//! compilation — the check.sh `analyze` gate budget is ~2s). Per-lint
//! wall-times are printed so scan-speed regressions are visible.

#![forbid(unsafe_code)]

mod analyze;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use analyze::{lints, Workspace};

/// Clippy invocation pinned here so CI and dev runs agree.
const CLIPPY_ARGS: [&str; 7] = [
    "clippy",
    "--workspace",
    "--all-targets",
    "--quiet",
    "--",
    "-D",
    "warnings",
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(args.iter().any(|a| a == "--no-cargo")),
        Some("--help" | "-h") | None => {
            eprintln!("usage: cargo xtask lint [--no-cargo]");
            ExitCode::from(2)
        }
        Some(other) => {
            eprintln!("unknown task '{other}' (usage: cargo xtask lint [--no-cargo])");
            ExitCode::from(2)
        }
    }
}

fn lint(no_cargo: bool) -> ExitCode {
    let root = workspace_root();
    let total_start = Instant::now();

    let parse_start = Instant::now();
    let ws = Workspace::load(&root);
    let parse_ms = parse_start.elapsed().as_secs_f64() * 1e3;
    eprintln!(
        "xtask lint: parsed {} files in {} crates {parse_ms:>24.1}ms",
        ws.files.len(),
        ws.crates.len()
    );

    let mut findings = Vec::new();
    for (name, run) in lints::ALL {
        let start = Instant::now();
        let before = findings.len();
        run(&ws, &mut findings);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let new = findings.len() - before;
        eprintln!("xtask lint: lint {name:<22} {new:>3} finding(s) {ms:>10.1}ms");
    }

    for finding in &findings {
        eprintln!("error: {finding}");
    }
    let mut failed = !findings.is_empty();
    let total_ms = total_start.elapsed().as_secs_f64() * 1e3;
    eprintln!(
        "xtask lint: custom lints {} ({} finding(s), {total_ms:.1}ms total)",
        if failed { "FAILED" } else { "passed" },
        findings.len()
    );

    if !no_cargo {
        failed |= !run_cargo(&root, &CLIPPY_ARGS);
        failed |= !run_cargo(&root, &["fmt", "--all", "--check"]);
    }

    if failed {
        ExitCode::FAILURE
    } else {
        eprintln!("xtask lint: all checks passed");
        ExitCode::SUCCESS
    }
}

/// The workspace root, resolved relative to this crate's manifest so the
/// driver works from any working directory.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or(manifest)
}

fn run_cargo(root: &Path, args: &[&str]) -> bool {
    eprintln!("xtask lint: running cargo {}", args.join(" "));
    match Command::new("cargo").args(args).current_dir(root).status() {
        Ok(status) if status.success() => true,
        Ok(status) => {
            eprintln!("error: cargo {} exited with {status}", args.join(" "));
            false
        }
        Err(e) => {
            eprintln!("error: failed to spawn cargo: {e}");
            false
        }
    }
}
