//! End-to-end and per-layer benchmark of the MLFS scheduler.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload philly-mlfh --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each run builds its inputs from `--seed`, sets up (timed several
//! times), runs whole episodes of the workload for `--seconds`, checks
//! every output, and prints one JSON line last: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics of a separate traced run
//! with `--trace 1`. A `provenance` line and a `detail` line (figures
//! that belong to one workload only) come before it. See README.md.

mod batch;
mod checks;
mod measure;
mod probe;
mod service;
mod stats;

use measure::{Metric, Phase};
use std::path::PathBuf;

/// Command-line options.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for durable state, removed at exit.
    pub work: PathBuf,
}

/// What a workload run produced.
#[derive(Default)]
pub struct Out {
    pub metrics: Vec<Metric>,
    pub detail: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Out {
    /// Count a phase's jobs: each submitted job is one operation; one
    /// that does not finish by the horizon failed.
    pub fn count(&mut self, phase: &Phase) {
        self.attempted += phase.jobs;
        self.failed += phase.jobs - phase.finished;
    }
}

const WORKLOADS: [&str; 4] = [
    "philly-mlfh",
    "testbed-mlfs-faults",
    "service-durable",
    "testbed-baselines",
];

fn parse_args() -> Result<Opts, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    let work = target
        .join("perfbench-work")
        .join(format!("{workload}-{}", std::process::id()));
    Ok(Opts {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
        work,
    })
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(ms: &[Metric]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(n),
                json_str(u)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn provenance(opts: &Opts) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let fields = [
        ("workload", json_str(&opts.workload)),
        ("seed", opts.seed.to_string()),
        ("seconds", opts.seconds.to_string()),
        ("trace", u8::from(opts.trace).to_string()),
        ("commit", json_str(&git_commit())),
        ("nproc", nproc.to_string()),
        ("rustc", json_str(env!("PERFBENCH_RUSTC"))),
        ("profile", json_str(env!("PERFBENCH_PROFILE"))),
        ("sim_threads", simcore::sim_threads().to_string()),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&opts.work) {
        eprintln!("perfbench: cannot create {}: {e}", opts.work.display());
        std::process::exit(2);
    }
    println!("provenance {}", provenance(&opts));
    let mut out = match opts.workload.as_str() {
        "philly-mlfh" => batch::run_philly(&opts),
        "testbed-mlfs-faults" => batch::run_mlfs_faults(&opts),
        "testbed-baselines" => batch::run_baselines(&opts),
        _ => service::run(&opts),
    };
    let _ = std::fs::remove_dir_all(&opts.work);
    for (name, v, _) in out.metrics.iter().chain(&out.detail) {
        if !v.is_finite() {
            out.errors.push(format!("{name} is not a finite number"));
        }
    }
    out.metrics.retain(|m| m.1.is_finite());
    out.detail.retain(|m| m.1.is_finite());
    for e in &out.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    println!("detail {}", metrics_json(&out.detail));
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.errors.is_empty(),
        out.attempted.max(1),
        out.failed,
        metrics_json(&out.metrics)
    );
}
