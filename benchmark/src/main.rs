//! The repo benchmark (see README.md and ../BENCHMARK.json).
//!
//! `flexlog-benchmark --workload NAME --seed N --seconds S --trace 0|1`
//! sets a cluster up, times one window of the workload, checks every output
//! and prints one JSON object as the last line of stdout: with `--trace 0`
//! the end-to-end metrics, with `--trace 1` the per-layer metrics (cluster
//! counters and flight-recorder gaps of a traced window, benchmark-side
//! span shares, then the isolated layer drivers). Everything else it prints
//! goes to stderr.

mod cluster_layers;
mod layers;
mod record;
mod report;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Metric;
use workloads::{Kind, RunConfig};

fn usage() -> ExitCode {
    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    eprintln!(
        "usage: flexlog-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR]",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut kind = None;
    let mut seed = 1u64;
    let mut seconds = 10u64;
    let mut traced = false;
    let mut out_dir = PathBuf::from("benchmark/out");
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage();
        };
        let ok = match flag.as_str() {
            "--workload" => {
                kind = Kind::parse(value);
                kind.is_some()
            }
            "--seed" => value.parse().map(|v| seed = v).is_ok(),
            "--seconds" => value.parse().map(|v| seconds = v).is_ok() && seconds >= 1,
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    traced = value == "1";
                    true
                }
                _ => false,
            },
            "--out-dir" => {
                out_dir = PathBuf::from(value);
                true
            }
            _ => false,
        };
        if !ok {
            eprintln!("bad argument: {flag} {value}");
            return usage();
        }
    }
    let Some(kind) = kind else {
        return usage();
    };

    let cfg = RunConfig {
        kind,
        seed,
        seconds,
        traced,
    };
    let outcome = workloads::run(&cfg, &out_dir);
    let mut failed = outcome.failed;
    let mut attempted = outcome.attempted;

    // `--trace 1` reports every per-layer metric, `--trace 0` every
    // end-to-end one; the names are the contract with BENCHMARK.json.
    let metrics: Vec<Metric> = if traced {
        let drivers = layers::run_all(seed);
        failed += drivers.failed_ops;
        attempted += drivers.attempted_ops;
        outcome
            .layers
            .iter()
            .cloned()
            .chain(drivers.metrics)
            .collect()
    } else {
        vec![
            Metric::new("setup_s", outcome.setup_s),
            Metric::new("op_p50_us", outcome.focus.p50_us),
            Metric::new("append_goodput_rps", outcome.writer.goodput),
            Metric::new("peak_rss_mb", outcome.peak_rss_mb),
        ]
    };

    eprintln!(
        "== {} seed {seed}, {seconds} s, {} load threads of {} cores, trace {} ==",
        kind.name(),
        workloads::CALLERS,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        u8::from(traced),
    );
    for m in &metrics {
        eprintln!("{:<44} {:>14.3} {}", m.name, m.value, m.unit);
    }
    eprintln!(
        "focus-op samples {}, writer samples {}, ops attempted {attempted}, failed {failed}",
        outcome.focus.samples, outcome.writer.samples
    );

    println!("{}", report::result_line(attempted, failed, &metrics));
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
