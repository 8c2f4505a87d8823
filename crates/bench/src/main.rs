//! # flexlog-bench
//!
//! One binary, one subcommand per thing it measures (`flexlog-bench --help`
//! lists them from [`SUBCOMMANDS`]):
//!
//! * the reproduction of every table and figure in the FlexLog paper's
//!   evaluation (§9) — `table1`, `fig1`, `fig4` … `fig11`, the design-choice
//!   `ablation`s, and `repro` for the whole suite. Each prints its tables;
//!   `EXPERIMENTS.md` records paper-vs-measured numbers.
//! * the four feature benches `benchmark/` cannot express — `datapath`,
//!   `elasticity`, `fanout`, `tiering` (see [`features`]). Each runs a fixed
//!   number of paired trials, prints a summary table, evaluates its gates
//!   from [`harness::GATES`] on the median, writes its report to `--out`
//!   and exits 1 if a gate failed.
//!
//! `--quick` shrinks every run to a smoke test. `scripts/bench.sh` alone
//! passes `--history FILE --commit REV`, which stamps the report with the
//! commit and appends one line per metric to `BENCH_history.jsonl`.

mod experiments;
mod features;
mod harness;
mod report;
#[cfg(test)]
mod tests;

use std::io::Write;
use std::process::ExitCode;

use experiments::{ablation, fig1, fig10, fig11, fig4, fig5to7, fig8, fig9, table1};
use features::{datapath, elasticity, fanout, tiering};
use harness::Report;
pub(crate) use report::{fmt_duration, fmt_ops, Series, Table};

/// The command line after the subcommand name.
#[derive(Default)]
struct Args {
    quick: bool,
    out: Option<String>,
    history: Option<String>,
    commit: Option<String>,
}

type Experiment = fn(bool) -> Vec<Table>;

enum Run {
    /// Experiments whose tables are printed as each finishes.
    Tables(&'static [Experiment]),
    /// A feature bench: summary, gates, `--out`, `--history`.
    Feature(fn(bool) -> Report),
}
use Run::{Feature, Tables};

struct Subcommand {
    name: &'static str,
    about: &'static str,
    run: Run,
}

const fn sub(name: &'static str, about: &'static str, run: Run) -> Subcommand {
    Subcommand { name, about, run }
}

const FIGURES: &[Experiment] = &[
    table1::run,
    fig1::run,
    fig4::run,
    fig5to7::fig5,
    fig5to7::fig6,
    fig5to7::fig7,
    fig8::run,
    fig9::run,
    fig10::run,
    fig11::run,
];

/// Every subcommand: dispatch and `--help` both read this table.
#[rustfmt::skip]
static SUBCOMMANDS: &[Subcommand] = &[
    sub("table1", "Table 1 - storage-syscall share of FaaS functions", Tables(&[table1::run])),
    sub("fig1", "Figure 1 - storage latency vs block size, PM/syscall/SSD", Tables(&[fig1::run])),
    sub("fig4", "Figure 4 - ordering latency + throughput vs Boki/Paxos", Tables(&[fig4::run])),
    sub("fig5", "Figure 5 - storage throughput vs record size", Tables(&[fig5to7::fig5])),
    sub("fig6", "Figure 6 - storage throughput vs threads", Tables(&[fig5to7::fig6])),
    sub("fig7", "Figure 7 - storage throughput vs R/W ratio", Tables(&[fig5to7::fig7])),
    sub("fig8", "Figure 8 - latency vs replication factor", Tables(&[fig8::run])),
    sub("fig9", "Figure 9 - ordering throughput vs leaf sequencers", Tables(&[fig9::run])),
    sub("fig10", "Figure 10 - recovery time vs records to recover", Tables(&[fig10::run])),
    sub("fig11", "Figure 11 - latency vs throughput, 3 vs 6 shards", Tables(&[fig11::run])),
    sub("ablation", "design ablations: batching, cache size, tree depth", Tables(&[ablation::run])),
    sub("repro", "every table and figure above, in order", Tables(FIGURES)),
    sub("datapath", "feature: shard-scaling curve on both clocks", Feature(datapath::run)),
    sub("elasticity", "feature: cutover stall, controller recovery", Feature(elasticity::run)),
    sub("fanout", "feature: 100 push subscribers vs 1 poller", Feature(fanout::run)),
    sub("tiering", "feature: cold-read cost, hot-append interference", Feature(tiering::run)),
];

/// Runs one feature bench and reports it everywhere the arguments ask.
fn feature(args: &Args, run: fn(bool) -> Report) -> ExitCode {
    let report = run(args.quick);
    report.summary().print();
    let commit = args.commit.as_deref();
    if let Some(out) = &args.out {
        let json = report.to_json(commit).render() + "\n";
        std::fs::write(out, json).unwrap_or_else(|e| panic!("write {out}: {e}"));
        eprintln!("wrote {out}");
    }
    if let Some(history) = &args.history {
        let file = std::fs::OpenOptions::new().create(true).append(true).open(history);
        let mut file = file.unwrap_or_else(|e| panic!("open {history}: {e}"));
        for line in report.history_lines(commit) {
            writeln!(file, "{line}").unwrap_or_else(|e| panic!("append to {history}: {e}"));
        }
    }
    ExitCode::from(harness::exit_code(&report.verdicts()))
}

fn usage() -> String {
    let mut text = String::from("usage: flexlog-bench <subcommand> [--quick] [--out PATH]");
    text.push_str(" [--history FILE --commit REV]\n\nsubcommands:\n");
    for s in SUBCOMMANDS {
        text.push_str(&format!("  {:<11} {}\n", s.name, s.about));
    }
    text
}

/// The subcommand and its arguments, or the message to exit 2 with.
fn parse(argv: &[String]) -> Result<(&'static Subcommand, Args), String> {
    let name = argv.first().ok_or("missing subcommand")?;
    let sub = SUBCOMMANDS
        .iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("unknown subcommand `{name}`"))?;
    let mut args = Args::default();
    let mut rest = argv[1..].iter();
    while let Some(flag) = rest.next() {
        let slot = match flag.as_str() {
            "--quick" => {
                args.quick = true;
                continue;
            }
            "--out" => &mut args.out,
            "--history" => &mut args.history,
            "--commit" => &mut args.commit,
            other => return Err(format!("unknown argument `{other}`")),
        };
        *slot = Some(rest.next().ok_or_else(|| format!("{flag} needs a value"))?.clone());
    }
    Ok((sub, args))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }
    match parse(&argv) {
        Ok((sub, args)) => match sub.run {
            Tables(experiments) => {
                for run in experiments {
                    run(args.quick).iter().for_each(Table::print);
                }
                ExitCode::SUCCESS
            }
            Feature(run) => feature(&args, run),
        },
        Err(msg) => {
            eprint!("flexlog-bench: {msg}\n\n{}", usage());
            ExitCode::from(2)
        }
    }
}
