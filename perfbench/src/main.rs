//! The s3asim benchmark: one command that runs a named workload through
//! the public `s3asim` API and prints every metric with its unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload posix-1k --seed 152 --seconds 15 --trace 0
//! ```
//!
//! `--trace 0` makes untraced runs and prints the end-to-end metrics;
//! `--trace 1` makes the traced run and prints the per-layer metrics, and
//! writes the benchmark's spans to `perfbench/out/`. The last line of
//! standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.

mod drives;
mod host;
mod measure;
mod schema;
mod spans;
mod workloads;

use std::process::ExitCode;

use host::{json_str, HostRecord};
use measure::Outcome;
use schema::Metric;
use workloads::{Size, Workload};

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: s3a-perfbench --workload <posix-1k|coll-1k|shards-4m|svc-list> \
[--seed N] [--seconds N] [--trace 0|1]";

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = workloads::DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: &String| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => seed = number(value()?)?,
            "--seconds" => seconds = number(value()?)?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v}: expected 0 or 1")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Run one invocation, then write the benchmark's spans to
/// `perfbench/out/`.
fn bench(args: &Args, host: &HostRecord) -> Result<Outcome, String> {
    let run = if args.trace {
        measure::traced
    } else {
        measure::untraced
    };
    let (outcome, spans) = run(args.workload, args.seed, args.seconds, Size::Full)?;
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!(
        "spans-{}-{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, spans.json(&host.json())))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(outcome)
}

/// The result line: every metric of `expected`, by name, with its unit.
fn result_json(outcome: &Outcome, expected: &[Metric]) -> String {
    let metrics: Vec<String> = expected
        .iter()
        .map(|m| {
            let value = outcome
                .metrics
                .iter()
                .find(|(name, _)| *name == m.name)
                .map_or(0.0, |(_, v)| *v);
            let value = if value.is_finite() { value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(m.name),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("s3a-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = HostRecord::probe();
    println!("# host: {host}");
    println!(
        "# workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let outcome = match bench(&args, &host) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("s3a-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for line in &outcome.log {
        println!("# {line}");
    }
    let expected = if args.trace {
        schema::PER_LAYER
    } else {
        schema::END_TO_END
    };
    for m in expected {
        if let Some((_, v)) = outcome.metrics.iter().find(|(n, _)| *n == m.name) {
            println!("# {:<28} {v:>16.6} {}", m.name, m.unit);
        }
    }
    println!("{}", result_json(&outcome, expected));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod selftest;
