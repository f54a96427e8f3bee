//! The benchmark command.
//!
//! ```text
//! perfbench --workload <compile_heavy|run_heavy|serve_mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a readable report, then as its last line one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}` with
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). A traced run also writes its spans to
//! `out/trace-<workload>.jsonl` beside this crate's manifest.

use std::path::Path;
use std::process::ExitCode;

use perfbench::report::{self, END_TO_END, PER_LAYER};
use perfbench::{run, Workload};

const USAGE: &str =
    "usage: perfbench --workload <compile_heavy|run_heavy|serve_mixed> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or(format!("bad seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name();
    println!(
        "perfbench {name}: seed {} seconds {} trace {} (available_parallelism {})",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let outcome = run(args.workload, args.seed, args.seconds, args.trace);
    let spec: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (metric, unit) in spec {
        println!("  {metric:<38} {:>14.4} {unit}", outcome.metrics[metric]);
    }
    println!(
        "  {:<38} {:>14.6} ratio  ({} failed of {} attempted; {} latency samples)",
        "fail_ratio",
        report::ratio(outcome.failed as f64, outcome.attempted as f64),
        outcome.failed,
        outcome.attempted,
        outcome.samples
    );
    if !perfbench::stats::p99_resolved(outcome.samples) {
        println!("  warning: fewer than 1000 samples, so p99 has fewer than ten beyond it");
    }
    for failure in &outcome.failures {
        println!("  FAILED: {failure}");
    }
    if let Some(tracer) = &outcome.tracer {
        println!("  spans (count, mean time, mean self time):");
        for (span, t) in tracer.totals() {
            println!(
                "    {span:<24} {:>10} {:>12.3} us {:>12.3} us",
                t.count,
                report::ratio(t.total_ns as f64, t.count as f64) / 1e3,
                report::ratio(t.self_ns as f64, t.count as f64) / 1e3
            );
        }
        println!("  self time per layer (total over the traced loop):");
        for (layer, ns) in tracer.layer_self_ns() {
            println!("    {layer:<24} {:>12.3} ms", ns as f64 / 1e6);
        }
        println!(
            "  tracing overhead: {:.2}% on median op latency",
            outcome.metrics["trace.overhead_pct"]
        );
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{name}.jsonl"));
        match tracer.write_jsonl(&path) {
            Ok(()) => println!("  spans written to {}", path.display()),
            Err(e) => eprintln!("  could not write spans to {}: {e}", path.display()),
        }
    }
    println!(
        "{}",
        report::result_line(
            outcome.failed == 0,
            outcome.attempted,
            outcome.failed,
            spec,
            &outcome.metrics
        )
    );
    ExitCode::SUCCESS
}
