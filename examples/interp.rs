//! A command-line interpreter for the gradually-typed language.
//!
//! ```sh
//! cargo run --example interp -- --engine machine-s 'let f = fun x => x + 1 in f 41'
//! cargo run --example interp -- --trace '(1 : ?) + 2'
//! cargo run --example interp -- path/to/program.gtlc
//! ```
//!
//! Flags:
//! * `--engine {b|c|s|machine-b|machine-c|machine-s}` — execution
//!   engine (default `machine-s`); `b` and `c` are the λB/λC
//!   small-step reference semantics, which are test oracles rather
//!   than session engines and are called directly;
//! * `--trace` — print every λS reduction step;
//! * `--fuel N` — step bound (default 1,000,000).

use std::process::ExitCode;

use blame_coercion::machine::metrics::Metrics;
use blame_coercion::translate::bisim::{observe_b, observe_c, Observation};
use blame_coercion::{lambda_b, lambda_c, Engine, RunError, Session};

/// The `--engine` names that select a session [`Engine`]; `b` and `c`
/// are handled separately as direct oracle calls.
fn parse_engine(name: &str) -> Option<Engine> {
    match name {
        "s" => Some(Engine::LambdaS),
        "machine-b" => Some(Engine::MachineB),
        "machine-c" => Some(Engine::MachineC),
        "machine-s" => Some(Engine::MachineS),
        _ => None,
    }
}

fn main() -> ExitCode {
    let mut engine = "machine-s".to_owned();
    let mut trace = false;
    let mut fuel: u64 = 1_000_000;
    let mut input: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--engine" => match args.next() {
                Some(e) if matches!(e.as_str(), "b" | "c") || parse_engine(&e).is_some() => {
                    engine = e
                }
                _ => {
                    eprintln!("usage: --engine {{b|c|s|machine-b|machine-c|machine-s}}");
                    return ExitCode::FAILURE;
                }
            },
            "--trace" => trace = true,
            "--fuel" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) => fuel = n,
                None => {
                    eprintln!("usage: --fuel N");
                    return ExitCode::FAILURE;
                }
            },
            other => input = Some(other.to_owned()),
        }
    }

    let Some(input) = input else {
        eprintln!("usage: interp [--engine E] [--trace] [--fuel N] <program or file.gtlc>");
        return ExitCode::FAILURE;
    };

    // A file path or inline source text.
    let source = if input.ends_with(".gtlc") {
        match std::fs::read_to_string(&input) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot read {input}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        input
    };

    let session = Session::builder().default_fuel(fuel).build();
    let program = match session.compile(&source) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{}", e.render(&source));
            return ExitCode::FAILURE;
        }
    };
    println!("type: {}", program.ty);

    if trace {
        // Step-by-step λS trace, with one merge context for the whole
        // run so repeated coercion merges hit the compose cache.
        let mut ctx = blame_coercion::core::MergeCtx::new();
        let ty = program.ty.clone();
        // The λS tree is decompiled lazily; the trace loop is the one
        // consumer that genuinely needs it.
        let mut cur = session.lambda_s(&program);
        let mut step_no = 0u64;
        println!("{step_no:>4}  {cur}");
        loop {
            match blame_coercion::core::eval::step_in(&mut ctx, &cur, &ty) {
                blame_coercion::core::eval::Step::Next(n) => {
                    step_no += 1;
                    println!("{step_no:>4}  {n}");
                    cur = n;
                    if step_no >= fuel {
                        println!("(fuel exhausted)");
                        break;
                    }
                }
                blame_coercion::core::eval::Step::Value => break,
                blame_coercion::core::eval::Step::Blame(p) => {
                    println!("      blame {p}");
                    break;
                }
            }
        }
    }

    let fuel_exhausted = |steps: u64| {
        eprintln!("fuel exhausted after {steps} steps (raise with --fuel N)");
        ExitCode::FAILURE
    };
    let failed = |e: &dyn std::fmt::Display| {
        eprintln!("{e}");
        ExitCode::FAILURE
    };
    // The λB/λC small-step oracles run on the program's tree views;
    // every other name is a session engine.
    let (label, observation, steps, metrics): (String, Observation, u64, Option<Metrics>) =
        match engine.as_str() {
            "b" => match lambda_b::eval::run(&session.lambda_b(&program), fuel) {
                Ok(r) => (
                    "λB (small-step)".into(),
                    observe_b(&r.outcome),
                    r.steps,
                    None,
                ),
                Err(lambda_b::eval::RunError::FuelExhausted { steps, .. }) => {
                    return fuel_exhausted(steps)
                }
                Err(e) => return failed(&e),
            },
            "c" => match lambda_c::eval::run(&session.lambda_c(&program), fuel) {
                Ok(r) => (
                    "λC (small-step)".into(),
                    observe_c(&r.outcome),
                    r.steps,
                    None,
                ),
                Err(lambda_c::eval::RunError::FuelExhausted { steps, .. }) => {
                    return fuel_exhausted(steps)
                }
                Err(e) => return failed(&e),
            },
            name => {
                let engine = parse_engine(name).expect("validated while parsing flags");
                match session.run(&program, engine) {
                    Ok(r) => (engine.to_string(), r.observation, r.steps, r.metrics),
                    Err(RunError::FuelExhausted { steps, .. }) => return fuel_exhausted(steps),
                    Err(e) => return failed(&e),
                }
            }
        };
    println!("result ({label}): {observation}");
    println!("steps: {steps}");
    if let Some(metrics) = &metrics {
        println!(
            "space: peak frames {}, peak coercion frames {}, peak coercion size {}",
            metrics.peak_frames, metrics.peak_cast_frames, metrics.peak_cast_size
        );
        if engine == "machine-s" {
            // The compiled fast path: the pipeline stores the lowered
            // term IR, so runs intern nothing and answer repeated
            // merges from the compose cache.
            let r = &metrics.reuse;
            println!(
                "reuse: {} tree interns, {} compose hits / {} misses, {} arena nodes",
                r.tree_interns, r.compose_hits, r.compose_misses, r.arena_nodes
            );
        }
    }
    if let Observation::Blame(p) = observation {
        if let Some(msg) = program.explain_blame(p) {
            eprintln!("{msg}");
        }
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
