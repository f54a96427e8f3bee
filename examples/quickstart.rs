//! Quickstart: compile gradually-typed programs into one session,
//! inspect the intermediate representations, run on every engine and
//! on the λB/λC reference oracles, and watch the second program reuse
//! the first one's interned state.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use blame_coercion::translate::bisim::{observe_b, observe_c};
use blame_coercion::{lambda_b, lambda_c, Engine, Session};

fn main() {
    // A gradually-typed program: `inc` is dynamically typed (its
    // parameter has type `?`), the rest is statically typed. The
    // elaborator inserts casts where precision changes.
    let source = "let inc = fun x => x + 1 in  -- x : ? (unannotated)
                  letrec sum (n : Int) : Int =
                      if n = 0 then 0 else (inc (n - 1) : Int) + sum (n - 1)
                  in sum 5";

    // One session owns the coercion arena, compose cache, and type
    // arena; every program compiled into it shares them.
    let session = Session::builder().default_fuel(1_000_000).build();
    let program = session.compile(source).expect("gradually well typed");

    println!("source:\n  {}", source.trim());
    println!();
    println!("type:      {}", program.ty);
    println!("λB term:   {}", session.lambda_b(&program));
    println!("λC term:   {}", session.lambda_c(&program));
    println!("λS term:   {}", session.lambda_s(&program));
    println!();

    // The λB and λC small-step relations are the reference semantics:
    // test oracles, called directly on the program's tree views.
    let b = lambda_b::eval::run(&session.lambda_b(&program), 1_000_000).expect("terminates");
    println!(
        "{:<20} => {} ({} steps)",
        "λB (small-step)",
        observe_b(&b.outcome),
        b.steps
    );
    let c = lambda_c::eval::run(&session.lambda_c(&program), 1_000_000).expect("terminates");
    println!(
        "{:<20} => {} ({} steps)",
        "λC (small-step)",
        observe_c(&c.outcome),
        c.steps
    );
    // The four session engines implement the same semantics; the run
    // path returns Result, so fuel exhaustion would be a typed error,
    // not a panic or a sentinel.
    for engine in Engine::ALL {
        let report = session.run(&program, engine).expect("terminates");
        println!(
            "{engine:<20} => {} ({} steps)",
            report.observation, report.steps
        );
    }

    // A structurally similar program compiled into the same session
    // interns nothing new — the warm-session win, made observable.
    // Since PR 4 the *front end* runs on interned types too, so the
    // claim covers compile time: typechecking and elaborating the
    // second program adds zero type nodes and computes zero new
    // subtyping verdicts.
    let before = session.stats();
    let again = session
        .compile(
            "let inc = fun x => x + 1 in
             letrec sum (n : Int) : Int =
                 if n = 0 then 0 else (inc (n - 1) : Int) + sum (n - 1)
             in sum 9",
        )
        .expect("gradually well typed");
    let compiled = session.stats();
    println!();
    println!(
        "second program, compile-side reuse (warm session): \
         {} new coercion nodes, {} new type nodes, \
         {} verdict hits / {} new verdicts computed",
        compiled.coercions.nodes - before.coercions.nodes,
        compiled.type_nodes - before.type_nodes,
        compiled.type_queries.hits - before.type_queries.hits,
        compiled.type_queries.misses - before.type_queries.misses,
    );
    let report = session.run(&again, Engine::MachineS).expect("terminates");
    println!("second program (warm session) => {}", report.observation);
    println!("session: {}", session.stats());
}
