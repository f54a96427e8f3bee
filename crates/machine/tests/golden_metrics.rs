//! Golden step and space figures for the λB and λC machines.
//!
//! `machines_agree_with_small_step` compares only observations, so a
//! change to the machines that shifted the fuel unit or the space leak
//! would still pass it. This test pins the exact [`Metrics`] of
//! `cek_b::run` and `cek_c::run` on the paper's loops and on the
//! shapes the repository benchmark runs, two sizes each, plus one
//! blame and one fuel-exhaustion case.

use bc_machine::{cek_b, cek_c, MachineOutcome, Metrics};
use bc_translate::term_b_to_c;

fn boundary_loop(n: u64) -> String {
    format!(
        "letrec loop (n : Int) : Bool = \
           if n = 0 then true else ((loop : ?) : Int -> Bool) (n - 1) \
         in loop {n}"
    )
}

fn static_loop(n: u64) -> String {
    format!(
        "letrec loop (n : Int) : Bool = \
           if n = 0 then true else loop (n - 1) \
         in loop {n}"
    )
}

fn even_odd(n: u64) -> String {
    format!(
        "letrec even (n : Int) : Bool = \
           if n = 0 then true else \
           if n = 1 then false else even (n - 2) \
         in even {n}"
    )
}

fn twice_loop(k: u64, n: u64) -> String {
    format!(
        "let twice = fun (f : ? -> ?) => fun (x : ?) => f (f x) in \
         let inc = fun x => x + {k} in \
         letrec go (n : Int) : Int -> Int = fun (acc : Int) => \
           if n = 0 then acc else go (n - 1) (twice (inc : ? -> ?) acc) \
         in go {n} {k}"
    )
}

fn compile(source: &str) -> bc_lambda_b::Term {
    bc_gtlc::compile(source)
        .unwrap_or_else(|d| panic!("{source}: {}", d.message))
        .term
}

/// Which kind of outcome a case must end in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Value,
    Blame,
    Timeout,
}

fn kind(outcome: &MachineOutcome) -> Kind {
    match outcome {
        MachineOutcome::Value(_) => Kind::Value,
        MachineOutcome::Blame(_) => Kind::Blame,
        MachineOutcome::Timeout => Kind::Timeout,
    }
}

/// `[steps, peak_frames, peak_cast_frames, peak_cast_size]`.
type Figures = [usize; 4];

fn figures(m: &Metrics) -> Figures {
    [
        usize::try_from(m.steps).expect("steps fit in usize"),
        m.peak_frames,
        m.peak_cast_frames,
        m.peak_cast_size,
    ]
}

struct Case {
    name: &'static str,
    term: bc_lambda_b::Term,
    fuel: u64,
    kind: Kind,
    b: Figures,
    c: Figures,
}

fn cases() -> Vec<Case> {
    const FUEL: u64 = 10_000_000;
    let case = |name, term, fuel, kind, b, c| Case {
        name,
        term,
        fuel,
        kind,
        b,
        c,
    };
    vec![
        case(
            "boundary_loop(16)",
            compile(&boundary_loop(16)),
            FUEL,
            Kind::Value,
            [369, 34, 32, 100],
            [369, 34, 32, 40],
        ),
        case(
            "boundary_loop(300)",
            compile(&boundary_loop(300)),
            FUEL,
            Kind::Value,
            [6617, 602, 600, 1804],
            [6617, 602, 600, 608],
        ),
        case(
            "static_loop(16)",
            compile(&static_loop(16)),
            FUEL,
            Kind::Value,
            [273, 2, 0, 0],
            [273, 2, 0, 0],
        ),
        case(
            "static_loop(300)",
            compile(&static_loop(300)),
            FUEL,
            Kind::Value,
            [4817, 2, 0, 0],
            [4817, 2, 0, 0],
        ),
        case(
            "even_odd(17)",
            compile(&even_odd(17)),
            FUEL,
            Kind::Value,
            [208, 2, 0, 0],
            [208, 2, 0, 0],
        ),
        case(
            "even_odd(600)",
            compile(&even_odd(600)),
            FUEL,
            Kind::Value,
            [6917, 2, 0, 0],
            [6917, 2, 0, 0],
        ),
        case(
            "twice_loop(3, 8)",
            compile(&twice_loop(3, 8)),
            FUEL,
            Kind::Value,
            [516, 6, 3, 10],
            [516, 6, 3, 4],
        ),
        case(
            "twice_loop(7, 120)",
            compile(&twice_loop(7, 120)),
            FUEL,
            Kind::Value,
            [7348, 6, 3, 10],
            [7348, 6, 3, 4],
        ),
        case(
            "even_odd_mixed(8)",
            bc_lambda_b::programs::even_odd_mixed(8),
            FUEL,
            Kind::Value,
            [299, 13, 11, 33],
            [299, 13, 11, 13],
        ),
        case(
            "even_odd_mixed(129)",
            bc_lambda_b::programs::even_odd_mixed(129),
            FUEL,
            Kind::Value,
            [4544, 135, 133, 399],
            [4544, 135, 133, 135],
        ),
        case(
            "blame",
            compile("let f = fun x => x + 1 in f true"),
            FUEL,
            Kind::Blame,
            [14, 2, 1, 3],
            [14, 2, 1, 1],
        ),
        case(
            "boundary_loop(300) out of fuel",
            compile(&boundary_loop(300)),
            2_501,
            Kind::Timeout,
            [2501, 251, 250, 754],
            [2501, 251, 250, 258],
        ),
    ]
}

#[test]
fn machines_b_and_c_keep_their_exact_steps_and_space() {
    let mut failures = Vec::new();
    for case in cases() {
        let b = cek_b::run(&case.term, case.fuel);
        let c = cek_c::run(&term_b_to_c(&case.term), case.fuel);
        assert_eq!(kind(&b.outcome), case.kind, "{}: λB outcome", case.name);
        assert_eq!(kind(&c.outcome), case.kind, "{}: λC outcome", case.name);
        assert_eq!(
            b.metrics.reuse,
            Default::default(),
            "{}: λB reuse",
            case.name
        );
        assert_eq!(
            c.metrics.reuse,
            Default::default(),
            "{}: λC reuse",
            case.name
        );
        let (got_b, got_c) = (figures(&b.metrics), figures(&c.metrics));
        if got_b != case.b || got_c != case.c {
            failures.push(format!("{}: b {got_b:?} c {got_c:?}", case.name));
        }
    }
    assert!(
        failures.is_empty(),
        "figures moved:\n{}",
        failures.join("\n")
    );
}
