//! End-to-end integration tests across all workspace crates:
//! GTLC source → λB → λC → λS → the four session engines plus the
//! λB/λC small-step oracles (E20 of DESIGN.md), through the
//! session-centric API.

use bc_syntax::Constant;
use blame_coercion::translate::bisim::{observe_run_b, observe_run_c, observe_run_s, Observation};
use blame_coercion::{Engine, Program, Session, SessionPool};

const FUEL: u64 = 5_000_000;

/// The λB and λC small-step oracles' observations of a program. They
/// are reference semantics rather than session engines, so they are
/// called directly on the program's tree views.
fn oracle_observations(session: &Session, program: &Program) -> [(&'static str, Observation); 2] {
    [
        (
            "λB (small-step)",
            observe_run_b(&session.lambda_b(program), FUEL),
        ),
        (
            "λC (small-step)",
            observe_run_c(&session.lambda_c(program), FUEL),
        ),
    ]
}

/// A corpus of gradually-typed programs with their expected results.
fn corpus() -> Vec<(&'static str, &'static str, Observation)> {
    use Observation::Constant as K;
    vec![
        ("arith", "1 + 2 * 3", K(Constant::Int(7))),
        (
            "static_parity",
            "letrec even (n : Int) : Bool = \
               if n = 0 then true else \
               if n = 1 then false else even (n - 2) \
             in even 100",
            K(Constant::Bool(true)),
        ),
        (
            "dynamic_parity",
            "letrec even (n : ?) : ? = \
               if (n : Int) = 0 then true else \
               if (n : Int) = 1 then false else even ((n : Int) - 2) \
             in (even 101 : Bool)",
            K(Constant::Bool(false)),
        ),
        (
            "higher_order",
            "let twice = fun (f : Int -> Int) => fun (x : Int) => f (f x) in \
             let inc = fun x => x + 1 in \
             twice (inc : Int -> Int) 40",
            K(Constant::Int(42)),
        ),
        (
            "boundary_crossing",
            "let dyn_add = fun a => fun b => a + b in \
             (dyn_add 20 22 : Int)",
            K(Constant::Int(42)),
        ),
        (
            "deep_wrapping",
            "let id = fun (x : Int) => x in \
             let wrap = fun (f : ?) => (f : Int -> Int) in \
             wrap (wrap (wrap (id : ?))) 42",
            K(Constant::Int(42)),
        ),
        (
            "ackermann_small",
            "letrec ack2 (n : Int) : Int = \
               if n = 0 then 1 else 2 * ack2 (n - 1) \
             in ack2 10",
            K(Constant::Int(1024)),
        ),
    ]
}

#[test]
fn all_engines_agree_on_the_corpus() {
    // The whole corpus shares one session — exactly the server shape
    // the Session API exists for.
    let session = Session::builder().default_fuel(FUEL).build();
    for (name, source, expected) in corpus() {
        let program = session
            .compile(source)
            .unwrap_or_else(|e| panic!("{name} failed to compile:\n{}", e.render(source)));
        for (oracle, got) in oracle_observations(&session, &program) {
            assert_eq!(got, expected, "{name} on {oracle}");
        }
        for engine in Engine::ALL {
            let got = session
                .run(&program, engine)
                .unwrap_or_else(|e| panic!("{name} on {engine}: {e}"))
                .observation;
            assert_eq!(got, expected, "{name} on {engine}");
        }
    }
}

#[test]
fn blaming_programs_blame_the_same_label_everywhere() {
    let session = Session::builder().default_fuel(FUEL).build();
    let sources = [
        "let f = fun x => x + 1 in f true",
        "let f = ((fun x => true) : ?) in (f : Int -> Int) 1 + 1",
        "((1 : ?) : Bool)",
        "let apply = fun (f : ? -> ?) => f 1 in \
         (apply ((fun (b : Bool) => b) : ? -> ?) : Bool)",
    ];
    for source in sources {
        let program = session
            .compile(source)
            .unwrap_or_else(|e| panic!("failed to compile:\n{}", e.render(source)));
        let mut labels = Vec::new();
        for (oracle, got) in oracle_observations(&session, &program) {
            match got {
                Observation::Blame(p) => labels.push(p),
                other => panic!("expected blame on {oracle} for {source:?}, got {other}"),
            }
        }
        for engine in Engine::ALL {
            match session
                .run(&program, engine)
                .expect("completes")
                .observation
            {
                Observation::Blame(p) => labels.push(p),
                other => panic!("expected blame on {engine} for {source:?}, got {other}"),
            }
        }
        assert!(
            labels.windows(2).all(|w| w[0] == w[1]),
            "engines blamed different labels for {source:?}: {labels:?}"
        );
        // And every blamed label maps back to a source span.
        assert!(program.explain_blame(labels[0]).is_some());
    }
}

#[test]
fn lockstep_holds_for_compiled_programs() {
    let session = Session::builder().default_fuel(FUEL).build();
    for (name, source, _) in corpus() {
        let program = session.compile(source).expect(name);
        let b = blame_coercion::lambda_b::eval::run(&session.lambda_b(&program), FUEL).expect(name);
        let c = blame_coercion::lambda_c::eval::run(&session.lambda_c(&program), FUEL).expect(name);
        assert_eq!(b.steps, c.steps, "{name}: λB and λC must run in lockstep");
    }
}

#[test]
fn space_stays_bounded_end_to_end() {
    // Compile the boundary-crossing loop from source and check the λS
    // machine runs it in bounded space while λB leaks.
    let session = Session::builder().default_fuel(FUEL).build();
    let source = |n: i64| {
        format!(
            "letrec loop (n : Int) : Bool = \
               if n = 0 then true else ((loop : ?) : Int -> Bool) (n - 1) \
             in loop {n}"
        )
    };
    let small = session.compile(&source(8)).expect("compiles");
    let large = session.compile(&source(512)).expect("compiles");
    let s_small = session
        .run(&small, Engine::MachineS)
        .expect("runs")
        .metrics
        .unwrap();
    let s_large = session
        .run(&large, Engine::MachineS)
        .expect("runs")
        .metrics
        .unwrap();
    assert_eq!(
        s_small.peak_frames, s_large.peak_frames,
        "λS machine must run boundary-crossing tail calls in constant space"
    );
    let b_small = session
        .run(&small, Engine::MachineB)
        .expect("runs")
        .metrics
        .unwrap();
    let b_large = session
        .run(&large, Engine::MachineB)
        .expect("runs")
        .metrics
        .unwrap();
    assert!(
        b_large.peak_cast_frames > b_small.peak_cast_frames + 400,
        "λB machine must exhibit the leak ({} vs {})",
        b_small.peak_cast_frames,
        b_large.peak_cast_frames
    );
}

#[test]
fn a_letrec_parameter_shadows_the_function_name() {
    // In `letrec f (f : Int)` the body's `f` is the parameter, not the
    // function, so the program is `3 + 1`. Every Fix rule must let the
    // parameter shadow the function name.
    let source = "letrec f (f : Int) : Int = f + 1 in f 3";
    let expected = Observation::Constant(Constant::Int(4));
    let session = Session::builder().default_fuel(FUEL).build();
    let program = session.compile(source).expect("compiles");
    for (oracle, got) in oracle_observations(&session, &program) {
        assert_eq!(got, expected, "{oracle}");
    }
    assert_eq!(
        observe_run_s(&session.lambda_s(&program), FUEL),
        expected,
        "λS (small-step, tree)"
    );
    let pool = SessionPool::builder()
        .workers(1)
        .default_fuel(FUEL)
        .build()
        .expect("builds");
    for engine in Engine::ALL {
        let got = session
            .run(&program, engine)
            .unwrap_or_else(|e| panic!("{engine}: {e}"))
            .observation;
        assert_eq!(got, expected, "{engine}");
        let job = pool
            .submit(source, engine)
            .wait()
            .unwrap_or_else(|e| panic!("pool job on {engine}: {e}"));
        assert_eq!(job.observation, expected, "pool job on {engine}");
    }
}

#[test]
fn compile_errors_carry_spans() {
    let session = Session::new();
    for bad in [
        "1 +",
        "fun (x : ) => x",
        "1 + true",
        "(x)",
        "if 1 then 2 else 3",
    ] {
        let err = session.compile(bad).expect_err(bad);
        let rendered = err.render(bad);
        assert!(
            rendered.contains('^'),
            "diagnostic lacks a caret:\n{rendered}"
        );
    }
}
