//! Seeded inputs and their expected verdicts.
//!
//! Every source the benchmark feeds the system comes with an expected
//! observation derived by hand from the program's text — the
//! arithmetic of a loop, the shape of a cast — never from running the
//! compiler or an engine under test. A run whose verdict differs from
//! the expectation counts as failed.

use blame_coercion::machine::metrics::{MachineOutcome, MachineRun};
use blame_coercion::pool::{JobError, JobOutput};
use blame_coercion::syntax::Constant;
use blame_coercion::translate::bisim::Observation;
use blame_coercion::{RunError, RunReport};

/// The largest number of coercion frames a λS machine run may hold at
/// once. The paper's space claim is that this does not grow with the
/// number of boundary crossings: every workload program stays at or
/// below it whatever its loop bound (checked by `tests/counts.rs` at
/// two loop bounds three orders of magnitude apart).
pub const CAST_FRAME_BOUND: usize = 3;

/// SplitMix64: a tiny, platform-stable generator, so a seed names the
/// same inputs on every machine.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`; `stream` separates independent uses of
    /// one seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// What a program must evaluate to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// A boolean constant.
    Bool(bool),
    /// An integer constant.
    Int(i64),
    /// A function value.
    Function,
    /// Blame allocated to some cast.
    Blame,
    /// Fuel exhausted after exactly the run's fuel bound.
    Timeout,
}

impl Expect {
    fn matches(self, observation: &Observation) -> bool {
        match (self, observation) {
            (Expect::Bool(b), Observation::Constant(Constant::Bool(x))) => b == *x,
            (Expect::Int(n), Observation::Constant(Constant::Int(x))) => n == *x,
            (Expect::Function, Observation::Function) => true,
            (Expect::Blame, Observation::Blame(_)) => true,
            _ => false,
        }
    }
}

/// A source with its expected verdict.
#[derive(Debug, Clone)]
pub struct Case {
    /// GTLC source text.
    pub source: String,
    /// The hand-derived expected observation.
    pub expect: Expect,
}

/// Checks a run's result against `expect`. `fuel` is the bound the run
/// was given (a `Timeout` must stop at exactly it); `cast_frames`, when
/// present, is the run's peak coercion-frame count, which must not
/// exceed [`CAST_FRAME_BOUND`].
fn check(
    expect: Expect,
    observation: Result<&Observation, u64>,
    fuel: u64,
    cast_frames: Option<usize>,
) -> Result<(), String> {
    if let Some(frames) = cast_frames {
        if frames > CAST_FRAME_BOUND {
            return Err(format!(
                "λS machine held {frames} coercion frames (bound {CAST_FRAME_BOUND})"
            ));
        }
    }
    match observation {
        Ok(o) if expect.matches(o) => Ok(()),
        Ok(o) => Err(format!("expected {expect:?}, observed {o}")),
        Err(steps) if expect == Expect::Timeout && steps == fuel => Ok(()),
        Err(steps) => Err(format!(
            "expected {expect:?}, fuel exhausted after {steps} of {fuel} steps"
        )),
    }
}

/// Checks a [`Session::run`](blame_coercion::Session::run) result.
/// `machine_s` says whether the run was on the λS machine, whose
/// coercion-frame peak is bounded.
pub fn check_run(
    expect: Expect,
    result: &Result<RunReport, RunError>,
    fuel: u64,
    machine_s: bool,
) -> Result<(), String> {
    let frames = |m: &Option<blame_coercion::machine::metrics::Metrics>| {
        m.as_ref().filter(|_| machine_s).map(|m| m.peak_cast_frames)
    };
    match result {
        Ok(r) => check(expect, Ok(&r.observation), fuel, frames(&r.metrics)),
        Err(RunError::FuelExhausted { steps, metrics }) => {
            check(expect, Err(*steps), fuel, frames(metrics))
        }
        Err(e) => Err(format!("expected {expect:?}, run failed: {e}")),
    }
}

/// Checks a λS machine run driven directly through `bc_machine`.
pub fn check_machine(expect: Expect, run: &MachineRun, fuel: u64) -> Result<(), String> {
    let frames = Some(run.metrics.peak_cast_frames);
    match &run.outcome {
        MachineOutcome::Timeout => check(expect, Err(run.metrics.steps), fuel, frames),
        outcome => check(expect, Ok(&outcome.to_observation()), fuel, frames),
    }
}

/// Checks a pool job's result (every pool job in this benchmark runs on
/// the λS machine).
pub fn check_job(
    expect: Expect,
    result: &Result<JobOutput, JobError>,
    fuel: u64,
) -> Result<(), String> {
    let frames = |m: &Option<blame_coercion::machine::metrics::Metrics>| {
        m.as_ref().map(|m| m.peak_cast_frames)
    };
    match result {
        Ok(o) => check(expect, Ok(&o.observation), fuel, frames(&o.metrics)),
        Err(JobError::Run(RunError::FuelExhausted { steps, metrics })) => {
            check(expect, Err(*steps), fuel, frames(metrics))
        }
        Err(e) => Err(format!("expected {expect:?}, job failed: {e}")),
    }
}

/// `T₀ = Int`, `Tₖ = Tₖ₋₁ → Tₖ₋₁`: a type of size 2^(k+1) − 1.
fn tower_type(k: u64) -> String {
    if k == 0 {
        "Int".to_owned()
    } else {
        let inner = tower_type(k - 1);
        format!("({inner} -> {inner})")
    }
}

/// A right-nested arrow chain of `len` + 1 leaves whose `Int`/`Bool`
/// choices spell `bits`, lowest bit outermost. Consecutive values of
/// `bits` share the inner spine, so each new value interns only a few
/// new nodes.
fn chain_type(bits: u64, len: u32) -> String {
    let leaf = |j: u32| if (bits >> j) & 1 == 0 { "Int" } else { "Bool" };
    let mut ty = String::from(leaf(len));
    for j in (0..len).rev() {
        ty = format!("{} -> ({ty})", leaf(j));
    }
    ty
}

/// Leaves in a corpus phase type: 64 phases, all distinct.
const PHASE_BITS: u32 = 6;
/// Leaves in a fresh type: 2^20 distinct values, more than any run
/// consumes, and never the length of a phase type.
const FRESH_BITS: u32 = 20;

/// One function applied at `calls` nested sites, its annotation a
/// tower of depth `depth`: few distinct types, many comparisons.
/// Evaluates to a function.
pub fn call_heavy(depth: u64, calls: u64) -> Case {
    let param = tower_type(depth);
    let arg = tower_type(depth - 1);
    let mut app = String::from("x");
    for _ in 0..calls {
        app = format!("(f {app})");
    }
    Case {
        source: format!("fun (f : {param}) => fun (x : {arg}) => {app}"),
        expect: Expect::Function,
    }
}

/// Identity functions at towers of depth 1..=`depth`, applied in a
/// chain down to `f0 41`, which adds one: evaluates to 42.
pub fn wrapper_tower(depth: u64) -> Case {
    let mut src = String::from("let f0 = fun (x : Int) => x + 1 in ");
    for k in 1..=depth {
        src.push_str(&format!("let f{k} = fun (x : {}) => x in ", tower_type(k)));
    }
    let mut app = format!("f{depth}");
    for k in (0..depth).rev() {
        app = format!("({app} f{k})");
    }
    src.push_str(&format!("({app} 41)"));
    Case {
        source: src,
        expect: Expect::Int(42),
    }
}

/// Three cast shapes around a chain type `ty`, chosen by `variant`:
/// a dynamic function projected to `ty` and dropped (evaluates to
/// `k`); a `ty`-typed identity sent through `?` and back (a wrapped
/// function); and a function over `ty` called at `Int` through `?`,
/// whose argument projection `? ⇒ ty` fails (blame).
fn cast_shape(ty: &str, variant: u64, k: i64) -> Case {
    match variant % 3 {
        0 => Case {
            source: format!("let f = ((fun x => x) : ?) in let g = (f : {ty}) in {k}"),
            expect: Expect::Int(k),
        },
        1 => Case {
            source: format!(
                "let poly = fun (x : {ty}) => x in \
                 let d = ((poly : ?) : ({ty}) -> ({ty})) in d"
            ),
            expect: Expect::Function,
        },
        _ => Case {
            source: format!("let h = fun (x : {ty}) => {k} in ((h : ?) : Int -> Int) {k}"),
            expect: Expect::Blame,
        },
    }
}

/// A cast shape over one of the 64 corpus phase types.
pub fn phase_cast(phase: u64, variant: u64, k: i64) -> Case {
    cast_shape(&chain_type(phase, PHASE_BITS), variant, k)
}

/// A cast shape over the `n`-th fresh type: a chain no corpus source
/// and no earlier fresh source uses, so compiling it interns new type
/// and coercion nodes.
pub fn fresh_cast(n: u64, k: i64) -> Case {
    cast_shape(&chain_type(n, FRESH_BITS), n, k)
}

/// Shuffles `items` in place with a seeded Fisher–Yates pass.
pub fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// Programs per tower depth in each structural group of the
/// `compile_heavy` corpus.
const PER_DEPTH: u64 = 16;

/// The `compile_heavy` corpus: 288 annotation-heavy sources, a third
/// each call-heavy programs, wrapper towers and phase casts. The
/// structural sizes are spread evenly rather than drawn — every tower
/// depth 3–8 appears equally often, and call-site counts cover 8–64
/// evenly — so the corpus's total work barely depends on the seed,
/// which picks the order, the phase types and the constants.
pub fn compile_corpus(seed: u64) -> Vec<Case> {
    let mut rng = Rng::new(seed, 1);
    let mut corpus = Vec::new();
    for depth in 3..=8 {
        for m in 0..PER_DEPTH {
            corpus.push(call_heavy(depth, 8 + m * 56 / (PER_DEPTH - 1)));
            corpus.push(wrapper_tower(depth));
            let phase = rng.range(0, 63);
            corpus.push(phase_cast(phase, m, rng.range(1, 99) as i64));
        }
    }
    shuffle(&mut corpus, &mut rng);
    corpus
}

/// `count` values spread evenly over `lo..hi`, each moved up by a
/// seeded jitter of at most a quarter of the spacing: seeded inputs
/// whose total work, and whose heaviest members, barely depend on the
/// seed.
pub fn spread(rng: &mut Rng, lo: u64, hi: u64, count: u64) -> Vec<u64> {
    let step = (hi - lo) / count;
    (0..count)
        .map(|j| lo + j * step + rng.next_u64() % (step / 4).max(1))
        .collect()
}

/// The boundary-crossing loop: a tail call through `?` on every
/// iteration. Evaluates to `true`.
pub fn boundary_loop(n: u64) -> Case {
    Case {
        source: format!(
            "letrec loop (n : Int) : Bool = \
               if n = 0 then true else ((loop : ?) : Int -> Bool) (n - 1) \
             in loop {n}"
        ),
        expect: Expect::Bool(true),
    }
}

/// The cast-free loop. Evaluates to `true`.
pub fn static_loop(n: u64) -> Case {
    Case {
        source: format!(
            "letrec loop (n : Int) : Bool = \
               if n = 0 then true else loop (n - 1) \
             in loop {n}"
        ),
        expect: Expect::Bool(true),
    }
}

/// Parity by steps of two. Evaluates to whether `n` is even.
pub fn even_odd(n: u64) -> Case {
    Case {
        source: format!(
            "letrec even (n : Int) : Bool = \
               if n = 0 then true else \
               if n = 1 then false else even (n - 2) \
             in even {n}"
        ),
        expect: Expect::Bool(n.is_multiple_of(2)),
    }
}

/// The `twice` combinator over `? -> ?`, iterated `n` times on an
/// accumulator starting at `k`: each iteration adds `2k`, so the
/// result is `k(2n + 1)` — `3k` for a single application.
pub fn twice_loop(k: u64, n: u64) -> Case {
    Case {
        source: format!(
            "let twice = fun (f : ? -> ?) => fun (x : ?) => f (f x) in \
             let inc = fun x => x + {k} in \
             letrec go (n : Int) : Int -> Int = fun (acc : Int) => \
               if n = 0 then acc else go (n - 1) (twice (inc : ? -> ?) acc) \
             in go {n} {k}"
        ),
        expect: Expect::Int((k * (2 * n + 1)) as i64),
    }
}

/// The expected verdict of a source from `bc_testkit::sources::mixed`
/// or `bc_testkit::sources::drifting`, read off its shape and
/// constants. `None` for a shape this oracle does not know, which the
/// caller treats as a failure.
pub fn expect_testkit(source: &str) -> Option<Expect> {
    let trailing_int = || -> Option<i64> {
        let digits: String = source
            .chars()
            .rev()
            .take_while(char::is_ascii_digit)
            .collect::<Vec<_>>()
            .into_iter()
            .rev()
            .collect();
        digits.parse().ok()
    };
    if source.starts_with("letrec loop") {
        // Both loops count down to zero and answer `true`.
        Some(Expect::Bool(true))
    } else if source.starts_with("letrec even") {
        Some(Expect::Bool(trailing_int()? % 2 == 0))
    } else if source.starts_with("letrec spin") {
        Some(Expect::Timeout)
    } else if source.starts_with("let twice") {
        // `twice inc k` with `inc x = x + k`: k + k + k.
        let k: i64 = source
            .split("x + ")
            .nth(1)?
            .split(' ')
            .next()?
            .parse()
            .ok()?;
        Some(Expect::Int(3 * k))
    } else if source.starts_with("let f = fun x => x + ") && source.ends_with("f true") {
        // `true + k`: the Bool crosses into an Int operation.
        Some(Expect::Blame)
    } else if source.starts_with("let f = ((fun x => x) : ?)") || source.starts_with("let poly") {
        // A cast bound and dropped, then the trailing constant.
        Some(Expect::Int(trailing_int()?))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_types_are_distinct_from_each_other_and_from_phases() {
        let fresh: std::collections::HashSet<String> =
            (0..512).map(|n| chain_type(n, FRESH_BITS)).collect();
        assert_eq!(fresh.len(), 512);
        assert!((0..64).all(|p| !fresh.contains(&chain_type(p, PHASE_BITS))));
    }

    #[test]
    fn testkit_sources_all_have_an_expected_verdict() {
        for source in bc_testkit::sources::mixed(7, 96)
            .iter()
            .chain(&bc_testkit::sources::drifting(7, 96, 8))
        {
            assert!(expect_testkit(source).is_some(), "{source}");
        }
    }
}
