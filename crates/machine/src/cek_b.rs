//! A CEK machine for λB.
//!
//! Casts become continuation frames; a pending result cast is pushed
//! for every function-cast application and *never merged*, so
//! boundary-crossing tail calls grow the continuation — the machine
//! reproduces the space leak of §1 faithfully (see the metrics).
//!
//! The machine is the core it shares with [`crate::cek_c`], with
//! [`Cast`] as its boundary; this module holds only λB's boundary
//! rules.

use bc_lambda_b::term::{Cast, Term};
use bc_syntax::{Label, Type};
use bc_translate::bisim::Observation;

use crate::cek::{self, Boundary, Value, View};
use crate::metrics::{MachineRun, SliceResult};

impl Boundary for Cast {
    type Term = Term;

    fn view(term: &Term) -> View<'_, Term, Cast> {
        match term {
            Term::Const(k) => View::Const(*k),
            Term::Op(op, args) => View::Op(*op, args),
            Term::Var(x) => View::Var(x),
            Term::Lam(x, _, body) => View::Lam(x, body),
            Term::Fix(f, x, _, _, body) => View::Fix(f, x, body),
            Term::App(l, r) => View::App(l, r),
            Term::Cast(inner, c) => View::Boundary(inner, c),
            Term::Blame(p, _) => View::Blame(*p),
            Term::If(c, t, e) => View::If(c, t, e),
            Term::Let(x, bound, body) => View::Let(x, bound, body),
        }
    }

    fn size(&self) -> usize {
        self.source.size() + self.target.size() + 1
    }

    /// Applies a cast to a value immediately (values cross casts
    /// without machine steps; function casts and injections wrap).
    fn cross(&self, v: Value<Cast>) -> Result<Value<Cast>, Label> {
        match (&self.source, &self.target) {
            (Type::Base(_), Type::Base(_)) | (Type::Dyn, Type::Dyn) => Ok(v),
            (Type::Fun(_, _), Type::Fun(_, _)) => Ok(v.wrap(self.clone())),
            (a, Type::Dyn) if a.is_ground() => Ok(v.wrap(self.clone())),
            (a, Type::Dyn) => {
                let g = a.ground_of().expect("not ? here").ty();
                let first = Cast::new(a.clone(), self.label, g.clone()).cross(v)?;
                Cast::new(g, self.label, Type::Dyn).cross(first)
            }
            (Type::Dyn, b) => match b.as_ground() {
                Some(h) => match v {
                    Value::Wrapped(w) => {
                        let g = w.1.source.as_ground().expect("injection from ground");
                        if g == h {
                            Ok(w.0.clone())
                        } else {
                            Err(self.label)
                        }
                    }
                    other => unreachable!("value of type ? is not an injection: {other:?}"),
                },
                None => {
                    let g = b.ground_of().expect("not ? here").ty();
                    let first = Cast::new(Type::Dyn, self.label, g.clone()).cross(v)?;
                    Cast::new(g, self.label, b.clone()).cross(first)
                }
            },
            (a, b) => unreachable!("ill-typed cast {a} ⇒ {b} reached the machine"),
        }
    }

    /// `(V : A→B ⇒p A'→B') W`: casts the argument with `p̄` and
    /// returns the (unmerged!) result cast `B ⇒p B'`.
    fn split_call(&self, arg: Value<Cast>) -> Result<(Value<Cast>, Cast), Label> {
        let (Type::Fun(a, b), Type::Fun(a2, b2)) = (&self.source, &self.target) else {
            unreachable!("applied a non-function wrapper {self}")
        };
        let arg = Cast::new((**a2).clone(), self.label.complement(), (**a).clone()).cross(arg)?;
        Ok((arg, Cast::new((**b).clone(), self.label, (**b2).clone())))
    }

    fn observe(&self, inner: &Value<Cast>) -> Observation {
        match (&self.source, &self.target) {
            (Type::Fun(_, _), Type::Fun(_, _)) => Observation::Function,
            (src, Type::Dyn) => Observation::Injected(
                src.as_ground().expect("injection from ground"),
                Box::new(inner.observe()),
            ),
            _ => unreachable!("wrapped value with a non-value cast"),
        }
    }
}

/// A preempted λB machine run, parked between fuel slices.
///
/// Holds the complete machine state — continuation stack, control,
/// and metrics — plus the run's total fuel, so [`resume`] continues
/// exactly where the last slice stopped. Slicing is invisible to the
/// semantics: the fuel check (`steps >= fuel`) happens before every
/// transition whether sliced or not, so steps, space peaks, and the
/// final outcome are identical to an unsliced [`run`].
///
/// Values and environments are `Rc`-shared, so a parked run is
/// deliberately **not** `Send`: it stays on the worker thread that
/// started it. (An `Arc` spine was measured ~30% slower end to end
/// in this machine family, so cross-thread parking is not worth the
/// price; the scheduler parks per worker instead.)
pub type Paused = cek::Paused<Cast>;

/// Lowers a closed λB term and begins a resumable run of it. No steps
/// are taken; drive the machine with [`resume`].
///
/// # Panics
///
/// Panics on an open term: lowering resolves every variable, so an
/// unbound one panics here rather than when it is reached.
pub fn start(term: &Term, fuel: u64) -> Paused {
    cek::start(term, fuel)
}

/// Runs a parked machine for at most `slice` further transitions.
///
/// Fuel exhaustion is checked before the slice budget (fuel and
/// slices count the same unit: machine transitions), so a slice at
/// least as large as the remaining fuel can never park —
/// `resume(start(t, fuel), fuel)` is exactly [`run`]`(t, fuel)`.
///
/// # Panics
///
/// Panics on ill-typed input (type-check first). Open terms already
/// panicked in [`start`].
pub fn resume(paused: Paused, slice: u64) -> SliceResult<Paused> {
    cek::resume(paused, slice)
}

/// Runs a closed, well-typed λB term on the CEK machine in one slice.
///
/// # Panics
///
/// Panics on open input (while lowering, before the first step) or
/// ill-typed input (type-check first).
pub fn run(term: &Term, fuel: u64) -> MachineRun {
    cek::run::<Cast>(term, fuel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MachineOutcome;
    use bc_lambda_b::programs;

    #[test]
    fn machine_agrees_with_small_step() {
        use bc_lambda_b::eval;
        use bc_translate::bisim::observe_b;
        for (name, t) in [
            ("boundary_loop", programs::boundary_loop(6)),
            ("even_odd_mixed", programs::even_odd_mixed(5)),
            ("even_typed", programs::even_typed(8)),
            ("even_untyped", programs::even_untyped(4)),
            ("wrapped_identity", programs::wrapped_identity(4)),
        ] {
            let small = observe_b(&eval::run(&t, 1_000_000).unwrap().outcome);
            let machine = run(&t, 1_000_000).outcome.to_observation();
            assert_eq!(small, machine, "{name}");
        }
    }

    #[test]
    fn blame_agrees_with_small_step() {
        use bc_lambda_b::eval;
        use bc_syntax::Label;
        let t = Term::int(1).cast(Type::INT, Label::new(0), Type::DYN).cast(
            Type::DYN,
            Label::new(1),
            Type::BOOL,
        );
        let small = eval::run(&t, 100).unwrap().outcome;
        let machine = run(&t, 100).outcome;
        assert_eq!(machine, MachineOutcome::Blame(Label::new(1)));
        assert!(matches!(small, eval::Outcome::Blame(l) if l == Label::new(1)));
    }

    #[test]
    #[should_panic(expected = "unbound variable `x`")]
    fn open_terms_panic_while_lowering() {
        // The unbound `x` sits under an abstraction that never runs.
        let _ = start(&Term::lam("y", Type::INT, Term::var("x")), 10);
    }

    #[test]
    fn the_leak_is_real() {
        // Peak cast frames grow linearly with the iteration count.
        let m8 = run(&programs::boundary_loop(8), 1_000_000);
        let m64 = run(&programs::boundary_loop(64), 1_000_000);
        assert!(
            m64.metrics.peak_cast_frames >= m8.metrics.peak_cast_frames + 56,
            "expected linear frame growth: {} vs {}",
            m8.metrics.peak_cast_frames,
            m64.metrics.peak_cast_frames
        );
    }

    #[test]
    fn typed_code_has_no_cast_frames() {
        let m = run(&programs::even_typed(64), 1_000_000);
        assert_eq!(m.metrics.peak_cast_frames, 0);
        // Proper tail calls: continuation depth is constant-bounded.
        let m2 = run(&programs::even_typed(128), 1_000_000);
        assert_eq!(m.metrics.peak_frames, m2.metrics.peak_frames);
    }
}
