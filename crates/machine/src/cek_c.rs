//! A CEK machine for λC.
//!
//! Coercions become continuation frames, pushed and never merged — the
//! same leak as the λB machine, expressed in coercion syntax. Compare
//! with [`crate::cek_s`], which differs *only* in merging adjacent
//! coercion frames.
//!
//! The machine is the core it shares with [`crate::cek_b`], with
//! [`Coercion`] as its boundary; this module holds only λC's boundary
//! rules.

use bc_lambda_c::coercion::Coercion;
use bc_lambda_c::term::Term;
use bc_syntax::Label;
use bc_translate::bisim::Observation;

use crate::cek::{self, Boundary, Value, View};
use crate::metrics::{MachineRun, SliceResult};

impl Boundary for Coercion {
    type Term = Term;

    fn view(term: &Term) -> View<'_, Term, Coercion> {
        match term {
            Term::Const(k) => View::Const(*k),
            Term::Op(op, args) => View::Op(*op, args),
            Term::Var(x) => View::Var(x),
            Term::Lam(x, _, body) => View::Lam(x, body),
            Term::Fix(f, x, _, _, body) => View::Fix(f, x, body),
            Term::App(l, r) => View::App(l, r),
            Term::Coerce(inner, c) => View::Boundary(inner, c),
            Term::Blame(p, _) => View::Blame(*p),
            Term::If(c, t, e) => View::If(c, t, e),
            Term::Let(x, bound, body) => View::Let(x, bound, body),
        }
    }

    fn size(&self) -> usize {
        Coercion::size(self)
    }

    /// Applies a coercion to a value immediately.
    fn cross(&self, v: Value<Coercion>) -> Result<Value<Coercion>, Label> {
        match self {
            Coercion::Id(_) => Ok(v),
            Coercion::Seq(c1, c2) => c2.cross(c1.cross(v)?),
            Coercion::Inj(_) | Coercion::Fun(_, _) => Ok(v.wrap(self.clone())),
            Coercion::Proj(h, p) => match v {
                Value::Wrapped(w) => match w.1 {
                    Coercion::Inj(g) if g == *h => Ok(w.0.clone()),
                    Coercion::Inj(_) => Err(*p),
                    ref other => unreachable!("projected a non-injection {other}"),
                },
                other => unreachable!("projected a non-injection {other:?}"),
            },
            Coercion::Fail(_, p, _) => Err(*p),
        }
    }

    /// `(V⟨c → d⟩) W`: coerces the argument with `c` and returns the
    /// (unmerged!) result coercion `d`.
    fn split_call(&self, arg: Value<Coercion>) -> Result<(Value<Coercion>, Coercion), Label> {
        let Coercion::Fun(c, d) = self else {
            unreachable!("applied a value under the non-function coercion {self}")
        };
        Ok((c.cross(arg)?, (**d).clone()))
    }

    fn observe(&self, inner: &Value<Coercion>) -> Observation {
        match self {
            Coercion::Fun(_, _) => Observation::Function,
            Coercion::Inj(g) => Observation::Injected(*g, Box::new(inner.observe())),
            other => unreachable!("coerced value with non-value coercion {other}"),
        }
    }
}

/// A preempted λC machine run, parked between fuel slices.
///
/// Same contract as [`crate::cek_b::Paused`]: resuming is
/// observationally identical to never having parked, and the state is
/// deliberately worker-local (`Rc`-shared values, not `Send`).
pub type Paused = cek::Paused<Coercion>;

/// Lowers a closed λC term and begins a resumable run of it. No steps
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
/// Fuel is checked before the slice budget, so `resume(start(t, f),
/// f)` is exactly [`run`]`(t, f)`.
///
/// # Panics
///
/// Panics on ill-typed input. Open terms already panicked in
/// [`start`].
pub fn resume(paused: Paused, slice: u64) -> SliceResult<Paused> {
    cek::resume(paused, slice)
}

/// Runs a closed, well-typed λC term on the CEK machine in one slice.
///
/// # Panics
///
/// Panics on open input (while lowering, before the first step) or
/// ill-typed input.
pub fn run(term: &Term, fuel: u64) -> MachineRun {
    cek::run::<Coercion>(term, fuel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_lambda_b::programs;
    use bc_translate::term_b_to_c;

    #[test]
    fn machine_agrees_with_small_step() {
        use bc_lambda_c::eval;
        use bc_translate::bisim::observe_c;
        for (name, t) in [
            ("boundary_loop", programs::boundary_loop(6)),
            ("even_odd_mixed", programs::even_odd_mixed(5)),
            ("even_untyped", programs::even_untyped(4)),
        ] {
            let tc = term_b_to_c(&t);
            let small = observe_c(&eval::run(&tc, 1_000_000).unwrap().outcome);
            let machine = run(&tc, 1_000_000).outcome.to_observation();
            assert_eq!(small, machine, "{name}");
        }
    }

    #[test]
    fn the_leak_persists_in_coercion_form() {
        let m8 = run(&term_b_to_c(&programs::boundary_loop(8)), 1_000_000);
        let m64 = run(&term_b_to_c(&programs::boundary_loop(64)), 1_000_000);
        assert!(
            m64.metrics.peak_cast_frames >= m8.metrics.peak_cast_frames + 56,
            "expected linear frame growth: {} vs {}",
            m8.metrics.peak_cast_frames,
            m64.metrics.peak_cast_frames
        );
    }
}
