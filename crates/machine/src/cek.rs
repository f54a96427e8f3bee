//! The CEK core shared by the λB and λC machines.
//!
//! The two machines differ only at boundaries: λB pushes cast frames,
//! λC pushes coercion frames. Everything else — lowering, the
//! environment, the continuation, the exec loop, closure application —
//! lives here once, generic over the boundary payload `P` (a
//! [`Boundary`]). Each machine module supplies only what makes it that
//! calculus: how a value crosses its boundary, how a function proxy
//! applies, the size of a boundary frame, and how a wrapped value is
//! observed.
//!
//! [`start`] lowers the calculus's term once into a [`Code`] tree with
//! `Rc` children (an `Eval` clones one pointer), variables resolved to
//! de Bruijn indices (closures and environments carry no names), and
//! fixed-arity operator nodes (no `Vec` per operator evaluation).

use std::fmt::Debug;
use std::rc::Rc;

use bc_syntax::{Constant, Label, Name, Op};
use bc_translate::bisim::Observation;

use crate::metrics::{MachineOutcome, MachineRun, Metrics, SliceResult};

/// A calculus's boundary payload (a λB cast or a λC coercion) and the
/// rules the shared machine needs from it.
pub(crate) trait Boundary: Clone + Debug + 'static {
    /// The calculus's term type.
    type Term;

    /// One layer of `term`, for lowering.
    fn view(term: &Self::Term) -> View<'_, Self::Term, Self>;

    /// The size (syntax nodes) a frame holding this boundary adds to
    /// [`Metrics::peak_cast_size`].
    fn size(&self) -> usize;

    /// Moves `v` across this boundary. Values cross without machine
    /// steps; function boundaries and injections wrap.
    ///
    /// # Errors
    ///
    /// The blame label of a failed projection.
    fn cross(&self, v: Value<Self>) -> Result<Value<Self>, Label>;

    /// Applies a function proxy wrapped by this boundary to `arg`:
    /// returns the argument crossed into the wrapped function and the
    /// boundary its result must cross on the way out.
    ///
    /// # Errors
    ///
    /// The blame label of a failed argument projection.
    fn split_call(&self, arg: Value<Self>) -> Result<(Value<Self>, Self), Label>;

    /// The observation of `inner` wrapped in this boundary.
    fn observe(&self, inner: &Value<Self>) -> Observation;
}

/// One layer of a calculus term, as lowering sees it.
pub(crate) enum View<'a, T, P> {
    /// A constant.
    Const(Constant),
    /// A variable.
    Var(&'a Name),
    /// `λx. body`.
    Lam(&'a Name, &'a T),
    /// `fix f (x). body`.
    Fix(&'a Name, &'a Name, &'a T),
    /// An application.
    App(&'a T, &'a T),
    /// An operator application.
    Op(Op, &'a [T]),
    /// A term under a boundary (cast or coercion).
    Boundary(&'a T, &'a P),
    /// `blame p`.
    Blame(Label),
    /// A conditional.
    If(&'a T, &'a T, &'a T),
    /// `let x = bound in body`.
    Let(&'a Name, &'a T, &'a T),
}

/// A lowered term: variables are de Bruijn indices into the [`Env`],
/// operators have fixed arity, and boundaries carry their frame size.
#[derive(Debug)]
pub(crate) enum Code<P> {
    /// A constant.
    Const(Constant),
    /// A variable, as its de Bruijn index (0 is the innermost binder).
    Var(usize),
    /// An abstraction; its body sees the argument at index 0.
    Lam(Rc<Code<P>>),
    /// A recursive function; its body sees the argument at index 0 and
    /// the function itself at index 1.
    Fix(Rc<Code<P>>),
    /// An application.
    App(Rc<Code<P>>, Rc<Code<P>>),
    /// A unary operator application.
    Op1(Op, Rc<Code<P>>),
    /// A binary operator application.
    Op2(Op, Rc<Code<P>>, Rc<Code<P>>),
    /// A term under a boundary, with the boundary's frame size.
    Boundary(Rc<Code<P>>, P, usize),
    /// `blame p`.
    Blame(Label),
    /// A conditional.
    If(Rc<Code<P>>, Rc<Code<P>>, Rc<Code<P>>),
    /// `let`; the body sees the bound value at index 0.
    Let(Rc<Code<P>>, Rc<Code<P>>),
}

/// Run-time values.
#[derive(Debug, Clone)]
pub(crate) enum Value<P> {
    /// A constant.
    Const(Constant),
    /// A closure: body and captured environment.
    Closure(Rc<Code<P>>, Env<P>),
    /// A recursive closure: body and captured environment.
    Fix(Rc<Code<P>>, Env<P>),
    /// A value wrapped in a boundary: a function proxy or an injection.
    Wrapped(Rc<(Value<P>, P)>),
}

impl<P: Boundary> Value<P> {
    /// Wraps `self` in the boundary `p`.
    pub(crate) fn wrap(self, p: P) -> Value<P> {
        Value::Wrapped(Rc::new((self, p)))
    }

    /// The calculus-agnostic observation of this value.
    pub(crate) fn observe(&self) -> Observation {
        match self {
            Value::Const(k) => Observation::Constant(*k),
            Value::Closure(..) | Value::Fix(..) => Observation::Function,
            Value::Wrapped(w) => w.1.observe(&w.0),
        }
    }

    fn constant(self) -> Constant {
        match self {
            Value::Const(k) => k,
            other => unreachable!("operator got non-constant {other:?}"),
        }
    }
}

/// A persistent environment of values addressed by de Bruijn index.
#[derive(Debug, Clone)]
pub(crate) struct Env<P>(Option<Rc<(Value<P>, Env<P>)>>);

impl<P> Env<P> {
    fn bind(self, value: Value<P>) -> Env<P> {
        Env(Some(Rc::new((value, self))))
    }

    fn get(&self, index: usize) -> &Value<P> {
        let mut node = self.0.as_deref();
        for _ in 0..index {
            node = node.and_then(|(_, rest)| rest.0.as_deref());
        }
        &node.expect("de Bruijn index within the environment").0
    }
}

enum Frame<P> {
    AppArg(Rc<Code<P>>, Env<P>),
    AppCall(Value<P>),
    Op1(Op),
    Op2Left(Op, Rc<Code<P>>, Env<P>),
    Op2Right(Op, Constant),
    If(Rc<Code<P>>, Rc<Code<P>>, Env<P>),
    Let(Rc<Code<P>>, Env<P>),
    /// A cast or coercion frame, with its size computed once when the
    /// frame is built.
    Boundary(P, usize),
}

enum Control<P> {
    Eval(Rc<Code<P>>, Env<P>),
    Ret(Value<P>),
}

struct Machine<P> {
    stack: Vec<Frame<P>>,
    metrics: Metrics,
    boundary_frames: usize,
    boundary_size: usize,
}

impl<P: Boundary> Machine<P> {
    fn push(&mut self, f: Frame<P>) {
        if let Frame::Boundary(_, size) = &f {
            self.boundary_frames += 1;
            self.boundary_size += size;
        }
        self.stack.push(f);
        self.metrics
            .observe(self.stack.len(), self.boundary_frames, self.boundary_size);
    }

    fn pop(&mut self) -> Option<Frame<P>> {
        let f = self.stack.pop();
        if let Some(Frame::Boundary(_, size)) = &f {
            self.boundary_frames -= 1;
            self.boundary_size -= size;
        }
        f
    }

    /// One transition; `Err` is the run's final outcome.
    fn step(&mut self, control: Control<P>) -> Result<Control<P>, MachineOutcome> {
        Ok(match control {
            Control::Eval(code, env) => match &*code {
                Code::Const(k) => Control::Ret(Value::Const(*k)),
                Code::Var(i) => Control::Ret(env.get(*i).clone()),
                Code::Lam(body) => Control::Ret(Value::Closure(body.clone(), env)),
                Code::Fix(body) => Control::Ret(Value::Fix(body.clone(), env)),
                Code::App(l, r) => {
                    self.push(Frame::AppArg(r.clone(), env.clone()));
                    Control::Eval(l.clone(), env)
                }
                Code::Op1(op, a) => {
                    self.push(Frame::Op1(*op));
                    Control::Eval(a.clone(), env)
                }
                Code::Op2(op, a, b) => {
                    self.push(Frame::Op2Left(*op, b.clone(), env.clone()));
                    Control::Eval(a.clone(), env)
                }
                Code::Boundary(inner, p, size) => {
                    self.push(Frame::Boundary(p.clone(), *size));
                    Control::Eval(inner.clone(), env)
                }
                Code::Blame(p) => return Err(MachineOutcome::Blame(*p)),
                Code::If(c, t, e) => {
                    self.push(Frame::If(t.clone(), e.clone(), env.clone()));
                    Control::Eval(c.clone(), env)
                }
                Code::Let(bound, body) => {
                    self.push(Frame::Let(body.clone(), env.clone()));
                    Control::Eval(bound.clone(), env)
                }
            },
            Control::Ret(v) => match self.pop() {
                None => return Err(MachineOutcome::Value(v.observe())),
                Some(Frame::AppArg(arg, env)) => {
                    self.push(Frame::AppCall(v));
                    Control::Eval(arg, env)
                }
                Some(Frame::AppCall(fun)) => self.apply(fun, v).map_err(MachineOutcome::Blame)?,
                Some(Frame::Op1(op)) => Control::Ret(Value::Const(op.apply(&[v.constant()]))),
                Some(Frame::Op2Left(op, rhs, env)) => {
                    self.push(Frame::Op2Right(op, v.constant()));
                    Control::Eval(rhs, env)
                }
                Some(Frame::Op2Right(op, lhs)) => {
                    Control::Ret(Value::Const(op.apply(&[lhs, v.constant()])))
                }
                Some(Frame::If(then_, else_, env)) => match v {
                    Value::Const(Constant::Bool(true)) => Control::Eval(then_, env),
                    Value::Const(Constant::Bool(false)) => Control::Eval(else_, env),
                    other => unreachable!("if condition returned {other:?}"),
                },
                Some(Frame::Let(body, env)) => Control::Eval(body, env.bind(v)),
                Some(Frame::Boundary(p, _)) => {
                    Control::Ret(p.cross(v).map_err(MachineOutcome::Blame)?)
                }
            },
        })
    }

    /// Applies `fun` to `arg`, unwrapping function proxies: each proxy
    /// crosses the argument and pushes its (unmerged) result boundary.
    fn apply(&mut self, fun: Value<P>, arg: Value<P>) -> Result<Control<P>, Label> {
        match fun {
            Value::Closure(body, env) => Ok(Control::Eval(body, env.bind(arg))),
            Value::Fix(body, env) => {
                let me = Value::Fix(body.clone(), env.clone());
                Ok(Control::Eval(body, env.bind(me).bind(arg)))
            }
            Value::Wrapped(w) => {
                let (inner, proxy) = &*w;
                let (arg, result) = proxy.split_call(arg)?;
                let size = result.size();
                self.push(Frame::Boundary(result, size));
                self.apply(inner.clone(), arg)
            }
            Value::Const(k) => unreachable!("applied the constant {k}"),
        }
    }
}

/// Lowers `term` under `scope` (bound names, innermost last).
fn lower<'a, P: Boundary>(term: &'a P::Term, scope: &mut Vec<&'a Name>) -> Rc<Code<P>> {
    fn under<'a, P: Boundary>(
        names: &[&'a Name],
        body: &'a P::Term,
        scope: &mut Vec<&'a Name>,
    ) -> Rc<Code<P>> {
        scope.extend_from_slice(names);
        let code = lower(body, scope);
        scope.truncate(scope.len() - names.len());
        code
    }
    Rc::new(match P::view(term) {
        View::Const(k) => Code::Const(k),
        View::Var(x) => Code::Var(
            scope
                .iter()
                .rev()
                .position(|y| *y == x)
                .unwrap_or_else(|| panic!("unbound variable `{x}`")),
        ),
        View::Lam(x, body) => Code::Lam(under(&[x], body, scope)),
        View::Fix(f, x, body) => Code::Fix(under(&[f, x], body, scope)),
        View::App(l, r) => Code::App(lower(l, scope), lower(r, scope)),
        View::Op(op, [a]) => Code::Op1(op, lower(a, scope)),
        View::Op(op, [a, b]) => Code::Op2(op, lower(a, scope), lower(b, scope)),
        View::Op(op, args) => panic!("operator {op} applied to {} arguments", args.len()),
        View::Boundary(inner, p) => Code::Boundary(lower(inner, scope), p.clone(), p.size()),
        View::Blame(p) => Code::Blame(p),
        View::If(c, t, e) => Code::If(lower(c, scope), lower(t, scope), lower(e, scope)),
        View::Let(x, bound, body) => Code::Let(lower(bound, scope), under(&[x], body, scope)),
    })
}

/// A preempted run, parked between fuel slices: the machine state
/// plus the run's total fuel. Each machine module documents its alias.
pub struct Paused<P> {
    machine: Machine<P>,
    control: Control<P>,
    fuel: u64,
}

impl<P> Paused<P> {
    /// Machine transitions taken so far, across all slices.
    pub fn steps(&self) -> u64 {
        self.machine.metrics.steps
    }
}

/// Lowers a closed term and parks it before its first step.
///
/// # Panics
///
/// Panics on an open term (an unbound variable) or an operator applied
/// to the wrong number of arguments.
pub(crate) fn start<P: Boundary>(term: &P::Term, fuel: u64) -> Paused<P> {
    Paused {
        machine: Machine {
            stack: Vec::new(),
            metrics: Metrics::default(),
            boundary_frames: 0,
            boundary_size: 0,
        },
        control: Control::Eval(lower(term, &mut Vec::new()), Env(None)),
        fuel,
    }
}

/// Runs a parked machine for at most `slice` further transitions.
/// Fuel is checked before the slice budget, so a slice at least as
/// large as the remaining fuel can never park.
///
/// # Panics
///
/// Panics on ill-typed input.
pub(crate) fn resume<P: Boundary>(paused: Paused<P>, slice: u64) -> SliceResult<Paused<P>> {
    let Paused {
        machine: mut m,
        mut control,
        fuel,
    } = paused;
    let until = m.metrics.steps.saturating_add(slice);
    loop {
        if m.metrics.steps >= fuel {
            return SliceResult::Done(MachineRun {
                outcome: MachineOutcome::Timeout,
                metrics: m.metrics,
            });
        }
        if m.metrics.steps >= until {
            return SliceResult::Parked(Paused {
                machine: m,
                control,
                fuel,
            });
        }
        m.metrics.steps += 1;
        control = match m.step(control) {
            Ok(next) => next,
            Err(outcome) => {
                return SliceResult::Done(MachineRun {
                    outcome,
                    metrics: m.metrics,
                })
            }
        };
    }
}

/// Runs a closed, well-typed term in one slice of all the fuel.
///
/// # Panics
///
/// Panics on open or ill-typed input.
pub(crate) fn run<P: Boundary>(term: &P::Term, fuel: u64) -> MachineRun {
    match resume(start::<P>(term, fuel), fuel) {
        SliceResult::Done(r) => r,
        SliceResult::Parked(_) => unreachable!("a slice of the whole fuel cannot park"),
    }
}
