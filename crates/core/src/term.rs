//! Terms of effect heads, and ground service calls.
//!
//! Effect heads `E_i` may mention (Section 2.2): constants of `ADOM(I₀)`,
//! the action's input parameters, free variables of the effect's positive
//! query — all represented as [`BaseTerm`]s — and Skolem terms `f(t, ...)`
//! applying a service function to base terms ([`ETerm::Call`]). Grounding a
//! head under a substitution yields [`GTerm`]s: values or *ground service
//! calls* ([`ServiceCall`]), the elements of the set
//! `SC = { f(v₁..vₙ) | f/n ∈ F, vᵢ ∈ C }`.

use crate::service::{FuncId, ServiceCatalog};
use dcds_folang::{Assignment, Var};
use dcds_reldata::{ConstantPool, Value};

/// A non-call term: constant or variable (action parameters and effect
/// variables are both [`Var`]s).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BaseTerm {
    /// A constant.
    Const(Value),
    /// A variable (action parameter or free variable of `q+`).
    Var(Var),
}

impl BaseTerm {
    /// Variable constructor.
    pub fn var(name: &str) -> Self {
        BaseTerm::Var(Var::new(name))
    }

    /// Ground the term under an assignment.
    pub fn ground(&self, asg: &Assignment) -> Option<Value> {
        match self {
            BaseTerm::Const(c) => Some(*c),
            BaseTerm::Var(v) => asg.get(v).copied(),
        }
    }

    /// The variable inside, if any.
    pub fn as_var(&self) -> Option<&Var> {
        match self {
            BaseTerm::Var(v) => Some(v),
            BaseTerm::Const(_) => None,
        }
    }
}

/// A term of an effect head: a base term or a service call over base terms.
///
/// Per the paper, calls are *not* nested: a call's arguments are base terms.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ETerm {
    /// A constant or variable.
    Base(BaseTerm),
    /// A service call `f(t₁, ..., tₙ)`.
    Call(FuncId, Vec<BaseTerm>),
}

impl ETerm {
    /// Constant constructor.
    pub fn constant(v: Value) -> Self {
        ETerm::Base(BaseTerm::Const(v))
    }

    /// Variable constructor.
    pub fn var(name: &str) -> Self {
        ETerm::Base(BaseTerm::var(name))
    }

    /// Service-call constructor.
    pub fn call(f: FuncId, args: Vec<BaseTerm>) -> Self {
        ETerm::Call(f, args)
    }

    /// Variables occurring in the term.
    pub fn vars(&self) -> Vec<&Var> {
        match self {
            ETerm::Base(b) => b.as_var().into_iter().collect(),
            ETerm::Call(_, args) => args.iter().filter_map(BaseTerm::as_var).collect(),
        }
    }

    /// Constants occurring in the term.
    pub fn constants(&self) -> Vec<Value> {
        match self {
            ETerm::Base(BaseTerm::Const(c)) => vec![*c],
            ETerm::Base(BaseTerm::Var(_)) => vec![],
            ETerm::Call(_, args) => args
                .iter()
                .filter_map(|b| match b {
                    BaseTerm::Const(c) => Some(*c),
                    BaseTerm::Var(_) => None,
                })
                .collect(),
        }
    }

    /// Ground the term under an assignment, yielding a value or a ground
    /// service call. `None` if some variable is unbound.
    pub fn ground(&self, asg: &Assignment) -> Option<GTerm> {
        match self {
            ETerm::Base(b) => b.ground(asg).map(GTerm::Val),
            ETerm::Call(f, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(a.ground(asg)?);
                }
                Some(GTerm::Call(ServiceCall {
                    func: *f,
                    args: vals,
                }))
            }
        }
    }
}

/// A ground service call `f(v₁, ..., vₙ)` — an element of `SC`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ServiceCall {
    /// The function.
    pub func: FuncId,
    /// Ground arguments.
    pub args: Vec<Value>,
}

impl ServiceCall {
    /// Render using a catalog and pool, e.g. `f(a,b)`.
    pub fn display(&self, catalog: &ServiceCatalog, pool: &ConstantPool) -> String {
        let mut s = String::from(catalog.name(self.func));
        s.push('(');
        for (i, v) in self.args.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(pool.name(*v));
        }
        s.push(')');
        s
    }
}

/// A ground term: a value or a ground service call awaiting resolution.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum GTerm {
    /// An ordinary value.
    Val(Value),
    /// An unresolved service call.
    Call(ServiceCall),
}

impl GTerm {
    /// The call inside, if unresolved.
    pub fn as_call(&self) -> Option<&ServiceCall> {
        match self {
            GTerm::Val(_) => None,
            GTerm::Call(c) => Some(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceKind;

    #[test]
    fn grounding_base_terms() {
        let mut pool = ConstantPool::new();
        let a = pool.intern("a");
        let mut asg = Assignment::new();
        asg.insert(Var::new("X"), a);
        assert_eq!(BaseTerm::Const(a).ground(&asg), Some(a));
        assert_eq!(BaseTerm::var("X").ground(&asg), Some(a));
        assert_eq!(BaseTerm::var("Y").ground(&asg), None);
    }

    #[test]
    fn grounding_calls() {
        let mut pool = ConstantPool::new();
        let a = pool.intern("a");
        let mut cat = ServiceCatalog::new();
        let f = cat.add("f", 1, ServiceKind::Deterministic).unwrap();
        let mut asg = Assignment::new();
        asg.insert(Var::new("X"), a);
        let t = ETerm::call(f, vec![BaseTerm::var("X")]);
        let g = t.ground(&asg).unwrap();
        assert_eq!(
            g,
            GTerm::Call(ServiceCall {
                func: f,
                args: vec![a]
            })
        );
        assert_eq!(g.as_call().unwrap().display(&cat, &pool), "f(a)");
    }

    #[test]
    fn vars_and_constants_of_terms() {
        let mut pool = ConstantPool::new();
        let a = pool.intern("a");
        let mut cat = ServiceCatalog::new();
        let f = cat.add("f", 2, ServiceKind::Deterministic).unwrap();
        let t = ETerm::call(f, vec![BaseTerm::var("X"), BaseTerm::Const(a)]);
        assert_eq!(t.vars().len(), 1);
        assert_eq!(t.constants(), vec![a]);
    }

    #[test]
    fn nullary_call_grounds_without_bindings() {
        let mut cat = ServiceCatalog::new();
        let f = cat.add("f", 0, ServiceKind::Nondeterministic).unwrap();
        let t = ETerm::call(f, vec![]);
        let g = t.ground(&Assignment::new()).unwrap();
        assert!(matches!(g, GTerm::Call(c) if c.args.is_empty()));
    }
}
