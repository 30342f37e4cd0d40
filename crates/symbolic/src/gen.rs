//! Seeded clause generation for the unit tests of the normal form and of
//! subsumption.

use crate::clause::{Clause, STerm, SVar};
use dcds_core::FuncId;
use dcds_reldata::{RelId, Value};

/// SplitMix64: small, seedable, and the same on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// True with probability `percent / 100`.
    pub fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }
}

/// Relation `ix`; relation `ix` has arity `1 + ix % 2`.
pub fn rel(ix: usize) -> RelId {
    RelId::from_index(ix)
}

pub fn arity(r: RelId) -> usize {
    1 + r.index() % 2
}

pub fn val(ix: usize) -> Value {
    Value::from_index(ix)
}

/// A term over sparse variable indices `0..vars`, `consts` constants and
/// two unary service functions.
pub fn term(rng: &mut Rng, vars: usize, consts: usize, app_percent: usize) -> STerm {
    if rng.chance(app_percent) {
        let arg = term(rng, vars, consts, 0);
        return STerm::App(FuncId::from_index(rng.below(2)), vec![arg]);
    }
    if rng.chance(30) {
        STerm::Const(val(rng.below(consts)))
    } else {
        STerm::Var(rng.below(vars) as SVar)
    }
}

/// A raw (unnormalised) clause: up to six atoms over three relations,
/// up to three equalities and three disequalities.
pub fn raw_clause(rng: &mut Rng) -> Clause {
    let vars = 2 + rng.below(10);
    let consts = 2 + rng.below(3);
    let mut c = Clause {
        atoms: Vec::new(),
        eqs: Vec::new(),
        neqs: Vec::new(),
        level: rng.below(3) as u32,
    };
    for _ in 0..rng.below(7) {
        let r = rel(rng.below(3));
        let ts = (0..arity(r)).map(|_| term(rng, vars, consts, 10)).collect();
        c.atoms.push((r, ts));
    }
    for _ in 0..rng.below(4) {
        c.eqs
            .push((term(rng, vars, consts, 35), term(rng, vars, consts, 10)));
    }
    for _ in 0..rng.below(4) {
        c.neqs
            .push((term(rng, vars, consts, 15), term(rng, vars, consts, 15)));
    }
    c
}

/// A satisfiable normalised clause.
pub fn clause(rng: &mut Rng) -> Clause {
    loop {
        if let Some(c) = raw_clause(rng).normalize() {
            return c;
        }
    }
}

/// A clause that `c` may subsume: `c` with some variables instantiated by
/// constants (some of them new to `c`) or identified with each other, plus
/// extra atoms, equalities and disequalities; normalised, `None` when that
/// is unsatisfiable.
pub fn specialise(c: &Clause, rng: &mut Rng) -> Option<Clause> {
    let mut d = c.clone();
    let next = d.next_var();
    for v in 0..next {
        if rng.chance(30) {
            let t = if rng.chance(60) {
                STerm::Const(val(rng.below(6)))
            } else {
                STerm::Var(rng.below(next as usize + 1) as SVar)
            };
            d.eqs.push((STerm::Var(v), t));
        }
    }
    let vars = next as usize + 2;
    for _ in 0..rng.below(3) {
        let r = rel(rng.below(3));
        let ts = (0..arity(r)).map(|_| term(rng, vars, 6, 10)).collect();
        d.atoms.push((r, ts));
    }
    if rng.chance(30) {
        d.eqs.push((term(rng, vars, 6, 50), term(rng, vars, 6, 10)));
    }
    if rng.chance(40) {
        d.neqs
            .push((term(rng, vars, 6, 10), term(rng, vars, 6, 10)));
    }
    d.normalize()
}

/// A satisfiable normalised clause with a block of 2–4 interchangeable
/// variables. Every block variable `x` gets the same atoms — one or two of
/// `A(x)`, `B(x, y)` (`y` shared), `B(y, x)`, `B(x, c)`, `C(f(x))` and
/// `A(g(x))` over relations 0–2 and functions 0–1 — maybe pairwise
/// disequalities, maybe the equality `f(x) = c`; then up to two atoms over
/// `y` and constants. With `broken`, block variable 0 alone also gets a
/// disequality with a constant or an atom with a constant.
pub fn symmetric_clause(rng: &mut Rng, broken: bool) -> Clause {
    loop {
        let k = 2 + rng.below(3);
        let y = STerm::Var(k as SVar);
        let c = STerm::Const(val(rng.below(3)));
        let app = |f: usize, x: &STerm| STerm::App(FuncId::from_index(f), vec![x.clone()]);
        let roles: Vec<usize> = (0..1 + rng.below(2)).map(|_| rng.below(6)).collect();
        let eq_role = rng.chance(25);
        let mut clause = Clause {
            atoms: Vec::new(),
            eqs: Vec::new(),
            neqs: Vec::new(),
            level: 0,
        };
        let block: Vec<STerm> = (0..k as SVar).map(STerm::Var).collect();
        for x in &block {
            for &role in &roles {
                clause.atoms.push(match role {
                    0 => (rel(0), vec![x.clone()]),
                    1 => (rel(1), vec![x.clone(), y.clone()]),
                    2 => (rel(1), vec![y.clone(), x.clone()]),
                    3 => (rel(1), vec![x.clone(), c.clone()]),
                    4 => (rel(2), vec![app(0, x)]),
                    _ => (rel(0), vec![app(1, x)]),
                });
            }
            if eq_role {
                clause.eqs.push((app(0, x), c.clone()));
            }
        }
        if rng.chance(50) {
            for (i, a) in block.iter().enumerate() {
                for b in &block[i + 1..] {
                    clause.neqs.push((a.clone(), b.clone()));
                }
            }
        }
        for _ in 0..rng.below(3) {
            let other = STerm::Const(val(rng.below(3)));
            clause.atoms.push(match rng.below(3) {
                0 => (rel(0), vec![y.clone()]),
                1 => (rel(1), vec![y.clone(), other]),
                _ => (rel(2), vec![other]),
            });
        }
        if broken {
            let other = STerm::Const(val(rng.below(3)));
            if rng.chance(50) {
                clause.neqs.push((block[0].clone(), other));
            } else {
                clause.atoms.push((rel(1), vec![block[0].clone(), other]));
            }
        }
        if let Some(c) = clause.normalize() {
            return c;
        }
    }
}
