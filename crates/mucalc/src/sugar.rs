//! CTL-style combinators compiled into µ-calculus.
//!
//! The paper stresses that µ-calculus subsumes CTL/LTL/CTL*; these helpers
//! make the standard branching-time operators available as constructors.
//! Deadlock states (no successors) are handled by the classical
//! total-system-free translations: `AF φ = µZ. φ ∨ ([−]Z ∧ ⟨−⟩⊤)` so that a
//! deadlocked state does not satisfy `AF φ` vacuously, and dually for `EG`.

use crate::ast::Mu;
use dcds_folang::Formula;

fn fresh_z(tag: &str, body_hint: &Mu) -> String {
    // Derive a binder name unlikely to clash: tag + size of body.
    format!("__{tag}{}", body_hint.size())
}

/// `EF φ`: along some path, eventually φ. `µZ. φ ∨ ⟨−⟩Z`.
pub fn ef(phi: Mu) -> Mu {
    let z = fresh_z("EF", &phi);
    Mu::lfp(&z, phi.or(Mu::Pvar(crate::ast::PredVar::new(&z)).diamond()))
}

/// `AG φ`: along every path, always φ. `νZ. φ ∧ [−]Z`.
pub fn ag(phi: Mu) -> Mu {
    let z = fresh_z("AG", &phi);
    Mu::gfp(&z, phi.and(Mu::Pvar(crate::ast::PredVar::new(&z)).boxed()))
}

/// `AF φ`: along every path, eventually φ.
/// `µZ. φ ∨ ([−]Z ∧ ⟨−⟩⊤)` — a deadlock without φ does not satisfy it.
pub fn af(phi: Mu) -> Mu {
    let z = fresh_z("AF", &phi);
    let zv = Mu::Pvar(crate::ast::PredVar::new(&z));
    Mu::lfp(
        &z,
        phi.or(zv.boxed().and(Mu::Query(Formula::True).diamond())),
    )
}

/// `EG φ`: along some path, always φ.
/// `νZ. φ ∧ (⟨−⟩Z ∨ [−]⊥)` — a path may legitimately end in a deadlock.
pub fn eg(phi: Mu) -> Mu {
    let z = fresh_z("EG", &phi);
    let zv = Mu::Pvar(crate::ast::PredVar::new(&z));
    Mu::gfp(
        &z,
        phi.and(zv.diamond().or(Mu::Query(Formula::True).diamond().not())),
    )
}

/// `E[φ U ψ]` (strong until): `µZ. ψ ∨ (φ ∧ ⟨−⟩Z)`.
pub fn eu(phi: Mu, psi: Mu) -> Mu {
    let z = fresh_z("EU", &psi);
    let zv = Mu::Pvar(crate::ast::PredVar::new(&z));
    Mu::lfp(&z, psi.or(phi.and(zv.diamond())))
}

/// `A[φ U ψ]` (strong until): `µZ. ψ ∨ (φ ∧ [−]Z ∧ ⟨−⟩⊤)`.
pub fn au(phi: Mu, psi: Mu) -> Mu {
    let z = fresh_z("AU", &psi);
    let zv = Mu::Pvar(crate::ast::PredVar::new(&z));
    Mu::lfp(
        &z,
        psi.or(phi.and(zv.boxed()).and(Mu::Query(Formula::True).diamond())),
    )
}

/// `EX φ` = `⟨−⟩φ` and `AX φ` = `[−]φ`, for symmetry.
pub fn ex(phi: Mu) -> Mu {
    phi.diamond()
}

/// See [`ex`].
pub fn ax(phi: Mu) -> Mu {
    phi.boxed()
}

/// The µLP existential until of Example 3.3:
/// `µY. ψ ∨ ⟨−⟩(LIVE(~x) ∧ Y)` — along SOME path the bindings stay live
/// until ψ holds.
pub fn eu_live(vars: &[dcds_folang::Var], psi: Mu) -> Mu {
    let z = fresh_z("EUL", &psi);
    let zv = Mu::Pvar(crate::ast::PredVar::new(&z));
    let guard = Mu::live_all(vars.iter().cloned());
    Mu::lfp(&z, psi.or(Mu::Diamond(Box::new(guard.and(zv)))))
}

/// The persistence-guarded until used by the travel-reimbursement example
/// (Appendix E): `A[(φ ∧ LIVE(~x)) U ψ]` where the guard keeps the
/// quantified bindings live along the path — the µLP-compatible reading of
/// `AU`. `vars` are the bindings to keep live.
pub fn au_live(vars: &[dcds_folang::Var], phi: Mu, psi: Mu) -> Mu {
    let z = fresh_z("AUL", &psi);
    let zv = Mu::Pvar(crate::ast::PredVar::new(&z));
    let guard = Mu::live_all(vars.iter().cloned());
    Mu::lfp(
        &z,
        psi.or(phi
            .and(Mu::Box_(Box::new(guard.and(zv))))
            .and(Mu::Query(Formula::True).diamond())),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::check;
    use dcds_core::Ts;
    use dcds_folang::QTerm;
    use dcds_reldata::{ConstantPool, Instance, Schema, Tuple};

    /// s0 -> s1 -> s2(deadlock), s0 -> s0 loop. P holds in s2 only.
    fn sample() -> (Mu, Ts) {
        let mut schema = Schema::new();
        let p = schema.add_relation("P", 1).unwrap();
        let mut pool = ConstantPool::new();
        let a = pool.intern("a");
        let mut ts = Ts::new(Instance::new());
        let s1 = ts.add_state(Instance::new());
        let s2 = ts.add_state(Instance::from_facts([(p, Tuple::from([a]))]));
        ts.add_edge(ts.initial(), ts.initial());
        ts.add_edge(ts.initial(), s1);
        ts.add_edge(s1, s2);
        let phi = Mu::Query(dcds_folang::Formula::Atom(p, vec![QTerm::Const(a)]));
        (phi, ts)
    }

    #[test]
    fn ef_finds_reachable_goal() {
        let (phi, ts) = sample();
        assert!(check(&ef(phi), &ts).unwrap());
    }

    #[test]
    fn af_fails_with_escaping_loop() {
        let (phi, ts) = sample();
        // The s0 self-loop avoids P forever.
        assert!(!check(&af(phi), &ts).unwrap());
    }

    #[test]
    fn ag_and_eg() {
        let (phi, ts) = sample();
        assert!(!check(&ag(phi.clone()), &ts).unwrap());
        // EG ¬P: loop on s0 forever.
        assert!(check(&eg(phi.clone().not()), &ts).unwrap());
        // EG P fails at the initial state.
        assert!(!check(&eg(phi), &ts).unwrap());
    }

    #[test]
    fn eu_strong_until() {
        let (phi, ts) = sample();
        // E[ ¬P U P ]: s0 s1 s2.
        assert!(check(&eu(phi.clone().not(), phi), &ts).unwrap());
    }

    #[test]
    fn au_requires_all_paths() {
        let (phi, ts) = sample();
        assert!(!check(&au(phi.clone().not(), phi), &ts).unwrap());
    }

    #[test]
    fn eu_live_requires_persistence() {
        // s0: P(a) -> s1: {} -> s2: Q(a), s2 loop. The binding a is dropped
        // in the middle state: the persistence-guarded until (Example 3.3's
        // µLP shape) fails, while the unguarded µLA-style reachability
        // succeeds — the semantic gap between µLA and µLP in one test.
        let mut schema = Schema::new();
        let p = schema.add_relation("P", 1).unwrap();
        let q = schema.add_relation("Q", 1).unwrap();
        let mut pool = ConstantPool::new();
        let a = pool.intern("a");
        let mut ts = Ts::new(Instance::from_facts([(p, Tuple::from([a]))]));
        let mid = ts.add_state(Instance::new());
        let end = ts.add_state(Instance::from_facts([(q, Tuple::from([a]))]));
        ts.add_edge(ts.initial(), mid);
        ts.add_edge(mid, end);
        ts.add_edge(end, end);
        let x = dcds_folang::Var::new("X");
        let psi = Mu::Query(dcds_folang::Formula::Atom(q, vec![QTerm::var("X")]));
        let p_of_x = Mu::Query(dcds_folang::Formula::Atom(p, vec![QTerm::var("X")]));
        let guarded = Mu::exists(
            "X",
            Mu::live("X")
                .and(p_of_x.clone())
                .and(eu_live(std::slice::from_ref(&x), psi.clone())),
        );
        assert!(
            !check(&guarded, &ts).unwrap(),
            "a does not persist through s1"
        );
        let unguarded = Mu::exists(
            "X",
            Mu::live("X")
                .and(p_of_x)
                .and(eu(Mu::Query(dcds_folang::Formula::True), psi)),
        );
        assert!(
            check(&unguarded, &ts).unwrap(),
            "history-style reachability holds"
        );
    }

    #[test]
    fn deadlock_does_not_satisfy_af_vacuously() {
        // Single deadlocked state without P.
        let mut ts = Ts::new(Instance::new());
        let _ = &mut ts;
        let phi = Mu::Query(dcds_folang::Formula::False);
        assert!(!check(&af(phi), &ts).unwrap());
    }
}
