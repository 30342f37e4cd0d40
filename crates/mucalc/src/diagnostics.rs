//! Diagnostics: witness and counterexample paths for the common property
//! shapes.
//!
//! The model checkers compute extension *sets*; for the two most
//! common verification idioms it is easy (and very useful) to also produce
//! a path a human can read:
//!
//! * a **counterexample to `AG φ`**: a shortest path from the initial
//!   state to a ¬φ-state;
//! * a **witness for `EF φ`**: a shortest path from the initial state to a
//!   φ-state.
//!
//! Both take the state property `φ` itself — [`ag_ef_property`] extracts it
//! from a whole `νZ. φ ∧ [−]Z` / `µZ. φ ∨ ⟨−⟩Z` formula — and compute its
//! extension with the staged engine.

use crate::ast::Mu;
use crate::engine::{eval_traced, CheckError, McOptions};
use crate::mc::Valuation;
use crate::safety::{split_ag_ef, SafetyMode};
use dcds_core::{StateId, Ts};
use dcds_obs::Obs;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Shortest path (as state ids, starting at the initial state) to any state
/// in `targets`; `None` when unreachable.
pub fn shortest_path_to(ts: &Ts, targets: &BTreeSet<StateId>) -> Option<Vec<StateId>> {
    let mut pred: BTreeMap<StateId, StateId> = BTreeMap::new();
    let mut seen: BTreeSet<StateId> = BTreeSet::new();
    let mut queue = VecDeque::new();
    seen.insert(ts.initial());
    queue.push_back(ts.initial());
    let mut goal = None;
    if targets.contains(&ts.initial()) {
        goal = Some(ts.initial());
    }
    while goal.is_none() {
        let s = queue.pop_front()?;
        for &t in ts.successors(s) {
            if seen.insert(t) {
                pred.insert(t, s);
                if targets.contains(&t) {
                    goal = Some(t);
                    break;
                }
                queue.push_back(t);
            }
        }
    }
    let mut path = vec![goal.unwrap()];
    while let Some(&p) = pred.get(path.last().unwrap()) {
        path.push(p);
    }
    path.reverse();
    Some(path)
}

/// The state property `φ` of an `AG φ` / `EF φ` formula, when `φ` does not
/// mention the fixpoint variable: the formulas a single path explains.
pub fn ag_ef_property(f: &Mu) -> Option<(SafetyMode, &Mu)> {
    let (mode, z, phi) = split_ag_ef(f)?;
    (!phi.free_pred_vars().contains(z)).then_some((mode, phi))
}

/// The extension of a closed state property; an open one is rejected.
fn extension(phi: &Mu, ts: &Ts) -> Result<BTreeSet<StateId>, CheckError> {
    let opts = McOptions::default();
    let (ext, _) = eval_traced(phi, ts, &mut Valuation::default(), opts, &Obs::disabled())?;
    Ok(ext)
}

/// A shortest counterexample to `AG φ`: a path to a state violating φ.
/// `None` means `AG φ` holds.
pub fn counterexample_ag(phi: &Mu, ts: &Ts) -> Result<Option<Vec<StateId>>, CheckError> {
    let sat = extension(phi, ts)?;
    let violating: BTreeSet<StateId> = ts.state_ids().filter(|s| !sat.contains(s)).collect();
    Ok(shortest_path_to(ts, &violating))
}

/// A shortest witness for `EF φ`: a path to a state satisfying φ.
/// `None` means `EF φ` fails.
pub fn witness_ef(phi: &Mu, ts: &Ts) -> Result<Option<Vec<StateId>>, CheckError> {
    let sat = extension(phi, ts)?;
    Ok(shortest_path_to(ts, &sat))
}

/// Render a path with the state databases, for reports.
pub fn render_path(
    path: &[StateId],
    ts: &Ts,
    schema: &dcds_reldata::Schema,
    pool: &dcds_reldata::ConstantPool,
) -> String {
    let mut out = String::new();
    for (i, s) in path.iter().enumerate() {
        if i > 0 {
            out.push_str("  ->  ");
        }
        out.push_str(&format!(
            "s{}:{{{}}}",
            s.index(),
            dcds_reldata::InstanceDisplay::new(ts.db(*s), schema, pool)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcds_folang::{Formula, QTerm};
    use dcds_reldata::{ConstantPool, Instance, Schema, Tuple};

    /// s0 -> s1 -> s2; P holds in s0, s1 only.
    fn sample() -> (Schema, ConstantPool, Ts) {
        let mut schema = Schema::new();
        let p = schema.add_relation("P", 1).unwrap();
        let mut pool = ConstantPool::new();
        let a = pool.intern("a");
        let pa = Instance::from_facts([(p, Tuple::from([a]))]);
        let mut ts = Ts::new(pa.clone());
        let s1 = ts.add_state(pa);
        let s2 = ts.add_state(Instance::new());
        ts.add_edge(ts.initial(), s1);
        ts.add_edge(s1, s2);
        ts.add_edge(s2, s2);
        (schema, pool, ts)
    }

    fn p_nonempty(schema: &Schema) -> Mu {
        Mu::exists(
            "X",
            Mu::live("X").and(Mu::Query(Formula::Atom(
                schema.rel_id("P").unwrap(),
                vec![QTerm::var("X")],
            ))),
        )
    }

    #[test]
    fn ag_counterexample_is_shortest() {
        let (schema, _, ts) = sample();
        let path = counterexample_ag(&p_nonempty(&schema), &ts)
            .unwrap()
            .expect("AG fails");
        assert_eq!(path.len(), 3); // s0 s1 s2
        assert_eq!(path[0], ts.initial());
    }

    #[test]
    fn ef_witness_found_or_not() {
        let (schema, _, ts) = sample();
        // EF (P empty): witness = path to s2.
        let empty = p_nonempty(&schema).not();
        let w = witness_ef(&empty, &ts).unwrap().expect("reachable");
        assert_eq!(w.len(), 3);
        // EF false: no witness.
        assert!(witness_ef(&Mu::Query(Formula::False), &ts)
            .unwrap()
            .is_none());
    }

    #[test]
    fn ag_ef_property_takes_the_state_property() {
        use crate::sugar::{af, ag, ef};
        let (schema, _, _) = sample();
        let phi = p_nonempty(&schema);
        assert_eq!(
            ag_ef_property(&ag(phi.clone())),
            Some((SafetyMode::AlwaysGood, &phi))
        );
        assert_eq!(
            ag_ef_property(&ef(phi.clone())),
            Some((SafetyMode::EventuallyBad, &phi))
        );
        assert_eq!(ag_ef_property(&af(phi.clone())), None);
        assert_eq!(ag_ef_property(&phi), None);
        // A φ mentioning Z is not a state property.
        let z = crate::ast::PredVar::new("Z");
        let rec = Mu::Gfp(
            z.clone(),
            Box::new(Mu::Pvar(z.clone()).diamond().and(Mu::Pvar(z).boxed())),
        );
        assert_eq!(ag_ef_property(&rec), None);
    }

    #[test]
    fn holding_ag_has_no_counterexample() {
        let (_, _, ts) = sample();
        assert!(counterexample_ag(&Mu::Query(Formula::True), &ts)
            .unwrap()
            .is_none());
    }

    #[test]
    fn render_path_is_readable() {
        let (schema, pool, ts) = sample();
        let path = counterexample_ag(&p_nonempty(&schema), &ts)
            .unwrap()
            .unwrap();
        let rendered = render_path(&path, &ts, &schema, &pool);
        assert!(rendered.contains("s0:{P(a)}"));
        assert!(rendered.contains("s2:{{}}") || rendered.contains("s2:{}"));
    }
}
