//! Equality commitments (Appendix C.3).
//!
//! When an action issues service calls, the concrete transition system has
//! one successor per *evaluation* of the calls — infinitely many, since a
//! call may return any constant. An **equality commitment** groups the
//! evaluations by isomorphism type: it decides, for every new call, whether
//! it returns (i) some specific *known* value (a value of `ADOM(I) ∪
//! ADOM(I₀)`, or for the deterministic semantics any value remembered by the
//! service-call map) or (ii) a *fresh* value, and which fresh values
//! coincide with each other. Two evaluations respecting the same commitment
//! produce isomorphic successors, which is the engine of Theorems 4.3 / 5.4.

use crate::term::ServiceCall;
use dcds_reldata::{ConstantPool, Value};
use std::collections::BTreeMap;

/// Where a call's result lands under a commitment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CommitTarget {
    /// Equal to this known value.
    Known(Value),
    /// A fresh value, distinct from every known value; calls sharing a cell
    /// index return the *same* fresh value, distinct cells distinct values.
    Fresh(usize),
}

/// An equality commitment for a set of new calls.
pub type Commitment = BTreeMap<ServiceCall, CommitTarget>;

/// Enumerate every equality commitment for `calls` against `known` values.
///
/// Fresh cells are produced in *restricted growth* order (cell `k+1` can
/// only appear after cell `k`), so each partition of the fresh calls is
/// produced exactly once and the enumeration is canonical.
///
/// The count grows as `(|known| + ·)^|calls|`; callers bound `|calls|`.
pub fn enumerate_commitments(calls: &[ServiceCall], known: &[Value]) -> Vec<Commitment> {
    let mut out = Vec::new();
    let mut acc: Vec<CommitTarget> = Vec::with_capacity(calls.len());
    rec(calls, known, 0, 0, &mut acc, &mut out);
    out
}

fn rec(
    calls: &[ServiceCall],
    known: &[Value],
    ix: usize,
    next_cell: usize,
    acc: &mut Vec<CommitTarget>,
    out: &mut Vec<Commitment>,
) {
    if ix == calls.len() {
        out.push(
            calls
                .iter()
                .cloned()
                .zip(acc.iter().copied())
                .collect::<Commitment>(),
        );
        return;
    }
    for &v in known {
        acc.push(CommitTarget::Known(v));
        rec(calls, known, ix + 1, next_cell, acc, out);
        acc.pop();
    }
    // Existing fresh cells, plus one new cell (restricted growth).
    for cell in 0..=next_cell {
        acc.push(CommitTarget::Fresh(cell));
        rec(calls, known, ix + 1, next_cell.max(cell + 1), acc, out);
        acc.pop();
    }
}

/// Number of fresh cells used by a commitment.
pub fn fresh_cell_count(c: &Commitment) -> usize {
    c.values()
        .filter_map(|t| match t {
            CommitTarget::Fresh(cell) => Some(*cell),
            CommitTarget::Known(_) => None,
        })
        .max()
        .map_or(0, |m| m + 1)
}

/// The representative evaluation of a commitment: known targets keep their
/// value, and each fresh cell gets one constant minted from `pool`, in cell
/// order.
pub fn instantiate(c: &Commitment, pool: &mut ConstantPool) -> BTreeMap<ServiceCall, Value> {
    let fresh: Vec<Value> = (0..fresh_cell_count(c)).map(|_| pool.mint("v")).collect();
    c.iter()
        .map(|(call, target)| {
            let v = match *target {
                CommitTarget::Known(v) => v,
                CommitTarget::Fresh(cell) => fresh[cell],
            };
            (call.clone(), v)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::FuncId;

    fn call(f: usize, args: &[Value]) -> ServiceCall {
        ServiceCall {
            func: FuncId::from_index(f),
            args: args.to_vec(),
        }
    }

    fn vals(n: usize) -> Vec<Value> {
        (0..n).map(Value::from_index).collect()
    }

    #[test]
    fn single_call_commitments() {
        let known = vals(2);
        let calls = vec![call(0, &known[..1])];
        let cs = enumerate_commitments(&calls, &known);
        // Known(a), Known(b), Fresh(0).
        assert_eq!(cs.len(), 3);
    }

    #[test]
    fn two_calls_count() {
        // 2 calls, 1 known value v:
        // each call ∈ {Known(v), Fresh}; fresh partitioning canonical:
        // (K,K), (K,F0), (F0,K), (F0,F0), (F0,F1) = 5.
        let known = vals(1);
        let calls = vec![call(0, &known), call(1, &known)];
        let cs = enumerate_commitments(&calls, &known);
        assert_eq!(cs.len(), 5);
    }

    #[test]
    fn restricted_growth_is_canonical() {
        // No commitment may use Fresh(1) without Fresh(0).
        let known = vals(1);
        let calls = vec![call(0, &known), call(1, &known)];
        for c in enumerate_commitments(&calls, &known) {
            let cells: Vec<usize> = c
                .values()
                .filter_map(|t| match t {
                    CommitTarget::Fresh(k) => Some(*k),
                    _ => None,
                })
                .collect();
            if cells.contains(&1) {
                assert!(cells.contains(&0));
            }
        }
    }

    #[test]
    fn no_calls_yields_single_empty_commitment() {
        let cs = enumerate_commitments(&[], &vals(3));
        assert_eq!(cs.len(), 1);
        assert!(cs[0].is_empty());
    }

    #[test]
    fn instantiate_mints_one_value_per_cell_in_cell_order() {
        let known = vals(1);
        let calls = [call(0, &known), call(1, &known), call(2, &known)];
        let commitment: Commitment = calls
            .iter()
            .cloned()
            .zip([
                CommitTarget::Fresh(1),
                CommitTarget::Known(known[0]),
                CommitTarget::Fresh(0),
            ])
            .collect();
        let mut pool = ConstantPool::new();
        pool.intern("a");
        let before = pool.len();
        let theta = instantiate(&commitment, &mut pool);
        assert_eq!(pool.len(), before + 2);
        let minted: Vec<Value> = (before..pool.len()).map(Value::from_index).collect();
        assert_eq!(theta[&calls[0]], minted[1]);
        assert_eq!(theta[&calls[1]], known[0]);
        assert_eq!(theta[&calls[2]], minted[0]);
    }

    #[test]
    fn fresh_cell_count_counts_cells() {
        let known = vals(0);
        let calls = vec![call(0, &[]), call(1, &[])];
        let cs = enumerate_commitments(&calls, &known);
        // (F0,F0) and (F0,F1).
        assert_eq!(cs.len(), 2);
        let counts: Vec<usize> = cs.iter().map(fresh_cell_count).collect();
        assert!(counts.contains(&1) && counts.contains(&2));
    }
}
