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
    let none = vec![Vec::new(); calls.len()];
    let kept = enumerate_commitments_except(calls, known, &none).kept;
    kept.into_iter().map(|(_, c)| c).collect()
}

/// The commitments of [`enumerate_commitments`] that send no call to a
/// known value its caller has ruled out, and what the others would have
/// cost. A dropped commitment is counted but never built.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Enumerated {
    /// The kept commitments, in [`enumerate_commitments`]' order. Each
    /// comes with the number of fresh values that the dropped commitments
    /// since the previous kept one would have minted: [`instantiate`]ing
    /// every commitment in order mints exactly what minting those first
    /// and then instantiating the kept ones mints.
    pub kept: Vec<(usize, Commitment)>,
    /// The number of dropped commitments.
    pub dropped: u64,
    /// Fresh values the dropped commitments after the last kept one would
    /// have minted.
    pub trailing_mints: usize,
}

/// [`enumerate_commitments`] without the commitments that send a call
/// `calls[i]` to `Known(v)` for some `v` in `ruled_out[i]`. A ruled-out
/// target cuts its whole subtree of the enumeration, which is counted
/// and never built. `Fresh` targets are never ruled out.
pub fn enumerate_commitments_except(
    calls: &[ServiceCall],
    known: &[Value],
    ruled_out: &[Vec<Value>],
) -> Enumerated {
    debug_assert_eq!(calls.len(), ruled_out.len());
    let mut walk = Walk {
        calls,
        known,
        ruled_out,
        acc: Vec::with_capacity(calls.len()),
        pending_mints: 0,
        out: Enumerated::default(),
    };
    walk.rec(0, 0);
    walk.out.trailing_mints = walk.pending_mints;
    walk.out
}

/// The restricted-growth walk of [`enumerate_commitments_except`].
struct Walk<'a> {
    calls: &'a [ServiceCall],
    known: &'a [Value],
    ruled_out: &'a [Vec<Value>],
    acc: Vec<CommitTarget>,
    /// Fresh values minted by dropped commitments since the last kept one.
    pending_mints: usize,
    out: Enumerated,
}

impl Walk<'_> {
    fn rec(&mut self, ix: usize, next_cell: usize) {
        if ix == self.calls.len() {
            let commitment = self.calls.iter().cloned().zip(self.acc.iter().copied());
            let mints = std::mem::take(&mut self.pending_mints);
            self.out.kept.push((mints, commitment.collect()));
            return;
        }
        for &v in self.known {
            if self.ruled_out[ix].contains(&v) {
                let (count, mints) =
                    subtree(self.calls.len() - ix - 1, self.known.len(), next_cell);
                self.out.dropped += count;
                self.pending_mints += mints;
                continue;
            }
            self.acc.push(CommitTarget::Known(v));
            self.rec(ix + 1, next_cell);
            self.acc.pop();
        }
        // Existing fresh cells, plus one new cell (restricted growth).
        for cell in 0..=next_cell {
            self.acc.push(CommitTarget::Fresh(cell));
            self.rec(ix + 1, next_cell.max(cell + 1));
            self.acc.pop();
        }
    }
}

/// The commitments of a subtree with `calls` calls left to decide and
/// `next_cell` cells in use, and the fresh values they mint together.
fn subtree(calls: usize, known: usize, next_cell: usize) -> (u64, usize) {
    if calls == 0 {
        return (1, next_cell);
    }
    let (count, mints) = subtree(calls - 1, known, next_cell);
    let (mut count, mut mints) = (count * known as u64, mints * known);
    for cell in 0..=next_cell {
        let (c, m) = subtree(calls - 1, known, next_cell.max(cell + 1));
        count += c;
        mints += m;
    }
    (count, mints)
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

/// Mint and drop `n` fresh values: what instantiating the dropped
/// commitments of an [`Enumerated`] would have minted, so the pool moves
/// exactly as it would without the filter.
pub fn skip_mints(pool: &mut ConstantPool, n: usize) {
    for _ in 0..n {
        pool.mint("v");
    }
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

    /// Fresh values `instantiate` mints for `cs`, in order.
    fn mints(cs: &[Commitment]) -> usize {
        cs.iter().map(fresh_cell_count).sum()
    }

    #[test]
    fn ruled_out_targets_drop_their_subtrees_and_keep_the_mint_count() {
        // Three calls against two known values: every combination of
        // ruled-out targets keeps exactly the commitments that avoid them,
        // in order, and accounts the dropped ones' mints between them.
        let known = vals(2);
        let calls = [call(0, &[]), call(1, &[]), call(2, &[])];
        let full = enumerate_commitments(&calls, &known);
        let subsets: Vec<Vec<Value>> = vec![vec![], vec![known[0]], vec![known[1]], known.clone()];
        for r0 in &subsets {
            for r2 in &subsets {
                let ruled_out = vec![r0.clone(), vec![known[1]], r2.clone()];
                let got = enumerate_commitments_except(&calls, &known, &ruled_out);
                let allowed = |c: &Commitment| {
                    calls
                        .iter()
                        .zip(&ruled_out)
                        .all(|(call, out)| match c[call] {
                            CommitTarget::Known(v) => !out.contains(&v),
                            CommitTarget::Fresh(_) => true,
                        })
                };
                let mut want = Vec::new();
                let mut since_kept = Vec::new();
                for c in &full {
                    if allowed(c) {
                        want.push((mints(&since_kept), c.clone()));
                        since_kept.clear();
                    } else {
                        since_kept.push(c.clone());
                    }
                }
                assert_eq!(got.kept, want, "{ruled_out:?}");
                assert_eq!(got.dropped as usize, full.len() - want.len());
                assert_eq!(got.trailing_mints, mints(&since_kept));
            }
        }
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
