//! Exhaustive checks of the commitment and evaluation enumerators over
//! small finite domains: every call count × known-value count up to 3 × 3
//! for commitments, and up to 2 calls × 3 values for evaluations.

use dcds_core::commitment::{enumerate_commitments, fresh_cell_count, instantiate, CommitTarget};
use dcds_core::nondet::evals_over;
use dcds_core::{FuncId, ServiceCall};
use dcds_reldata::{ConstantPool, Value};
use std::collections::{BTreeMap, BTreeSet};

fn mk_calls(n: usize) -> Vec<ServiceCall> {
    (0..n)
        .map(|i| ServiceCall {
            func: FuncId::from_index(i % 2),
            args: vec![Value::from_index(100 + i)],
        })
        .collect()
}

fn mk_values(n: usize) -> Vec<Value> {
    (0..n).map(Value::from_index).collect()
}

/// The number of commitments of `calls` calls against `known` values: each
/// call picks a known value or joins a fresh cell (restricted growth).
fn reference_count(calls: usize, known: usize) -> usize {
    // f(remaining, used_cells): the ways to commit the remaining calls.
    fn f(remaining: usize, used_cells: usize, known: usize) -> usize {
        if remaining == 0 {
            return 1;
        }
        let mut total = known * f(remaining - 1, used_cells, known);
        for cell in 0..=used_cells {
            let next_used = used_cells.max(cell + 1);
            total += f(remaining - 1, next_used, known);
        }
        total
    }
    f(calls, 0, known)
}

#[test]
fn commitment_enumeration_is_canonical() {
    for calls in 0..4 {
        for known in 0..4 {
            let call_list = mk_calls(calls);
            let known_values = mk_values(known);
            let cs = enumerate_commitments(&call_list, &known_values);
            // (a) count matches the reference recurrence;
            assert_eq!(cs.len(), reference_count(calls, known), "{calls}×{known}");
            // (b) all commitments distinct;
            let set: BTreeSet<_> = cs.iter().cloned().collect();
            assert_eq!(set.len(), cs.len(), "{calls}×{known}");
            for c in &cs {
                // (c) restricted growth in *enumeration order* (the order
                // the calls were passed in — the map's key order may
                // differ);
                let mut next_expected = 0usize;
                for call in &call_list {
                    if let CommitTarget::Fresh(cell) = c[call] {
                        assert!(cell <= next_expected, "growth violated: {c:?}");
                        next_expected = next_expected.max(cell + 1);
                    }
                }
                assert!(fresh_cell_count(c) <= calls);
                // (d) the instantiation mints one new value per cell, keeps
                // known targets, and maps calls to equal values exactly when
                // the commitment puts them in the same cell.
                let mut pool = ConstantPool::new();
                for v in &known_values {
                    pool.intern(&format!("k{}", v.index()));
                }
                let theta = instantiate(c, &mut pool);
                assert_eq!(pool.len(), known + fresh_cell_count(c));
                assert_eq!(
                    theta.keys().collect::<Vec<_>>(),
                    c.keys().collect::<Vec<_>>()
                );
                for (call, target) in c {
                    match *target {
                        CommitTarget::Known(v) => assert_eq!(theta[call], v),
                        CommitTarget::Fresh(_) => assert!(!known_values.contains(&theta[call])),
                    }
                    for (other, other_target) in c {
                        assert_eq!(theta[call] == theta[other], target == other_target, "{c:?}");
                    }
                }
            }
        }
    }
}

#[test]
fn evals_enumerate_exactly_the_total_functions() {
    for calls in 0..3 {
        for values in 0..4 {
            let cs: BTreeSet<ServiceCall> = mk_calls(calls).into_iter().collect();
            let vs: BTreeSet<Value> = mk_values(values).into_iter().collect();
            let evals = evals_over(&cs, &vs);
            let expected = if calls == 0 {
                1
            } else if values == 0 {
                0
            } else {
                values.pow(calls as u32)
            };
            assert_eq!(evals.len(), expected, "{calls}×{values}");
            // All distinct, all total.
            let distinct: BTreeSet<BTreeMap<ServiceCall, Value>> = evals.iter().cloned().collect();
            assert_eq!(distinct.len(), evals.len());
            for theta in &evals {
                assert_eq!(theta.len(), cs.len());
                assert!(theta.values().all(|v| vs.contains(v)));
            }
        }
    }
}
