//! Storage parity: each abstraction engine must build the same result in
//! both state storages — same transition system (states in the same
//! order, same edges), same outcome, same minted pool, and the same value
//! of every engine counter, i.e. the same dedup decisions.

use dcds_abstraction::{det_abs, rcycl, AbsOptions, DetAbstraction, Owned, RcyclResult, Store};
use dcds_core::{Dcds, Ts};
use dcds_obs::Obs;

/// Run the deterministic abstraction in both storages, assert they agree,
/// and return the owned-storage result.
pub fn det_storages_agree(dcds: &Dcds, budget: usize, opts: AbsOptions) -> DetAbstraction<Ts> {
    let owned = det_abs::build::<Owned>(dcds, budget, opts, &Obs::disabled());
    let store = det_abs::build::<Store>(dcds, budget, opts, &Obs::disabled());
    let threads = opts.threads;
    assert_eq!(
        store.ts.to_ts(),
        owned.ts,
        "det storages diverged at {threads} threads"
    );
    assert_eq!(store.outcome, owned.outcome);
    assert_eq!(store.pool.len(), owned.pool.len());
    assert_eq!(
        store.counters, owned.counters,
        "det counters diverged at {threads} threads"
    );
    owned
}

/// Run RCYCL in both storages, assert they agree, and return the
/// owned-storage result.
pub fn rcycl_storages_agree(dcds: &Dcds, budget: usize, threads: usize) -> RcyclResult<Ts> {
    let owned = rcycl::build::<Owned>(dcds, budget, threads, &Obs::disabled());
    let store = rcycl::build::<Store>(dcds, budget, threads, &Obs::disabled());
    assert_eq!(
        store.ts.to_ts(),
        owned.ts,
        "rcycl storages diverged at {threads} threads"
    );
    assert_eq!(store.complete, owned.complete);
    assert_eq!(store.state_budget_hit, owned.state_budget_hit);
    assert_eq!(store.eval_budget_skips, owned.eval_budget_skips);
    assert_eq!(store.used_values, owned.used_values);
    assert_eq!(store.triples_processed, owned.triples_processed);
    assert_eq!(store.pool.len(), owned.pool.len());
    assert_eq!(
        store.counters, owned.counters,
        "rcycl counters diverged at {threads} threads"
    );
    owned
}
