//! A minimal scoped-thread work pool (std-only).
//!
//! The abstraction engines (deterministic abstraction, RCYCL) expand BFS
//! frontiers whose items are independent:
//! successor enumeration, `det_step`/`nondet_step` evaluation, signatures
//! and canonical keys can all be computed per item with no shared mutable
//! state. This module gives them a [`par_map`] primitive built directly on
//! [`std::thread::scope`] — the build environment has no registry access,
//! so no rayon — with the two properties the engines rely on:
//!
//! * **deterministic result order** — results come back in input order
//!   regardless of how the OS schedules the workers, so serial merge phases
//!   see exactly the sequence a serial loop would have produced;
//! * **work stealing by atomic cursor** — workers pull the next unclaimed
//!   index, so uneven item costs (one state with thousands of evaluations
//!   next to trivial ones) don't idle the pool.
//!
//! Thread count: explicit argument, or [`configured_threads`] which honours
//! the `DCDS_THREADS` environment variable and falls back to the machine's
//! available parallelism. `threads <= 1` (or a single item) short-circuits
//! to a plain serial loop in the calling thread, which is the engines'
//! serial schedule (`DCDS_THREADS=1`).

use dcds_obs::{span, Obs};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable overriding the default worker count.
pub const THREADS_ENV: &str = "DCDS_THREADS";

/// Below this many items the scoped-thread spawn/join round trip costs more
/// than it saves; [`par_map`] falls back to the serial loop. (BFS levels
/// near the root and tiny θ fan-outs hit this constantly — results are
/// identical either way, only the schedule changes.)
pub const PAR_THRESHOLD: usize = 32;

/// The worker count used when a caller does not pass one explicitly:
/// `DCDS_THREADS` if set to a positive integer, otherwise the machine's
/// available parallelism, otherwise 1.
pub fn configured_threads() -> usize {
    if let Ok(s) = std::env::var(THREADS_ENV) {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Apply `f` to every item, on up to `threads` scoped workers, returning
/// the results **in input order**.
///
/// `f` runs concurrently and must therefore be `Sync`; per-item work must
/// not depend on execution order (the engines route all order-sensitive
/// work — constant minting, dedup, index merging — through their
/// serial phases instead).
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_with(items, threads, || (), move |(), item| f(item))
}

/// [`par_map`] with a span wrapping each worker's whole loop, recorded on
/// the worker's own thread — which is what maps worker threads to distinct
/// tids in the Chrome-trace export. With a disabled handle this is exactly
/// [`par_map`]; results are identical either way.
pub fn par_map_obs<T, R, F>(
    items: &[T],
    threads: usize,
    obs: &Obs,
    name: &'static str,
    f: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if !obs.is_enabled() {
        return par_map(items, threads, f);
    }
    let n = items.len();
    par_map_with(
        items,
        threads,
        || span!(obs, name, items = n),
        move |_worker_span, item| f(item),
    )
}

/// [`par_map`] with per-worker scratch state: `init` runs once on each
/// worker (and once for the serial path) and the scratch is threaded
/// through every item that worker processes. Used for reusable buffers —
/// never for data the result depends on in an order-sensitive way.
pub fn par_map_with<T, R, C, F>(
    items: &[T],
    threads: usize,
    init: impl Fn() -> C + Sync,
    f: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&mut C, &T) -> R + Sync,
{
    let n = items.len();
    let workers = if n < PAR_THRESHOLD { 1 } else { threads.min(n) };
    if workers <= 1 {
        let mut ctx = init();
        return items.iter().map(|item| f(&mut ctx, item)).collect();
    }

    let cursor = AtomicUsize::new(0);
    let mut buckets: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut ctx = init();
                    let mut out: Vec<(usize, R)> = Vec::new();
                    loop {
                        let ix = cursor.fetch_add(1, Ordering::Relaxed);
                        if ix >= n {
                            break;
                        }
                        out.push((ix, f(&mut ctx, &items[ix])));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("par_map worker panicked"))
            .collect()
    });

    // Scatter back into input order.
    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for bucket in buckets.drain(..) {
        for (ix, r) in bucket {
            debug_assert!(results[ix].is_none());
            results[ix] = Some(r);
        }
    }
    results
        .into_iter()
        .map(|r| r.expect("every index processed exactly once"))
        .collect()
}

/// Observability counters shared by the state-space engines.
///
/// Filled in by the construction and returned by value in the engine
/// results (`DetAbstraction`, `RcyclResult`); the `dcds`
/// CLI prints them. All counts are exact — they are accumulated in the
/// serial merge phases or via atomics in the workers — and independent of
/// the thread count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// States whose successor sets were expanded (BFS dequeues).
    pub states_expanded: u64,
    /// Successor candidates produced (before deduplication).
    pub successors_generated: u64,
    /// Expensive canonical keys actually computed.
    pub canon_keys_computed: u64,
    /// Dedup probes answered by an empty signature bucket — each one is a
    /// canonicalisation that never happened.
    pub sig_filter_skips: u64,
    /// Complete value orders whose encoding the canonical-key search
    /// materialised (branch-and-bound leaves).
    pub canon_orders_enumerated: u64,
    /// Permutation subtrees the canonical-key search cut before reaching a
    /// leaf (certificate-prefix and transposition-orbit pruning).
    pub canon_prune_cutoffs: u64,
}

impl EngineCounters {
    /// The counters as `(name, value)` pairs — single source of truth for
    /// [`EngineCounters::to_json`] and [`EngineCounters::publish`].
    pub fn entries(&self) -> [(&'static str, u64); 6] {
        [
            ("states_expanded", self.states_expanded),
            ("successors_generated", self.successors_generated),
            ("canon_keys_computed", self.canon_keys_computed),
            ("sig_filter_skips", self.sig_filter_skips),
            ("canon_orders_enumerated", self.canon_orders_enumerated),
            ("canon_prune_cutoffs", self.canon_prune_cutoffs),
        ]
    }

    /// Serde-free JSON object, e.g. `{"states_expanded":12,...}` — for
    /// machine consumers (`dcds abstract|check --format json`,
    /// `perf_report`) that previously had to parse the `Display` string.
    pub fn to_json(&self) -> String {
        dcds_obs::export::json_counters(&self.entries())
    }

    /// Publish every counter into the observability registry under
    /// `<prefix>.<name>`, unifying the engine-local struct with the
    /// registry story. Called from serial code, so the registry stays
    /// thread-count deterministic.
    pub fn publish(&self, obs: &Obs, prefix: &str) {
        if !obs.is_enabled() {
            return;
        }
        for (k, v) in self.entries() {
            obs.counter_add(format!("{prefix}.{k}"), v);
        }
    }

    /// Fraction of dedup probes the signature fast path resolved without
    /// exact work, in `[0, 1]`; `None` when there were no probes.
    pub fn sig_hit_rate(&self) -> Option<f64> {
        let probes = self.sig_filter_skips + self.canon_keys_computed;
        if probes == 0 {
            None
        } else {
            Some(self.sig_filter_skips as f64 / probes as f64)
        }
    }
}

impl std::fmt::Display for EngineCounters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "expanded {} states, {} successors; {} canonical keys ({} orders, {} cutoffs), \
             {} sig-bucket skips",
            self.states_expanded,
            self.successors_generated,
            self.canon_keys_computed,
            self.canon_orders_enumerated,
            self.canon_prune_cutoffs,
            self.sig_filter_skips,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_input_order() {
        let items: Vec<usize> = (0..1000).collect();
        for threads in [1, 2, 3, 8] {
            let out = par_map(&items, threads, |&x| x * 2);
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn uneven_work_is_balanced() {
        // Items with wildly different costs still come back in order.
        let items: Vec<u64> = (0..64)
            .map(|i| if i % 7 == 0 { 200_000 } else { 10 })
            .collect();
        let spin = |n: u64| {
            let mut acc = 0u64;
            for i in 0..n {
                acc = acc.wrapping_add(i ^ acc.rotate_left(7));
            }
            acc
        };
        let serial: Vec<u64> = items.iter().map(|&n| spin(n)).collect();
        assert_eq!(par_map(&items, 4, |&n| spin(n)), serial);
    }

    #[test]
    fn empty_and_singleton() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, 8, |&x| x).is_empty());
        assert_eq!(par_map(&[5u32], 8, |&x| x + 1), vec![6]);
    }

    #[test]
    fn scratch_state_is_per_worker() {
        // The scratch must never leak between items in a way that changes
        // results: use it as a reusable buffer only.
        let items: Vec<usize> = (0..100).collect();
        let out = par_map_with(&items, 4, Vec::<usize>::new, |buf, &x| {
            buf.clear();
            buf.extend(0..=x);
            buf.iter().sum::<usize>()
        });
        let expect: Vec<usize> = items.iter().map(|&x| x * (x + 1) / 2).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn configured_threads_is_positive() {
        assert!(configured_threads() >= 1);
    }

    #[test]
    fn sig_hit_rate() {
        let mut c = EngineCounters::default();
        assert_eq!(c.sig_hit_rate(), None);
        c.sig_filter_skips = 3;
        c.canon_keys_computed = 1;
        assert_eq!(c.sig_hit_rate(), Some(0.75));
    }
}
