//! Dense state sets for the staged model checker.
//!
//! A [`StateSet`] is a bitset over the state indices `0..n` of one
//! transition system: bit `i` stands for `StateId::from_index(i)`. The
//! Boolean connectives of Figure 1 become word operations, a fixpoint's
//! convergence test is a word compare, and a cached extension is a copy of
//! `⌈n / 64⌉` words. Bits at or past `n` in the last word are always zero,
//! so equality, counting and complement need no masking at the call site.

use dcds_core::StateId;
use std::collections::BTreeSet;

const WORD: usize = 64;

/// A set of states `⊆ {0, …, n − 1}` as packed 64-bit words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct StateSet {
    words: Vec<u64>,
    n: usize,
}

impl StateSet {
    /// The empty set over `n` states.
    pub(crate) fn empty(n: usize) -> Self {
        StateSet {
            words: vec![0; n.div_ceil(WORD)],
            n,
        }
    }

    /// Every one of the `n` states.
    pub(crate) fn full(n: usize) -> Self {
        let mut out = StateSet {
            words: vec![!0; n.div_ceil(WORD)],
            n,
        };
        out.clear_tail();
        out
    }

    /// The states `i` with `member(i)`.
    pub(crate) fn from_fn(n: usize, mut member: impl FnMut(usize) -> bool) -> Self {
        let mut out = StateSet::empty(n);
        for (w, word) in out.words.iter_mut().enumerate() {
            for b in 0..WORD.min(n - w * WORD) {
                if member(w * WORD + b) {
                    *word |= 1 << b;
                }
            }
        }
        out
    }

    /// The members of `set` below `n` (ids past the system are dropped).
    pub(crate) fn from_ids(n: usize, set: &BTreeSet<StateId>) -> Self {
        let mut out = StateSet::empty(n);
        for s in set.iter().map(|s| s.index()).filter(|&i| i < n) {
            out.words[s / WORD] |= 1 << (s % WORD);
        }
        out
    }

    /// Zero the bits at or past `n` in the last word.
    fn clear_tail(&mut self) {
        if !self.n.is_multiple_of(WORD) {
            if let Some(last) = self.words.last_mut() {
                *last &= (1 << (self.n % WORD)) - 1;
            }
        }
    }

    pub(crate) fn contains(&self, i: usize) -> bool {
        self.words[i / WORD] >> (i % WORD) & 1 == 1
    }

    /// Number of members.
    pub(crate) fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Does the set hold all `n` states?
    pub(crate) fn is_full(&self) -> bool {
        self.len() == self.n
    }

    /// `self ← self ∩ other`.
    pub(crate) fn and_with(&mut self, other: &StateSet) {
        debug_assert_eq!(self.n, other.n);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// `self ← self ∪ other`.
    pub(crate) fn or_with(&mut self, other: &StateSet) {
        debug_assert_eq!(self.n, other.n);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// `self ← {0, …, n − 1} ∖ self`.
    pub(crate) fn complement(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.clear_tail();
    }

    /// The members as state ids, in increasing order.
    pub(crate) fn to_ids(&self) -> BTreeSet<StateId> {
        (0..self.n)
            .filter(|&i| self.contains(i))
            .map(StateId::from_index)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sizes around the word boundary, and one past two words.
    const SIZES: [usize; 6] = [1, 63, 64, 65, 120, 129];

    fn ids(n: usize, pick: impl Fn(usize) -> bool) -> BTreeSet<StateId> {
        (0..n)
            .filter(|&i| pick(i))
            .map(StateId::from_index)
            .collect()
    }

    #[test]
    fn algebra_matches_btreeset_at_word_boundaries() {
        for n in SIZES {
            let all = ids(n, |_| true);
            let a_ids = ids(n, |i| i % 3 == 0);
            let b_ids = ids(n, |i| i % 5 < 2 || i + 1 == n);
            let a = StateSet::from_ids(n, &a_ids);
            let b = StateSet::from_fn(n, |i| b_ids.contains(&StateId::from_index(i)));
            assert_eq!(a.to_ids(), a_ids, "n = {n}");
            assert_eq!(b.to_ids(), b_ids, "n = {n}");
            let mut and = a.clone();
            and.and_with(&b);
            assert_eq!(and.to_ids(), &a_ids & &b_ids, "n = {n}");
            let mut or = a.clone();
            or.or_with(&b);
            assert_eq!(or.to_ids(), &a_ids | &b_ids, "n = {n}");
            let mut not = a.clone();
            not.complement();
            assert_eq!(not.to_ids(), &all - &a_ids, "n = {n}");
            assert_eq!(not.len(), n - a_ids.len(), "n = {n}");
            // The complement of the complement is the set again, bit for
            // bit: the tail stays clear.
            not.complement();
            assert_eq!(not, a, "n = {n}");
        }
    }

    #[test]
    fn full_and_empty_are_exact() {
        for n in SIZES {
            let full = StateSet::full(n);
            assert!(full.is_full() && !full.is_empty(), "n = {n}");
            assert_eq!(full.len(), n);
            assert_eq!(full, StateSet::from_fn(n, |_| true), "n = {n}");
            let mut none = full.clone();
            none.complement();
            assert_eq!(none, StateSet::empty(n), "n = {n}");
            assert!(none.is_empty() && !none.is_full(), "n = {n}");
            // One missing state is not full.
            let almost = StateSet::from_fn(n, |i| i + 1 < n);
            assert!(!almost.is_full(), "n = {n}");
        }
        // Ids past the system are dropped, not set in the tail.
        let out_of_range = ids(70, |i| i >= 60);
        assert_eq!(
            StateSet::from_ids(64, &out_of_range),
            StateSet::from_fn(64, |i| i >= 60)
        );
    }
}
