//! Isomorphism and canonical forms of fact sets.
//!
//! The abstraction results of the paper (Theorems 4.3 and 5.4) quotient
//! transition-system states by *isomorphism type*: two states are
//! interchangeable when a bijection over constants — fixing the "rigid"
//! constants of `ADOM(I_0)` pointwise — maps one database onto the other.
//! For the deterministic semantics the state also carries a service-call map,
//! so isomorphism must be computed over a mixed structure of relational facts
//! and call-map entries. We therefore work over a generic [`Facts`] structure:
//! a set of *colored tuples*, where the color is a relation id, a synthetic
//! service-call-map id, or anything else the caller needs.
//!
//! Two entry points:
//! * [`Facts::for_each_isomorphism`] — the definition searched directly:
//!   a backtracking matcher over the active domain that enumerates the
//!   witnessing bijections (optionally extending a given partial one), with
//!   no pruning beyond the facts it has mapped. [`Facts::isomorphism`] and
//!   [`Facts::isomorphic`] are its first hit, and it is the oracle the key
//!   is tested against;
//! * [`Facts::canonical_key`] — a canonical form such that two fact sets have
//!   equal keys iff they are isomorphic. Used to deduplicate states in
//!   `O(1)` during abstract-transition-system construction.
//!
//! The canonical key is the lexicographically-least encoding of the fact set
//! over all class-respecting orders of the non-rigid values. It is computed
//! by a branch-and-bound search over partial value orders: the active domain
//! is mapped to dense slots once, values are partitioned by iterated color
//! refinement, and the search extends one canonical index at a time, cutting
//! whole permutation subtrees when (a) the determined prefix of the partial
//! encoding already exceeds the best complete encoding found so far
//! (nauty-style certificate pruning), or (b) a sibling candidate is related
//! to an already-explored one by a transposition automorphism of the fact
//! set, which makes the sibling subtree a guaranteed duplicate. Fully
//! symmetric classes — `k!` class-respecting orders — therefore cost a
//! single descent, so no permutation budget or fallback path is needed.
//! When refinement leaves every free value in a class of its own, the
//! class order is the only order, and its encoding is written without
//! starting the search.

use crate::instance::{insert_sorted, sorted};
use crate::{Instance, Tuple, Value};
use std::cell::OnceCell;
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// A set of colored tuples ("facts") over values.
///
/// Colors play the role of relation symbols but are plain `u32`s so that
/// callers can mix relational facts with synthetic facts (e.g. service-call
/// map entries `f(v...) -> r` encoded as a fact of a per-function color).
///
/// The facts are one vector sorted by `(color, tuple)` without repeats, so
/// iteration is in that order, membership is a binary search, and fact
/// sets order lexicographically by their sorted facts.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Facts {
    facts: Vec<(u32, Tuple)>,
}

/// Canonical form of a [`Facts`] structure modulo renaming of non-rigid
/// values. Equal keys ⇔ isomorphic fact sets (w.r.t. the same rigid set).
///
/// It holds the sorted facts, each value written as its search code: a
/// rigid value as its pool index, the `i`-th non-rigid value in canonical
/// order as `FREE_BASE + i`. The facts are written one after another into
/// one flat vector, each as its color, its arity and its codes, so the
/// encoding is prefix-free: equal vectors are equal sorted fact lists.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CanonKey {
    enc: Vec<u64>,
}

/// Search effort counters reported by [`Facts::canonical_key_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CanonStats {
    /// Complete class-respecting orders whose encoding was materialised
    /// (leaves reached by the branch-and-bound search).
    pub orders_enumerated: u64,
    /// Permutation subtrees cut before reaching a leaf, by certificate
    /// prefix comparison or by transposition-orbit deduplication.
    pub prune_cutoffs: u64,
}

impl CanonKey {
    /// Number of distinct non-rigid values in the original fact set.
    pub fn var_count(&self) -> usize {
        let mut seen: BTreeSet<u64> = BTreeSet::new();
        let mut at = 0;
        while at < self.enc.len() {
            let codes = 2 + at..2 + at + self.enc[at + 1] as usize;
            seen.extend(self.enc[codes.clone()].iter().filter(|&&c| c >= FREE_BASE));
            at = codes.end;
        }
        seen.len()
    }

    /// The flat key of a sorted list of encoded facts.
    fn flatten(facts: &[(u32, Vec<u64>)]) -> CanonKey {
        let mut enc = Vec::with_capacity(facts.iter().map(|(_, t)| 2 + t.len()).sum());
        for (c, t) in facts {
            enc.extend([*c as u64, t.len() as u64]);
            enc.extend_from_slice(t);
        }
        CanonKey { enc }
    }
}

impl Facts {
    /// Empty fact set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from colored facts in any order, repeats allowed: one
    /// collect, one sort.
    pub fn from_facts(facts: impl IntoIterator<Item = (u32, Tuple)>) -> Self {
        Facts {
            facts: sorted(facts.into_iter().collect()),
        }
    }

    /// Build from colored facts given in strictly ascending
    /// `(color, tuple)` order: they are stored as they come.
    pub fn from_sorted_facts(facts: impl IntoIterator<Item = (u32, Tuple)>) -> Self {
        let facts: Vec<(u32, Tuple)> = facts.into_iter().collect();
        debug_assert!(facts.windows(2).all(|w| w[0] < w[1]), "facts not ascending");
        Facts { facts }
    }

    /// Insert a colored fact. Returns true if it was not already present.
    pub fn insert(&mut self, color: u32, tuple: Tuple) -> bool {
        insert_sorted(&mut self.facts, (color, tuple))
    }

    /// Membership: a binary search with the borrowed probe.
    pub fn contains(&self, color: u32, tuple: &Tuple) -> bool {
        self.facts
            .binary_search_by(|(c, t)| c.cmp(&color).then_with(|| t.cmp(tuple)))
            .is_ok()
    }

    /// Number of facts.
    pub fn len(&self) -> usize {
        self.facts.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }

    /// Iterate over facts.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &Tuple)> {
        self.facts.iter().map(|(c, t)| (*c, t))
    }

    /// Build from a relational instance: the color of each fact is the
    /// relation's index, so the instance's order is already the facts'.
    pub fn from_instance(inst: &Instance) -> Self {
        Facts {
            facts: inst
                .facts()
                .map(|(rel, t)| (rel.index() as u32, t.clone()))
                .collect(),
        }
    }

    /// The dense form of the fact set over `rigid`: one pass that maps its
    /// values to slots, from which both [`DenseCtx::signature`] and
    /// [`DenseCtx::canonical_key_stats`] are read.
    pub fn dense(&self, rigid: &BTreeSet<Value>) -> DenseCtx {
        DenseCtx::from_sorted_facts(
            || self.iter().map(|(c, t)| (c, t.values().iter().copied())),
            rigid,
        )
    }

    /// All values occurring in the fact set.
    pub fn active_domain(&self) -> BTreeSet<Value> {
        let mut adom = BTreeSet::new();
        for (_, t) in self.iter() {
            adom.extend(t.iter());
        }
        adom
    }

    /// Apply a renaming to every fact; facts it merges are kept once.
    pub fn rename(&self, map: &BTreeMap<Value, Value>) -> Facts {
        Facts::from_facts(self.iter().map(|(c, t)| (c, t.rename(map))))
    }

    /// Call `visit` on each isomorphism from `self` onto `other` that fixes
    /// `rigid` pointwise and extends `pre`, until `visit` returns true;
    /// returns whether it did. This is the definition, searched directly:
    /// a bijection `h : ADOM(self) → ADOM(other)` with
    /// `self.rename(h) == other`, `h(r) = r` for rigid `r`, `h(x) = pre(x)`
    /// where `pre` maps `x`, and no other value mapped onto `pre`'s image.
    ///
    /// The search backtracks over `ADOM(self)` in value order and cuts a
    /// partial map as soon as a fact whose values are all mapped falls
    /// outside `other`. It reads no signature and no refinement colour, so
    /// it is an independent oracle for [`Facts::canonical_key`].
    pub fn for_each_isomorphism(
        &self,
        other: &Facts,
        rigid: &BTreeSet<Value>,
        pre: &BTreeMap<Value, Value>,
        mut visit: impl FnMut(&BTreeMap<Value, Value>) -> bool,
    ) -> bool {
        let (adom_a, adom_b) = (self.active_domain(), other.active_domain());
        // A bijection needs equal sizes, and a value whose image is fixed
        // is in one active domain iff its image is in the other.
        if self.len() != other.len()
            || adom_a.len() != adom_b.len()
            || rigid
                .iter()
                .any(|r| adom_a.contains(r) != adom_b.contains(r))
            || pre
                .iter()
                .any(|(x, y)| adom_a.contains(x) != adom_b.contains(y))
        {
            return false;
        }
        let order: Vec<Value> = adom_a.into_iter().collect();
        // Each fact is due once its last value (in `order`) is mapped;
        // nullary facts map to themselves.
        let mut due: Vec<Vec<(u32, &Tuple)>> = vec![Vec::new(); order.len() + 1];
        for (c, t) in self.iter() {
            let last = t.iter().map(|v| order.binary_search(&v).unwrap() + 1).max();
            due[last.unwrap_or(0)].push((c, t));
        }
        if !due[0].iter().all(|(c, t)| other.contains(*c, t)) {
            return false;
        }
        let targets: Vec<Value> = adom_b.into_iter().filter(|y| !rigid.contains(y)).collect();
        Matcher {
            other,
            rigid,
            pre,
            pre_inverse: pre.iter().map(|(&x, &y)| (y, x)).collect(),
            order: &order,
            due: &due,
            targets: &targets,
            map: BTreeMap::new(),
            used: BTreeSet::new(),
        }
        .extend(0, &mut visit)
    }

    /// An isomorphism from `self` to `other` fixing `rigid` pointwise: the
    /// first that [`Facts::for_each_isomorphism`] finds.
    pub fn isomorphism(
        &self,
        other: &Facts,
        rigid: &BTreeSet<Value>,
    ) -> Option<BTreeMap<Value, Value>> {
        let mut found = None;
        self.for_each_isomorphism(other, rigid, &BTreeMap::new(), |h| {
            found = Some(h.clone());
            true
        });
        found
    }

    /// True iff `self` and `other` are isomorphic (see [`Facts::isomorphism`]).
    pub fn isomorphic(&self, other: &Facts, rigid: &BTreeSet<Value>) -> bool {
        self.for_each_isomorphism(other, rigid, &BTreeMap::new(), |_| true)
    }

    /// Canonical key modulo renaming of non-rigid values.
    ///
    /// Two fact sets yield the same key (w.r.t. the same rigid set) iff they
    /// are isomorphic. See [`Facts::canonical_key_stats`] for the search and
    /// its effort counters; this is a convenience wrapper that drops them.
    pub fn canonical_key(&self, rigid: &BTreeSet<Value>) -> CanonKey {
        self.canonical_key_stats(rigid).0
    }

    /// [`Facts::canonical_key`] plus [`CanonStats`] describing how much work
    /// the branch-and-bound search did.
    ///
    /// The key is the lexicographically-least encoding over all
    /// class-respecting orders of the non-rigid values. Rather than
    /// enumerating every order, the search assigns canonical indices one at
    /// a time and prunes a subtree as soon as the already-determined prefix
    /// of its encoding is provably no better than the best complete encoding
    /// found so far, or when a transposition automorphism shows the subtree
    /// duplicates an explored sibling. Fully symmetric classes — the
    /// factorial worst case of naive enumeration — collapse to a single
    /// descent, so the search terminates quickly on every input and no
    /// permutation budget is needed.
    ///
    /// When refinement leaves every free value in a class of its own (the
    /// common case), the class order is the only order: its encoding is
    /// written directly, the one leaf the search would reach, with the
    /// same stats (one order, no cutoff).
    pub fn canonical_key_stats(&self, rigid: &BTreeSet<Value>) -> (CanonKey, CanonStats) {
        self.dense(rigid).canonical_key_stats()
    }

    /// [`Facts::canonical_key_stats`], plus whether the key was written
    /// without the search. `shortcut` off runs the search even where
    /// refinement is discrete (tests compare the two paths).
    #[cfg(test)]
    pub(crate) fn canonical_key_with(
        &self,
        rigid: &BTreeSet<Value>,
        shortcut: bool,
    ) -> (CanonKey, CanonStats, bool) {
        self.dense(rigid).canonical_key_with(shortcut)
    }

    /// Reference implementation of the canonical key: enumerate *every*
    /// class-respecting order and keep the lexicographically-least encoding.
    /// Factorial in class sizes — test oracle only.
    #[cfg(test)]
    pub(crate) fn exhaustive_canonical_key(&self, rigid: &BTreeSet<Value>) -> CanonKey {
        let adom = self.active_domain();
        let free: Vec<Value> = adom
            .iter()
            .copied()
            .filter(|v| !rigid.contains(v))
            .collect();
        if free.is_empty() {
            return CanonKey::flatten(&encode_with(self, rigid, &BTreeMap::new()));
        }
        // The classes of the refined colouring ([`DenseCtx::refine`]);
        // slots are the active domain in value order.
        let ctx = self.dense(rigid);
        let colors = ctx.refine();
        let mut classes: BTreeMap<u64, Vec<Value>> = BTreeMap::new();
        for (s, v) in adom.iter().enumerate() {
            if !rigid.contains(v) {
                classes.entry(colors[s]).or_default().push(*v);
            }
        }
        let class_list: Vec<Vec<Value>> = classes.into_values().collect();
        let mut best: Option<Vec<(u32, Vec<u64>)>> = None;
        let mut assignment: Vec<Value> = Vec::with_capacity(free.len());
        permute_classes(&class_list, 0, &mut assignment, &mut |order| {
            let mut canon_ix: BTreeMap<Value, u32> = BTreeMap::new();
            for (i, &v) in order.iter().enumerate() {
                canon_ix.insert(v, i as u32);
            }
            let enc = encode_with(self, rigid, &canon_ix);
            match &best {
                Some(b) if *b <= enc => {}
                _ => best = Some(enc),
            }
        });
        CanonKey::flatten(&best.expect("at least one ordering exists"))
    }
}

/// Value codes of the search and of [`CanonKey`]: a rigid value encodes as
/// its pool index (`< 2^32`), the `i`-th free value in canonical order as
/// `FREE_BASE + i`. Every rigid code ranks below every free code, and free
/// codes rank by canonical index, so the lex-min encoding is taken directly
/// over the codes.
const FREE_BASE: u64 = 1 << 32;

/// Dense working form of a fact set ([`Facts::dense`]): the active domain
/// is mapped to slot indices `0..n` (in value order) once, and the facts,
/// their slots and each slot's occurrence count are kept in one flat
/// buffer, so the signature, refinement and the order search run on flat
/// arrays instead of `BTreeMap` lookups. One context serves both the
/// signature and the canonical key of a fact set; the per-slot occurrence
/// lists, which only the key reads, are built on its first use.
#[derive(Debug, Clone)]
pub struct DenseCtx {
    nfacts: usize,
    npos: usize,
    nslots: usize,
    /// Where each section of `buf` after the colors starts: fact starts,
    /// slots, values, occurrence starts, rigid flags.
    at: [usize; 5],
    /// Back to back: per fact its color, per fact where its slots start in
    /// the slots (then one end marker), every fact's positions as slots,
    /// per slot its value's index, per slot where its occurrences start
    /// (then one end marker), and per slot whether its value is rigid.
    buf: Vec<u32>,
    /// Per slot, its `(fact, position)` occurrences in fact order, slot
    /// after slot (indexed like the occurrence starts).
    occ: OnceCell<Vec<(u32, u32)>>,
}

impl DenseCtx {
    /// The dense form of the fact set whose facts `facts()` yields in
    /// ascending `(color, tuple)` order without repeats, each as its color
    /// and its values: what [`Facts::dense`] builds, for a caller that
    /// holds the facts in another form. `facts` is called twice, once to
    /// size the buffer and once to fill it.
    pub fn from_sorted_facts<I, V>(facts: impl Fn() -> I, rigid: &BTreeSet<Value>) -> DenseCtx
    where
        I: Iterator<Item = (u32, V)>,
        V: Iterator<Item = Value>,
    {
        let (mut nfacts, mut npos) = (0, 0);
        for (_, values) in facts() {
            nfacts += 1;
            npos += values.count();
        }
        // Room for every section with as many slots as positions.
        let mut buf = vec![0u32; nfacts];
        buf.reserve(nfacts + 1 + 4 * npos + 1);
        // Every position as `value << 32 | position`: sorted, the
        // positions of one value form a run, one run per slot in value
        // order.
        let mut keyed: Vec<u64> = Vec::with_capacity(npos);
        for (f, (c, values)) in facts().enumerate() {
            buf[f] = c;
            buf.push(keyed.len() as u32);
            for v in values {
                keyed.push((v.index() as u64) << 32 | keyed.len() as u64);
            }
        }
        debug_assert_eq!(keyed.len(), npos, "`facts` yields the same facts twice");
        buf.push(npos as u32);
        keyed.sort_unstable();
        let value_of = |k: u64| (k >> 32) as u32;
        let nslots = usize::from(npos > 0)
            + keyed
                .windows(2)
                .filter(|w| value_of(w[0]) != value_of(w[1]))
                .count();
        let slots_at = buf.len();
        let values_at = slots_at + npos;
        let occ_at = values_at + nslots;
        let rigid_at = occ_at + nslots + 1;
        buf.resize(rigid_at + nslots, 0);
        let mut slot = usize::MAX;
        for (i, &k) in keyed.iter().enumerate() {
            if i == 0 || value_of(keyed[i - 1]) != value_of(k) {
                slot = slot.wrapping_add(1);
                buf[values_at + slot] = value_of(k);
                buf[occ_at + slot] = i as u32;
            }
            buf[slots_at + (k as u32) as usize] = slot as u32;
        }
        buf[occ_at + nslots] = npos as u32;
        // Both sides are sorted: one merge finds the rigid slots.
        let value = |buf: &[u32], s: usize| Value::from_index(buf[values_at + s] as usize);
        let mut rigid_in = if nslots == 0 {
            rigid.range(..)
        } else {
            rigid.range(value(&buf, 0)..=value(&buf, nslots - 1))
        }
        .peekable();
        for s in 0..nslots {
            let v = value(&buf, s);
            while rigid_in.next_if(|&&r| r < v).is_some() {}
            buf[rigid_at + s] = u32::from(rigid_in.next_if_eq(&&v).is_some());
        }
        DenseCtx {
            nfacts,
            npos,
            nslots,
            at: [nfacts, slots_at, values_at, occ_at, rigid_at],
            buf,
            occ: OnceCell::new(),
        }
    }

    /// Number of facts.
    pub(crate) fn nfacts(&self) -> usize {
        self.nfacts
    }

    /// Number of slots: the size of the active domain.
    pub(crate) fn nslots(&self) -> usize {
        self.nslots
    }

    /// The color of fact `f`.
    pub(crate) fn color(&self, f: usize) -> u32 {
        self.buf[f]
    }

    /// Fact `f`: its color and its slots.
    pub(crate) fn fact(&self, f: usize) -> (u32, &[u32]) {
        let [fact_start, slots, ..] = self.at;
        let (from, to) = (self.buf[fact_start + f], self.buf[fact_start + f + 1]);
        (
            self.buf[f],
            &self.buf[slots + from as usize..slots + to as usize],
        )
    }

    /// The value of slot `s`.
    pub(crate) fn value(&self, s: usize) -> Value {
        Value::from_index(self.buf[self.at[2] + s] as usize)
    }

    /// Slot `s`'s code when its value is rigid: the value's index.
    pub(crate) fn rigid_code(&self, s: usize) -> Option<u64> {
        let [.., rigid] = self.at;
        (self.buf[rigid + s] != 0).then(|| self.value(s).index() as u64)
    }

    /// Where slot `s`'s occurrences lie in the list of every position
    /// sorted by slot.
    fn occ_range(&self, s: usize) -> std::ops::Range<usize> {
        let at = self.at[3] + s;
        self.buf[at] as usize..self.buf[at + 1] as usize
    }

    /// How many positions hold slot `s`'s value.
    pub(crate) fn occ_count(&self, s: usize) -> usize {
        self.occ_range(s).len()
    }

    /// Every `(fact, position)` occurrence of slot `s`, in fact order.
    pub(crate) fn occurrences(&self, s: usize) -> &[(u32, u32)] {
        let occ = self.occ.get_or_init(|| {
            let mut cursor: Vec<usize> =
                (0..self.nslots).map(|s| self.occ_range(s).start).collect();
            let mut occ = vec![(0u32, 0u32); self.npos];
            for f in 0..self.nfacts {
                for (p, &slot) in self.fact(f).1.iter().enumerate() {
                    occ[cursor[slot as usize]] = (f as u32, p as u32);
                    cursor[slot as usize] += 1;
                }
            }
            occ
        });
        &occ[self.occ_range(s)]
    }

    /// The canonical key of the fact set ([`Facts::canonical_key_stats`])
    /// from this context.
    pub fn canonical_key_stats(&self) -> (CanonKey, CanonStats) {
        let (key, stats, _) = self.canonical_key_with(true);
        (key, stats)
    }

    /// The canonical key when colour refinement alone fixes the order —
    /// every value rigid, or every free value in a refined class of its
    /// own — and `None` otherwise, without starting the order search.
    /// Refinement colours are isomorphism-invariant, so isomorphic fact
    /// sets (over the same rigid set) either both have this key or both
    /// have none.
    pub fn discrete_key(&self) -> Option<CanonKey> {
        self.forced_key(true).ok()
    }

    /// The key of the one class-respecting order when there is only one:
    /// every value rigid, or, with `shortcut`, refinement discrete. Else
    /// the free slots sorted by refined colour, for the order search:
    /// class *order* is canonical because refined colours are computed
    /// from iso-invariant signatures; within a class the slots stay
    /// ascending.
    fn forced_key(&self, shortcut: bool) -> Result<CanonKey, Vec<(u64, u32)>> {
        if (0..self.nslots).all(|s| self.rigid_code(s).is_some()) {
            // Every value is rigid: the encoding is forced.
            return Ok(self.encode(&[]));
        }
        let colors = self.refine();
        let mut by_color: Vec<(u64, u32)> = (0..self.nslots as u32)
            .filter(|&s| self.rigid_code(s as usize).is_none())
            .map(|s| (colors[s as usize], s))
            .collect();
        by_color.sort_unstable();
        if shortcut && by_color.windows(2).all(|w| w[0].0 != w[1].0) {
            // Discrete: the i-th class's slot gets canonical index i.
            let mut assigned = vec![u32::MAX; self.nslots];
            for (i, &(_, s)) in by_color.iter().enumerate() {
                assigned[s as usize] = i as u32;
            }
            return Ok(self.encode(&assigned));
        }
        Err(by_color)
    }

    /// [`DenseCtx::canonical_key_stats`], plus whether the key was written
    /// without the search. `shortcut` off runs the search even where
    /// refinement is discrete (tests compare the two paths).
    fn canonical_key_with(&self, shortcut: bool) -> (CanonKey, CanonStats, bool) {
        let by_color = match self.forced_key(shortcut) {
            Ok(key) => {
                let one_order = CanonStats {
                    orders_enumerated: 1,
                    prune_cutoffs: 0,
                };
                return (key, one_order, true);
            }
            Err(by_color) => by_color,
        };
        let mut class_list: Vec<Vec<u32>> = Vec::new();
        for (i, &(color, s)) in by_color.iter().enumerate() {
            if i == 0 || by_color[i - 1].0 != color {
                class_list.push(Vec::new());
            }
            class_list.last_mut().expect("pushed above").push(s);
        }
        let mut search = Search::new(self, &class_list);
        search.dfs(0);
        let stats = CanonStats {
            orders_enumerated: search.orders,
            prune_cutoffs: search.cutoffs,
        };
        let best = search.best.expect("at least one ordering exists");
        (CanonKey::flatten(&best), stats, false)
    }

    /// Per slot: the deduplicated indices of the facts it occurs in. Only
    /// the order search reads them (its transposition test), so they are
    /// derived from the occurrences when a search starts, never on a key
    /// that refinement already made discrete.
    fn slot_facts(&self) -> Vec<Vec<u32>> {
        (0..self.nslots)
            .map(|s| {
                let mut facts: Vec<u32> = self.occurrences(s).iter().map(|&(f, _)| f).collect();
                facts.dedup();
                facts
            })
            .collect()
    }

    /// Iterated color refinement on dense slots. Each round hashes a slot's
    /// previous color with the multiset of its fact contexts, so the new
    /// partition refines the old one, and an equal number of distinct colors
    /// means an equal partition: refinement stops at the first round that
    /// adds no color. The last round's colors are returned; their values fix
    /// the canonical class order.
    fn refine(&self) -> Vec<u64> {
        let n = self.nslots;
        let mut colors: Vec<u64> = (0..n)
            .map(|s| match self.rigid_code(s) {
                // Rigid values are distinguishable by identity.
                Some(code) => hash2(1, code),
                None => hash2(2, 0),
            })
            .collect();
        let mut next = vec![0u64; n];
        let mut sig: Vec<u64> = Vec::new();
        let mut sorted: Vec<u64> = Vec::with_capacity(n);
        let mut count_colors = |colors: &[u64]| {
            sorted.clear();
            sorted.extend_from_slice(colors);
            sorted.sort_unstable();
            sorted.dedup();
            sorted.len()
        };
        let mut blocks = count_colors(&colors);
        // Refine until stable (bounded by |adom| rounds).
        for _ in 0..n.max(1) {
            for s in 0..n {
                // Signature: multiset of (color, position, colors of
                // co-occurring values) over the facts containing the slot.
                sig.clear();
                for &(f, pos) in self.occurrences(s) {
                    let (c, slots) = self.fact(f as usize);
                    let mut h = hash2(c as u64, pos as u64);
                    for &x in slots {
                        h = hash2(h, colors[x as usize]);
                    }
                    sig.push(h);
                }
                sig.sort_unstable();
                let mut h = colors[s];
                for &sv in &sig {
                    h = hash2(h, sv);
                }
                next[s] = h;
            }
            std::mem::swap(&mut colors, &mut next);
            let grown = count_colors(&colors);
            if grown == blocks {
                break;
            }
            blocks = grown;
        }
        colors
    }

    /// The code of slot `s` under an order: a rigid slot's own code, a free
    /// slot's `FREE_BASE + assigned[s]`.
    fn code(&self, assigned: &[u32], s: u32) -> u64 {
        match self.rigid_code(s as usize) {
            Some(rc) => rc,
            None => FREE_BASE + assigned[s as usize] as u64,
        }
    }

    /// The key of a complete order, written flat: the facts' codes in one
    /// buffer, the facts sorted by `(color, codes)`, and each written as
    /// [`CanonKey::flatten`] writes it.
    fn encode(&self, assigned: &[u32]) -> CanonKey {
        let [fact_start, slots, values, ..] = self.at;
        let codes: Vec<u64> = self.buf[slots..values]
            .iter()
            .map(|&s| self.code(assigned, s))
            .collect();
        let coded = |f: u32| {
            let f = f as usize;
            let range = self.buf[fact_start + f] as usize..self.buf[fact_start + f + 1] as usize;
            (self.color(f), &codes[range])
        };
        let mut order: Vec<u32> = (0..self.nfacts() as u32).collect();
        order.sort_unstable_by(|&a, &b| coded(a).cmp(&coded(b)));
        let mut enc = Vec::with_capacity(codes.len() + 2 * order.len());
        for f in order {
            let (c, t) = coded(f);
            enc.extend([c as u64, t.len() as u64]);
            enc.extend_from_slice(t);
        }
        CanonKey { enc }
    }

    /// The sorted encoding of the facts under a complete order, fact by
    /// fact, as the order search compares it.
    fn encode_list(&self, assigned: &[u32]) -> Vec<(u32, Vec<u64>)> {
        let mut enc: Vec<(u32, Vec<u64>)> = (0..self.nfacts())
            .map(|f| {
                let (c, slots) = self.fact(f);
                (c, slots.iter().map(|&s| self.code(assigned, s)).collect())
            })
            .collect();
        enc.sort();
        enc
    }

    /// Identity labeling of a slot: rigid values by their code, free slots by
    /// `FREE_BASE + slot`. Used for automorphism membership tests.
    fn identity_code(&self, s: u32) -> u64 {
        self.rigid_code(s as usize).unwrap_or(FREE_BASE + s as u64)
    }
}

/// Branch-and-bound search for the lex-min encoding over class-respecting
/// orders of the free slots.
struct Search<'a> {
    ctx: &'a DenseCtx,
    class_slots: &'a [Vec<u32>],
    /// Position `k` of the order draws its slot from class `class_of_pos[k]`.
    class_of_pos: Vec<u32>,
    nfree: usize,
    /// Per slot: assigned canonical index, `u32::MAX` when unassigned.
    assigned: Vec<u32>,
    best: Option<Vec<(u32, Vec<u64>)>>,
    orders: u64,
    cutoffs: u64,
    /// Identity-labeled fact set for transposition-automorphism tests.
    identity: HashSet<(u32, Vec<u64>)>,
    /// [`DenseCtx::slot_facts`], for the transposition tests.
    slot_facts: Vec<Vec<u32>>,
    /// Scratch: per-fact encoding buffers for the prefix-prune check.
    enc_buf: Vec<Vec<u64>>,
    /// Scratch: per-fact "all slots determined" flags.
    det_flag: Vec<bool>,
    /// Scratch: indices of determined facts below the undetermined floor.
    det: Vec<u32>,
}

impl<'a> Search<'a> {
    fn new(ctx: &'a DenseCtx, class_slots: &'a [Vec<u32>]) -> Self {
        let nfree: usize = class_slots.iter().map(Vec::len).sum();
        let mut class_of_pos = Vec::with_capacity(nfree);
        for (ci, class) in class_slots.iter().enumerate() {
            for _ in 0..class.len() {
                class_of_pos.push(ci as u32);
            }
        }
        let identity: HashSet<(u32, Vec<u64>)> = (0..ctx.nfacts())
            .map(|f| {
                let (c, slots) = ctx.fact(f);
                (c, slots.iter().map(|&s| ctx.identity_code(s)).collect())
            })
            .collect();
        let nfacts = ctx.nfacts();
        Search {
            ctx,
            class_slots,
            class_of_pos,
            nfree,
            assigned: vec![u32::MAX; ctx.nslots()],
            best: None,
            orders: 0,
            cutoffs: 0,
            identity,
            slot_facts: ctx.slot_facts(),
            enc_buf: vec![Vec::new(); nfacts],
            det_flag: vec![false; nfacts],
            det: Vec::with_capacity(nfacts),
        }
    }

    fn dfs(&mut self, k: usize) {
        if k == self.nfree {
            self.leaf();
            return;
        }
        let class: &'a Vec<u32> = &self.class_slots[self.class_of_pos[k] as usize];
        // Forced move: with a single unassigned candidate there is nothing
        // to branch on, so skip all pruning machinery. This keeps the common
        // all-singleton-classes case at one straight-line descent.
        let mut only = u32::MAX;
        let mut count = 0usize;
        for &s in class {
            if self.assigned[s as usize] == u32::MAX {
                count += 1;
                only = s;
            }
        }
        if count == 1 {
            self.assigned[only as usize] = k as u32;
            self.dfs(k + 1);
            self.assigned[only as usize] = u32::MAX;
            return;
        }
        if self.should_prune(k) {
            self.cutoffs += 1;
            return;
        }
        let mut tried: Vec<u32> = Vec::with_capacity(count);
        for &w in class {
            if self.assigned[w as usize] != u32::MAX {
                continue;
            }
            // Orbit pruning: if swapping `w` with an already-explored sibling
            // is an automorphism of the fact set, the `w` subtree encodes the
            // same completions and can only tie — skip it.
            if tried.iter().any(|&v| self.transposition_fixes(v, w)) {
                self.cutoffs += 1;
                continue;
            }
            self.assigned[w as usize] = k as u32;
            self.dfs(k + 1);
            self.assigned[w as usize] = u32::MAX;
            tried.push(w);
        }
    }

    /// Materialise the encoding of a complete order and keep it when it is
    /// strictly better than the incumbent (first-found wins ties, matching
    /// the historical enumerator).
    fn leaf(&mut self) {
        self.orders += 1;
        let enc = self.ctx.encode_list(&self.assigned);
        match &self.best {
            Some(b) if *b <= enc => {}
            _ => self.best = Some(enc),
        }
    }

    /// Certificate prefix pruning. With `k` indices assigned, every
    /// still-unassigned free slot encodes as at least `FREE_BASE + k`, so a
    /// fact with an unassigned slot has a pointwise — hence lexicographic —
    /// lower bound. Let `L` be the least lower bound over undetermined facts:
    /// the determined facts strictly below `L` form an *exact* sorted prefix
    /// of every completion's encoding. If that prefix already compares
    /// greater than the incumbent best (or ties it while the incumbent's next
    /// element is below `L`), no completion in this subtree can win.
    fn should_prune(&mut self, k: usize) -> bool {
        let Search {
            ctx,
            assigned,
            best,
            enc_buf,
            det_flag,
            det,
            ..
        } = self;
        let ctx: &DenseCtx = ctx;
        let best = match best.as_ref() {
            Some(b) => b,
            None => return false,
        };
        let bound = FREE_BASE + k as u64;
        let nfacts = ctx.nfacts();
        for i in 0..nfacts {
            let (_, slots) = ctx.fact(i);
            let buf = &mut enc_buf[i];
            buf.clear();
            let mut determined = true;
            for &s in slots {
                let code = match ctx.rigid_code(s as usize) {
                    Some(rc) => rc,
                    None => {
                        let a = assigned[s as usize];
                        if a == u32::MAX {
                            determined = false;
                            bound
                        } else {
                            FREE_BASE + a as u64
                        }
                    }
                };
                buf.push(code);
            }
            det_flag[i] = determined;
        }
        // L: least (color, lower-bound encoding) among undetermined facts.
        let mut l: Option<usize> = None;
        for (i, &determined) in det_flag.iter().enumerate().take(nfacts) {
            if !determined {
                let less = match l {
                    None => true,
                    Some(j) => fact_lt(ctx, enc_buf, i, j),
                };
                if less {
                    l = Some(i);
                }
            }
        }
        let l = match l {
            Some(l) => l,
            // No undetermined fact: cannot happen below a branch node, but
            // declining to prune is always sound.
            None => return false,
        };
        det.clear();
        for (i, &determined) in det_flag.iter().enumerate().take(nfacts) {
            if determined && fact_lt(ctx, enc_buf, i, l) {
                det.push(i as u32);
            }
        }
        det.sort_unstable_by(|&a, &b| {
            (ctx.color(a as usize), &enc_buf[a as usize])
                .cmp(&(ctx.color(b as usize), &enc_buf[b as usize]))
        });
        for (ix, &fi) in det.iter().enumerate() {
            let p = (ctx.color(fi as usize), &enc_buf[fi as usize]);
            let b = (best[ix].0, &best[ix].1);
            match p.cmp(&b) {
                std::cmp::Ordering::Less => return false,
                std::cmp::Ordering::Greater => return true,
                std::cmp::Ordering::Equal => {}
            }
        }
        // Prefix equals the incumbent so far; the subtree's next element is
        // ≥ L, so if the incumbent's next element is strictly below L every
        // completion here compares greater.
        let p_len = det.len();
        if p_len >= best.len() {
            return false;
        }
        let b_next = (best[p_len].0, &best[p_len].1);
        let l_item = (ctx.color(l), &enc_buf[l]);
        b_next < l_item
    }

    /// True iff the transposition of free slots `v` and `w` (identity on
    /// everything else) maps the fact set onto itself.
    fn transposition_fixes(&self, v: u32, w: u32) -> bool {
        let ctx = self.ctx;
        for list in [&self.slot_facts[v as usize], &self.slot_facts[w as usize]] {
            for &fi in list.iter() {
                let (c, slots) = ctx.fact(fi as usize);
                let key: Vec<u64> = slots
                    .iter()
                    .map(|&s| {
                        let s2 = if s == v {
                            w
                        } else if s == w {
                            v
                        } else {
                            s
                        };
                        ctx.identity_code(s2)
                    })
                    .collect();
                if !self.identity.contains(&(c, key)) {
                    return false;
                }
            }
        }
        true
    }
}

#[inline]
fn fact_lt(ctx: &DenseCtx, enc_buf: &[Vec<u64>], i: usize, j: usize) -> bool {
    (ctx.color(i), &enc_buf[i]) < (ctx.color(j), &enc_buf[j])
}

/// Enumerate all orderings of the free values that respect the class
/// partition (classes in canonical order; arbitrary permutations within each
/// class), invoking `f` on each complete ordering. Oracle helper.
#[cfg(test)]
fn permute_classes(
    classes: &[Vec<Value>],
    class_ix: usize,
    acc: &mut Vec<Value>,
    f: &mut impl FnMut(&[Value]),
) {
    if class_ix == classes.len() {
        f(acc);
        return;
    }
    let class = &classes[class_ix];
    let mut perm: Vec<Value> = class.clone();
    permute_within(&mut perm, 0, classes, class_ix, acc, f);
}

#[cfg(test)]
fn permute_within(
    perm: &mut Vec<Value>,
    k: usize,
    classes: &[Vec<Value>],
    class_ix: usize,
    acc: &mut Vec<Value>,
    f: &mut impl FnMut(&[Value]),
) {
    if k == perm.len() {
        let start = acc.len();
        acc.extend(perm.iter().copied());
        permute_classes(classes, class_ix + 1, acc, f);
        acc.truncate(start);
        return;
    }
    for i in k..perm.len() {
        perm.swap(k, i);
        permute_within(perm, k + 1, classes, class_ix, acc, f);
        perm.swap(k, i);
    }
}

#[cfg(test)]
fn encode_with(
    facts: &Facts,
    rigid: &BTreeSet<Value>,
    canon_ix: &BTreeMap<Value, u32>,
) -> Vec<(u32, Vec<u64>)> {
    let mut out: Vec<(u32, Vec<u64>)> = facts
        .iter()
        .map(|(c, t)| {
            let vals = t
                .iter()
                .map(|v| {
                    if rigid.contains(&v) {
                        v.index() as u64
                    } else {
                        FREE_BASE + canon_ix[&v] as u64
                    }
                })
                .collect();
            (c, vals)
        })
        .collect();
    out.sort();
    out
}

#[inline]
pub(crate) fn hash2(a: u64, b: u64) -> u64 {
    // Simple 64-bit mix (splitmix-style); quality is plenty for refinement.
    let mut x = a
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(b)
        .wrapping_add(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The state of [`Facts::for_each_isomorphism`]'s search: `map` sends the
/// first `k` values of `order` into `other`, injectively onto `used`.
struct Matcher<'a> {
    other: &'a Facts,
    rigid: &'a BTreeSet<Value>,
    pre: &'a BTreeMap<Value, Value>,
    pre_inverse: BTreeMap<Value, Value>,
    order: &'a [Value],
    /// `due[k]`: the facts whose last value is `order[k - 1]`.
    due: &'a [Vec<(u32, &'a Tuple)>],
    /// The non-rigid values of `other`: what a free value may map to.
    targets: &'a [Value],
    map: BTreeMap<Value, Value>,
    used: BTreeSet<Value>,
}

impl Matcher<'_> {
    /// Map `order[k..]` in every allowed way; true once `visit` stops.
    fn extend(
        &mut self,
        k: usize,
        visit: &mut impl FnMut(&BTreeMap<Value, Value>) -> bool,
    ) -> bool {
        let Some(&x) = self.order.get(k) else {
            return visit(&self.map);
        };
        let own = [x];
        let candidates = if self.rigid.contains(&x) {
            &own[..]
        } else {
            self.targets
        };
        for &y in candidates {
            if self.used.contains(&y)
                || self.pre.get(&x).is_some_and(|&p| p != y)
                || self.pre_inverse.get(&y).is_some_and(|&w| w != x)
            {
                continue;
            }
            self.map.insert(x, y);
            self.used.insert(y);
            let fits = self.due[k + 1]
                .iter()
                .all(|(c, t)| self.other.contains(*c, &t.rename(&self.map)));
            if fits && self.extend(k + 1, visit) {
                return true;
            }
            self.map.remove(&x);
            self.used.remove(&y);
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConstantPool;

    fn vals(pool: &mut ConstantPool, names: &[&str]) -> Vec<Value> {
        names.iter().map(|n| pool.intern(n)).collect()
    }

    #[test]
    fn identical_facts_are_isomorphic() {
        let mut pool = ConstantPool::new();
        let v = vals(&mut pool, &["a", "b"]);
        let mut f = Facts::new();
        f.insert(0, Tuple::from([v[0], v[1]]));
        let rigid = BTreeSet::new();
        assert!(f.isomorphic(&f.clone(), &rigid));
    }

    #[test]
    fn renamed_facts_are_isomorphic_when_not_rigid() {
        let mut pool = ConstantPool::new();
        let v = vals(&mut pool, &["a", "b", "c"]);
        let mut f1 = Facts::new();
        f1.insert(0, Tuple::from([v[0], v[1]]));
        let mut f2 = Facts::new();
        f2.insert(0, Tuple::from([v[2], v[1]]));
        let empty = BTreeSet::new();
        assert!(f1.isomorphic(&f2, &empty));
        // But if `a` is rigid, renaming it is not allowed.
        let rigid: BTreeSet<Value> = [v[0]].into_iter().collect();
        assert!(!f1.isomorphic(&f2, &rigid));
    }

    #[test]
    fn isomorphism_respects_structure() {
        let mut pool = ConstantPool::new();
        let v = vals(&mut pool, &["a", "b", "c", "d"]);
        // f1: edge a->b plus loop c->c. f2: edge a->b plus edge c->d.
        let mut f1 = Facts::new();
        f1.insert(0, Tuple::from([v[0], v[1]]));
        f1.insert(0, Tuple::from([v[2], v[2]]));
        let mut f2 = Facts::new();
        f2.insert(0, Tuple::from([v[0], v[1]]));
        f2.insert(0, Tuple::from([v[2], v[3]]));
        let empty = BTreeSet::new();
        assert!(!f1.isomorphic(&f2, &empty));
    }

    #[test]
    fn witness_maps_facts_exactly() {
        let mut pool = ConstantPool::new();
        let v = vals(&mut pool, &["a", "b", "x", "y"]);
        let mut f1 = Facts::new();
        f1.insert(0, Tuple::from([v[0], v[1]]));
        f1.insert(1, Tuple::from([v[1]]));
        let mut f2 = Facts::new();
        f2.insert(0, Tuple::from([v[2], v[3]]));
        f2.insert(1, Tuple::from([v[3]]));
        let empty = BTreeSet::new();
        let h = f1.isomorphism(&f2, &empty).expect("isomorphic");
        assert_eq!(f1.rename(&h), f2);
    }

    #[test]
    fn canonical_key_agrees_with_isomorphism() {
        let mut pool = ConstantPool::new();
        let v = vals(&mut pool, &["a", "b", "c", "d"]);
        let rigid: BTreeSet<Value> = [v[0]].into_iter().collect();
        // Q(a,b), P(b)  vs  Q(a,c), P(c): isomorphic fixing a.
        let mut f1 = Facts::new();
        f1.insert(0, Tuple::from([v[0], v[1]]));
        f1.insert(1, Tuple::from([v[1]]));
        let mut f2 = Facts::new();
        f2.insert(0, Tuple::from([v[0], v[2]]));
        f2.insert(1, Tuple::from([v[2]]));
        assert_eq!(f1.canonical_key(&rigid), f2.canonical_key(&rigid));
        // Q(a,b), P(d): not isomorphic to f1.
        let mut f3 = Facts::new();
        f3.insert(0, Tuple::from([v[0], v[1]]));
        f3.insert(1, Tuple::from([v[3]]));
        assert_ne!(f1.canonical_key(&rigid), f3.canonical_key(&rigid));
    }

    #[test]
    fn canonical_key_with_symmetric_values() {
        let mut pool = ConstantPool::new();
        let v = vals(&mut pool, &["a", "b", "c"]);
        let empty = BTreeSet::new();
        // P(a), P(b), P(c): all three interchangeable.
        let mut f1 = Facts::new();
        for &x in &v {
            f1.insert(0, Tuple::from([x]));
        }
        let mut pool2 = ConstantPool::new();
        let w = vals(&mut pool2, &["x", "y", "z"]);
        let mut f2 = Facts::new();
        for &x in &w {
            f2.insert(0, Tuple::from([x]));
        }
        assert_eq!(f1.canonical_key(&empty), f2.canonical_key(&empty));
        assert_eq!(f1.canonical_key(&empty).var_count(), 3);
    }

    #[test]
    fn nullary_facts_participate() {
        let mut f1 = Facts::new();
        f1.insert(7, Tuple::unit());
        let f2 = Facts::new();
        let empty = BTreeSet::new();
        assert!(!f1.isomorphic(&f2, &empty));
        assert_ne!(f1.canonical_key(&empty), f2.canonical_key(&empty));
    }

    #[test]
    fn symmetric_classes_key_in_one_descent() {
        // 12 fully interchangeable values form a single refinement class:
        // 12! ≈ 4.8·10^8 class-respecting orders. Transposition-orbit
        // pruning proves every sibling subtree is a duplicate, so the search
        // materialises exactly one order and cuts 11+10+...+1 = 66 siblings.
        let mut pool = ConstantPool::new();
        let mut f1 = Facts::new();
        let mut f2 = Facts::new();
        for i in 0..12 {
            f1.insert(0, Tuple::from([pool.intern(&format!("x{i}"))]));
            f2.insert(0, Tuple::from([pool.intern(&format!("y{i}"))]));
        }
        let empty = BTreeSet::new();
        let (k1, s1) = f1.canonical_key_stats(&empty);
        let (k2, s2) = f2.canonical_key_stats(&empty);
        assert_eq!(k1, k2);
        assert_eq!(k1.var_count(), 12);
        assert_eq!(s1.orders_enumerated, 1);
        assert_eq!(s1.prune_cutoffs, 66);
        assert_eq!(s1, s2);
        // The backtracking matcher still agrees with key equality.
        assert!(f1.isomorphic(&f2, &empty));
        f2.insert(1, Tuple::from([pool.intern("y0")]));
        assert_ne!(k1, f2.canonical_key(&empty));
        assert!(!f1.isomorphic(&f2, &empty));
    }

    #[test]
    fn pruned_search_agrees_with_exhaustive_enumeration() {
        let mut pool = ConstantPool::new();
        let v = vals(&mut pool, &["a", "b", "c", "d"]);
        let rigid: BTreeSet<Value> = [v[0]].into_iter().collect();
        let mut f = Facts::new();
        f.insert(0, Tuple::from([v[0], v[1]]));
        f.insert(0, Tuple::from([v[1], v[2]]));
        f.insert(1, Tuple::from([v[3]]));
        assert_eq!(f.canonical_key(&rigid), f.exhaustive_canonical_key(&rigid));
        // And on a symmetric class at the edge of what enumeration affords:
        // 6 interchangeable values, 6! = 720 orders.
        let mut g = Facts::new();
        for i in 0..6 {
            g.insert(0, Tuple::from([pool.intern(&format!("s{i}"))]));
        }
        let empty = BTreeSet::new();
        let (key, stats) = g.canonical_key_stats(&empty);
        assert_eq!(key, g.exhaustive_canonical_key(&empty));
        assert_eq!(stats.orders_enumerated, 1);
    }

    #[test]
    fn from_instance_round_trip() {
        let mut pool = ConstantPool::new();
        let mut schema = crate::Schema::new();
        let p = schema.add_relation("P", 1).unwrap();
        let a = pool.intern("a");
        let inst = Instance::from_facts([(p, Tuple::from([a]))]);
        let f = Facts::from_instance(&inst);
        assert_eq!(f.len(), 1);
        assert!(f.contains(p.index() as u32, &Tuple::from([a])));
    }
}
