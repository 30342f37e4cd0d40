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
//! * [`Facts::isomorphism`] — a backtracking matcher (with color-refinement
//!   pruning) that produces a witnessing bijection;
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

use crate::{Instance, Tuple, Value};
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// A set of colored tuples ("facts") over values.
///
/// Colors play the role of relation symbols but are plain `u32`s so that
/// callers can mix relational facts with synthetic facts (e.g. service-call
/// map entries `f(v...) -> r` encoded as a fact of a per-function color).
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Facts {
    facts: BTreeSet<(u32, Tuple)>,
}

/// Canonical form of a [`Facts`] structure modulo renaming of non-rigid
/// values. Equal keys ⇔ isomorphic fact sets (w.r.t. the same rigid set).
///
/// It holds the sorted facts, each value written as its search code: a
/// rigid value as its pool index, the `i`-th non-rigid value in canonical
/// order as `FREE_BASE + i`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CanonKey {
    facts: Vec<(u32, Vec<u64>)>,
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
        for (_, t) in &self.facts {
            seen.extend(t.iter().copied().filter(|&code| code >= FREE_BASE));
        }
        seen.len()
    }
}

impl Facts {
    /// Empty fact set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a colored fact.
    pub fn insert(&mut self, color: u32, tuple: Tuple) -> bool {
        self.facts.insert((color, tuple))
    }

    /// Membership.
    pub fn contains(&self, color: u32, tuple: &Tuple) -> bool {
        self.facts.contains(&(color, tuple.clone()))
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
    /// relation's index.
    pub fn from_instance(inst: &Instance) -> Self {
        let mut out = Facts::new();
        for (rel, t) in inst.facts() {
            out.insert(rel.index() as u32, t.clone());
        }
        out
    }

    /// Add all facts of an instance under an offset applied to relation
    /// colors (so callers can reserve low colors for something else).
    pub fn extend_from_instance(&mut self, inst: &Instance, color_offset: u32) {
        for (rel, t) in inst.facts() {
            self.insert(rel.index() as u32 + color_offset, t.clone());
        }
    }

    /// All values occurring in the fact set.
    pub fn active_domain(&self) -> BTreeSet<Value> {
        let mut adom = BTreeSet::new();
        for (_, t) in self.iter() {
            adom.extend(t.iter());
        }
        adom
    }

    /// Apply a renaming to every fact.
    pub fn rename(&self, map: &BTreeMap<Value, Value>) -> Facts {
        let mut out = Facts::new();
        for (c, t) in self.iter() {
            out.insert(c, t.rename(map));
        }
        out
    }

    /// Find an isomorphism from `self` to `other`: a bijection `h` between
    /// their active domains that is the identity on `rigid` values and maps
    /// `self`'s facts exactly onto `other`'s. Returns the witnessing map on
    /// success.
    pub fn isomorphism(
        &self,
        other: &Facts,
        rigid: &BTreeSet<Value>,
    ) -> Option<BTreeMap<Value, Value>> {
        if self.facts.len() != other.facts.len() {
            return None;
        }
        let adom_a = self.active_domain();
        let adom_b = other.active_domain();
        if adom_a.len() != adom_b.len() {
            return None;
        }
        // Rigid values must coincide on both sides.
        let rigid_a: BTreeSet<Value> = adom_a.intersection(rigid).copied().collect();
        let rigid_b: BTreeSet<Value> = adom_b.intersection(rigid).copied().collect();
        if rigid_a != rigid_b {
            return None;
        }
        // Invariant-signature prefilter (see `sig`): isomorphic fact sets
        // must have equal signatures, and the signature is much cheaper than
        // color refinement plus backtracking.
        if self.signature(rigid) != other.signature(rigid) {
            return None;
        }
        // Color refinement to prune candidates.
        let colors_a = refine_colors(self, rigid);
        let colors_b = refine_colors(other, rigid);
        // Class histograms must agree.
        if class_histogram(&colors_a) != class_histogram(&colors_b) {
            return None;
        }
        let free_a: Vec<Value> = adom_a
            .iter()
            .copied()
            .filter(|v| !rigid.contains(v))
            .collect();
        let mut map: BTreeMap<Value, Value> = rigid_a.iter().map(|&v| (v, v)).collect();
        let mut used: BTreeSet<Value> = rigid_b.clone();
        if backtrack(
            self, other, &colors_a, &colors_b, &free_a, 0, &mut map, &mut used,
        ) {
            Some(map)
        } else {
            None
        }
    }

    /// True iff `self` and `other` are isomorphic (see [`Facts::isomorphism`]).
    pub fn isomorphic(&self, other: &Facts, rigid: &BTreeSet<Value>) -> bool {
        self.isomorphism(other, rigid).is_some()
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
        let (key, stats, _) = self.canonical_key_with(rigid, true);
        (key, stats)
    }

    /// [`Facts::canonical_key_stats`], plus whether the key was written
    /// without the search. `shortcut` off runs the search even where
    /// refinement is discrete (tests compare the two paths).
    pub(crate) fn canonical_key_with(
        &self,
        rigid: &BTreeSet<Value>,
        shortcut: bool,
    ) -> (CanonKey, CanonStats, bool) {
        let ctx = DenseCtx::build(self, rigid);
        let one_order = CanonStats {
            orders_enumerated: 1,
            prune_cutoffs: 0,
        };
        if ctx.free_slots.is_empty() {
            // Every value is rigid: the encoding is forced.
            return (
                CanonKey {
                    facts: ctx.encode(&[]),
                },
                one_order,
                true,
            );
        }
        let colors = ctx.refine();
        // The free slots in class order. Class *order* is canonical because
        // refined colors are computed from iso-invariant signatures; within
        // a class the slots stay ascending.
        let mut by_color: Vec<(u64, u32)> = ctx
            .free_slots
            .iter()
            .map(|&s| (colors[s as usize], s))
            .collect();
        by_color.sort_unstable();
        if shortcut && by_color.windows(2).all(|w| w[0].0 != w[1].0) {
            // Discrete: the i-th class's slot gets canonical index i.
            let mut assigned = vec![u32::MAX; ctx.adom.len()];
            for (i, &(_, s)) in by_color.iter().enumerate() {
                assigned[s as usize] = i as u32;
            }
            return (
                CanonKey {
                    facts: ctx.encode(&assigned),
                },
                one_order,
                true,
            );
        }
        let mut class_list: Vec<Vec<u32>> = Vec::new();
        for (i, &(color, s)) in by_color.iter().enumerate() {
            if i == 0 || by_color[i - 1].0 != color {
                class_list.push(Vec::new());
            }
            class_list.last_mut().expect("pushed above").push(s);
        }
        let mut search = Search::new(&ctx, &class_list);
        search.dfs(0);
        let stats = CanonStats {
            orders_enumerated: search.orders,
            prune_cutoffs: search.cutoffs,
        };
        let best = search.best.expect("at least one ordering exists");
        (CanonKey { facts: best }, stats, false)
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
            return CanonKey {
                facts: encode_with(self, rigid, &BTreeMap::new()),
            };
        }
        let colors = refine_colors(self, rigid);
        let mut classes: BTreeMap<u64, Vec<Value>> = BTreeMap::new();
        for &v in &free {
            classes.entry(colors[&v]).or_default().push(v);
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
        CanonKey {
            facts: best.expect("at least one ordering exists"),
        }
    }
}

/// Value codes of the search and of [`CanonKey`]: a rigid value encodes as
/// its pool index (`< 2^32`), the `i`-th free value in canonical order as
/// `FREE_BASE + i`. Every rigid code ranks below every free code, and free
/// codes rank by canonical index, so the lex-min encoding is taken directly
/// over the codes.
const FREE_BASE: u64 = 1 << 32;

/// Dense working form of a fact set: the active domain is mapped to slot
/// indices `0..n` (in value order) once, so refinement and the order search
/// run on flat vectors instead of `BTreeMap` lookups.
struct DenseCtx {
    /// Active domain, sorted; slot `s` is `adom[s]`.
    adom: Vec<Value>,
    /// Per slot: `Some(value code)` when the value is rigid.
    rigid_code: Vec<Option<u64>>,
    /// Facts with tuple positions rewritten to slots.
    facts: Vec<(u32, Vec<u32>)>,
    /// Per slot: every `(fact, position)` occurrence, in fact order.
    occurrences: Vec<Vec<(u32, u32)>>,
    /// Slots of non-rigid values, ascending.
    free_slots: Vec<u32>,
}

impl DenseCtx {
    fn build(facts: &Facts, rigid: &BTreeSet<Value>) -> Self {
        let adom: Vec<Value> = facts.active_domain().into_iter().collect();
        let nslots = adom.len();
        let mut dense: Vec<(u32, Vec<u32>)> = Vec::with_capacity(facts.len());
        let mut occurrences: Vec<Vec<(u32, u32)>> = vec![Vec::new(); nslots];
        for (fi, (c, t)) in facts.iter().enumerate() {
            let slots: Vec<u32> = t
                .iter()
                .map(|v| adom.binary_search(&v).expect("adom value") as u32)
                .collect();
            for (pos, &s) in slots.iter().enumerate() {
                occurrences[s as usize].push((fi as u32, pos as u32));
            }
            dense.push((c, slots));
        }
        let rigid_code: Vec<Option<u64>> = adom
            .iter()
            .map(|v| rigid.contains(v).then_some(v.index() as u64))
            .collect();
        let free_slots: Vec<u32> = (0..nslots as u32)
            .filter(|&s| rigid_code[s as usize].is_none())
            .collect();
        DenseCtx {
            adom,
            rigid_code,
            facts: dense,
            occurrences,
            free_slots,
        }
    }

    /// Per slot: the deduplicated indices of the facts it occurs in. Only
    /// the order search reads them (its transposition test), so they are
    /// derived from the occurrences when a search starts, never on a key
    /// that refinement already made discrete.
    fn slot_facts(&self) -> Vec<Vec<u32>> {
        self.occurrences
            .iter()
            .map(|occ| {
                let mut facts: Vec<u32> = occ.iter().map(|&(f, _)| f).collect();
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
        let n = self.adom.len();
        let mut colors: Vec<u64> = (0..n)
            .map(|s| match self.rigid_code[s] {
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
                for &(f, pos) in &self.occurrences[s] {
                    let (c, slots) = &self.facts[f as usize];
                    let mut h = hash2(*c as u64, pos as u64);
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

    /// The sorted encoding of the facts under a complete order: a rigid
    /// slot by its code, a free slot `s` by `FREE_BASE + assigned[s]`.
    fn encode(&self, assigned: &[u32]) -> Vec<(u32, Vec<u64>)> {
        let mut enc: Vec<(u32, Vec<u64>)> = self
            .facts
            .iter()
            .map(|(c, slots)| {
                let vals = slots
                    .iter()
                    .map(|&s| match self.rigid_code[s as usize] {
                        Some(rc) => rc,
                        None => FREE_BASE + assigned[s as usize] as u64,
                    })
                    .collect();
                (*c, vals)
            })
            .collect();
        enc.sort();
        enc
    }

    /// Identity labeling of a slot: rigid values by their code, free slots by
    /// `FREE_BASE + slot`. Used for automorphism membership tests.
    fn identity_code(&self, s: u32) -> u64 {
        self.rigid_code[s as usize].unwrap_or(FREE_BASE + s as u64)
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
        let identity: HashSet<(u32, Vec<u64>)> = ctx
            .facts
            .iter()
            .map(|(c, slots)| {
                let key = slots.iter().map(|&s| ctx.identity_code(s)).collect();
                (*c, key)
            })
            .collect();
        let nfacts = ctx.facts.len();
        Search {
            ctx,
            class_slots,
            class_of_pos,
            nfree,
            assigned: vec![u32::MAX; ctx.adom.len()],
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
        let enc = self.ctx.encode(&self.assigned);
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
        let nfacts = ctx.facts.len();
        for i in 0..nfacts {
            let (_, slots) = &ctx.facts[i];
            let buf = &mut enc_buf[i];
            buf.clear();
            let mut determined = true;
            for &s in slots {
                let code = match ctx.rigid_code[s as usize] {
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
            (ctx.facts[a as usize].0, &enc_buf[a as usize])
                .cmp(&(ctx.facts[b as usize].0, &enc_buf[b as usize]))
        });
        for (ix, &fi) in det.iter().enumerate() {
            let p = (ctx.facts[fi as usize].0, &enc_buf[fi as usize]);
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
        let l_item = (ctx.facts[l].0, &enc_buf[l]);
        b_next < l_item
    }

    /// True iff the transposition of free slots `v` and `w` (identity on
    /// everything else) maps the fact set onto itself.
    fn transposition_fixes(&self, v: u32, w: u32) -> bool {
        let ctx = self.ctx;
        for list in [&self.slot_facts[v as usize], &self.slot_facts[w as usize]] {
            for &fi in list.iter() {
                let (c, slots) = &ctx.facts[fi as usize];
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
                if !self.identity.contains(&(*c, key)) {
                    return false;
                }
            }
        }
        true
    }
}

#[inline]
fn fact_lt(ctx: &DenseCtx, enc_buf: &[Vec<u64>], i: usize, j: usize) -> bool {
    (ctx.facts[i].0, &enc_buf[i]) < (ctx.facts[j].0, &enc_buf[j])
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

/// Iterated color refinement: assigns each value of the active domain a hash
/// color that is invariant under isomorphisms fixing `rigid`. Rigid values
/// get a color derived from their identity. Thin map-building wrapper over
/// the dense [`DenseCtx::refine`] kernel.
fn refine_colors(facts: &Facts, rigid: &BTreeSet<Value>) -> BTreeMap<Value, u64> {
    let ctx = DenseCtx::build(facts, rigid);
    let colors = ctx.refine();
    ctx.adom
        .iter()
        .enumerate()
        .map(|(s, &v)| (v, colors[s]))
        .collect()
}

/// Multiset of (color, class size); must agree for isomorphic fact sets.
fn class_histogram(colors: &BTreeMap<Value, u64>) -> BTreeMap<u64, usize> {
    let mut hist = BTreeMap::new();
    for &c in colors.values() {
        *hist.entry(c).or_insert(0) += 1;
    }
    hist
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

#[allow(clippy::too_many_arguments)]
fn backtrack(
    a: &Facts,
    b: &Facts,
    colors_a: &BTreeMap<Value, u64>,
    colors_b: &BTreeMap<Value, u64>,
    free_a: &[Value],
    k: usize,
    map: &mut BTreeMap<Value, Value>,
    used: &mut BTreeSet<Value>,
) -> bool {
    if k == free_a.len() {
        // All values mapped; verify facts map exactly.
        return a.rename(map) == *b;
    }
    let v = free_a[k];
    let target_color = colors_a[&v];
    let candidates: Vec<Value> = colors_b
        .iter()
        .filter(|(w, &c)| c == target_color && !used.contains(w))
        .map(|(&w, _)| w)
        .collect();
    for w in candidates {
        map.insert(v, w);
        used.insert(w);
        if partial_consistent(a, b, map)
            && backtrack(a, b, colors_a, colors_b, free_a, k + 1, map, used)
        {
            return true;
        }
        map.remove(&v);
        used.remove(&w);
    }
    false
}

/// Check that every fact of `a` whose values are all mapped already has an
/// image in `b`.
fn partial_consistent(a: &Facts, b: &Facts, map: &BTreeMap<Value, Value>) -> bool {
    for (c, t) in a.iter() {
        if t.iter().all(|v| map.contains_key(&v)) {
            let img = t.rename(map);
            if !b.contains(c, &img) {
                return false;
            }
        }
    }
    true
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
