//! The `DO` operator and legal parameter assignments.
//!
//! `DO(I, ασ)` (Section 4.1) unions, over every effect `q⁺ ∧ Q⁻ ⇝ E` of α
//! and every answer θ of `(q⁺ ∧ Q⁻)σ` over `I`, the grounded head facts
//! `Eσθ`. The result is a *pre-instance*: a set of facts whose terms are
//! values or ground service calls awaiting resolution (deterministic
//! resolution in [`crate::det`], nondeterministic in [`crate::nondet`]).
//!
//! Both `DO` and the legal assignments run the compiled plans of the
//! system's [`PlanCache`] against the state's instance itself: a join step
//! keyed on a prefix of its atom's columns reads a range of the sorted
//! tuples, every other step scans its relation. No per-state index is
//! built, so an engine passes nothing but the instance.

use crate::action::ActionId;
use crate::dcds::Dcds;
use crate::term::{GTerm, ServiceCall};
use dcds_folang::{holds, Assignment, CompiledPlan, EvalCtx, PlanStats, Ucq, Var};
use dcds_reldata::{Instance, RelId, Tuple};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::Ordering;

/// A set of facts over ground terms (values and unresolved service calls).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PreInstance {
    facts: BTreeSet<(RelId, Vec<GTerm>)>,
}

impl PreInstance {
    /// Empty pre-instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a fact.
    pub fn insert(&mut self, rel: RelId, terms: Vec<GTerm>) -> bool {
        self.facts.insert((rel, terms))
    }

    /// Iterate over facts.
    pub fn facts(&self) -> impl Iterator<Item = (RelId, &[GTerm])> {
        self.facts.iter().map(|(r, ts)| (*r, ts.as_slice()))
    }

    /// Number of facts.
    pub fn len(&self) -> usize {
        self.facts.len()
    }

    /// True when no facts are present.
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }

    /// `CALLS(·)`: the set of ground service calls occurring in the facts.
    pub fn calls(&self) -> BTreeSet<ServiceCall> {
        let mut out = BTreeSet::new();
        for (_, terms) in self.facts() {
            for t in terms {
                if let GTerm::Call(c) = t {
                    out.insert(c.clone());
                }
            }
        }
        out
    }

    /// Resolve every call through `lookup`, producing a relational instance.
    /// Returns `None` if some call is not covered.
    pub fn resolve(
        &self,
        lookup: &dyn Fn(&ServiceCall) -> Option<dcds_reldata::Value>,
    ) -> Option<Instance> {
        let mut out = Instance::new();
        for (rel, terms) in self.facts() {
            let mut vals = Vec::with_capacity(terms.len());
            for t in terms {
                match t {
                    GTerm::Val(v) => vals.push(*v),
                    GTerm::Call(c) => vals.push(lookup(c)?),
                }
            }
            out.insert(rel, Tuple::from(vals));
        }
        Some(out)
    }
}

/// Compiled query plans for a DCDS: one [`CompiledPlan`] per effect `q⁺`
/// (with the action parameters as pre-bound inputs) and one per rule
/// condition that is recognisably a UCQ. Built once per system — see
/// [`Dcds::plans`] — and shared across the whole exploration. Validated
/// `q⁺` is range-restricted modulo the parameters, so every effect
/// compiles; rule conditions outside the compilable fragment keep `None`
/// and are answered by the reference active-domain evaluator.
#[derive(Debug, Default)]
pub struct PlanCache {
    /// `effect_plans[action][effect]`.
    effect_plans: Vec<Vec<CompiledPlan>>,
    /// One optional plan per condition–action rule.
    rule_plans: Vec<Option<CompiledPlan>>,
    /// Evaluation counters (plan evals, sorted-prefix probes vs scans,
    /// fallbacks).
    pub stats: PlanStats,
}

impl PlanCache {
    /// Compile every effect `q⁺` and every UCQ-shaped rule condition.
    pub fn build(dcds: &Dcds) -> PlanCache {
        let effect_plans = dcds
            .process
            .actions
            .iter()
            .map(|action| {
                let params: BTreeSet<Var> = action.params.iter().cloned().collect();
                action
                    .effects
                    .iter()
                    .map(|effect| compile_qplus(&effect.qplus, &params))
                    .collect()
            })
            .collect();
        let rule_plans = dcds
            .process
            .rules
            .iter()
            .map(|rule| {
                Ucq::from_formula(&rule.condition)
                    .and_then(|ucq| CompiledPlan::compile(&ucq, &BTreeSet::new()).ok())
            })
            .collect();
        PlanCache {
            effect_plans,
            rule_plans,
            stats: PlanStats::default(),
        }
    }

    /// The plan for a rule condition, if it compiled.
    pub fn rule_plan(&self, rule: usize) -> Option<&CompiledPlan> {
        self.rule_plans.get(rule)?.as_ref()
    }

    /// How many effects (resp. rules) compiled, out of how many. Every
    /// effect compiles; only rule conditions can fall outside the fragment.
    pub fn coverage(&self) -> ((usize, usize), (usize, usize)) {
        let effects = self.effect_plans.iter().flatten().count();
        (
            (effects, effects),
            (
                self.rule_plans.iter().filter(|p| p.is_some()).count(),
                self.rule_plans.len(),
            ),
        )
    }
}

/// Snapshot of the plan-cache counters, for delta publication around a run.
pub fn query_stats_snapshot(dcds: &Dcds) -> [(&'static str, u64); 4] {
    dcds.plans().stats.snapshot()
}

/// Publish the growth of the plan-cache counters since `before` into the
/// observability registry under `query.*`. The totals depend only on the
/// work performed, not on the thread count, and this is called from serial
/// engine code — so the registry stays bit-identical at every thread count.
pub fn publish_query_stats_delta(
    dcds: &Dcds,
    obs: &dcds_obs::Obs,
    before: &[(&'static str, u64); 4],
) {
    if !obs.is_enabled() {
        return;
    }
    for ((name, after), (_, b)) in dcds.plans().stats.snapshot().iter().zip(before) {
        obs.counter_add(format!("query.{name}"), after.saturating_sub(*b));
    }
}

/// Compile `q⁺` with `bound` as pre-bound inputs, keeping the disjuncts
/// that are range-restricted modulo `bound`. A dropped disjunct has an
/// unbound head or equality variable, which the natural join reads as
/// ranging over nothing, so it contributes no answer. Validated effects
/// under their own parameters drop nothing; only unvalidated systems
/// ([`Dcds::from_parts`]) and public-API σ that miss a parameter do.
fn compile_qplus(qplus: &Ucq, bound: &BTreeSet<Var>) -> CompiledPlan {
    let disjuncts = qplus
        .disjuncts
        .iter()
        .filter(|cq| CompiledPlan::compile(&Ucq::single((*cq).clone()), bound).is_ok())
        .cloned()
        .collect();
    CompiledPlan::compile(&Ucq { disjuncts }, bound).expect("every kept disjunct compiles")
}

/// `DO(I, ασ)`: apply the action under the parameter assignment, producing
/// the pre-instance of grounded effect heads. `q⁺` is evaluated through
/// the cached compiled plans.
///
/// The cached plans take exactly `params(α)` as inputs. Any other σ
/// (possible through this public API) is answered by a plan compiled for
/// it, with every variable σ binds as an input: a binding outside `q⁺` is
/// ignored, a parameter σ leaves open is bound by the join, and a disjunct
/// in which no atom binds it yields nothing — what substituting σ into
/// `q⁺` and joining returns.
pub fn do_action(
    dcds: &Dcds,
    inst: &Instance,
    action: ActionId,
    sigma: &Assignment,
) -> PreInstance {
    let cache = dcds.plans();
    let action_id = action;
    let action = dcds.process.action(action);
    let sigma_is_params =
        sigma.len() == action.params.len() && action.params.iter().all(|p| sigma.contains_key(p));
    let adhoc: Vec<CompiledPlan>;
    let plans = if sigma_is_params {
        &cache.effect_plans[action_id.index()]
    } else {
        let bound: BTreeSet<Var> = sigma.keys().cloned().collect();
        adhoc = action
            .effects
            .iter()
            .map(|effect| compile_qplus(&effect.qplus, &bound))
            .collect();
        &adhoc
    };
    let ctx = EvalCtx::scan(inst).stats(&cache.stats);
    let mut out = PreInstance::new();
    for (effect, plan) in action.effects.iter().zip(plans) {
        let thetas = plan.eval(&ctx, sigma);
        let qminus = effect.qminus.apply(sigma);
        for theta in thetas {
            // θ covers the (remaining) head variables of q+; the filter Q-
            // may mention them and the parameters (already substituted).
            let mut full: Assignment = theta.clone();
            for (p, v) in sigma {
                full.insert(p.clone(), *v);
            }
            let pass = if qminus == dcds_folang::Formula::True {
                true
            } else {
                // Restrict to the filter's free variables (all bound).
                holds(&qminus, inst, &full).unwrap_or(false)
            };
            if !pass {
                continue;
            }
            for (rel, terms) in &effect.head {
                let grounded: Option<Vec<GTerm>> = terms.iter().map(|t| t.ground(&full)).collect();
                if let Some(g) = grounded {
                    out.insert(*rel, g);
                }
            }
        }
    }
    out
}

/// Legal parameter assignments: for each rule `Q ↦ α`, every answer of `Q`
/// over the instance provides a legal σ for α (Section 4.1). Returns
/// deterministic, deduplicated `(action, σ)` pairs.
///
/// UCQ-shaped rule conditions are answered through their compiled plans;
/// conditions outside the fragment — negation, universal quantification,
/// non-range-restricted equalities — keep the reference active-domain
/// evaluator. Identical output either way: compiled plans are gated on the
/// range restriction under which the two semantics coincide.
pub fn legal_assignments(dcds: &Dcds, inst: &Instance) -> Vec<(ActionId, Assignment)> {
    let cache = dcds.plans();
    let mut seen: BTreeSet<(ActionId, Vec<(Var, dcds_reldata::Value)>)> = BTreeSet::new();
    let mut out = Vec::new();
    for (rix, rule) in dcds.process.rules.iter().enumerate() {
        let answers: BTreeSet<Assignment> = match cache.rule_plan(rix) {
            Some(plan) => plan.eval(&EvalCtx::scan(inst).stats(&cache.stats), &Assignment::new()),
            None => {
                cache.stats.fallback_evals.fetch_add(1, Ordering::Relaxed);
                dcds_folang::answers(&rule.condition, inst)
            }
        };
        for sigma in answers {
            let key: Vec<_> = sigma.iter().map(|(v, c)| (v.clone(), *c)).collect();
            if seen.insert((rule.action, key)) {
                out.push((rule.action, sigma));
            }
        }
    }
    out
}

/// Overwrite semantics helper used by both service semantics: the successor
/// instance is *exactly* the resolved `DO` result — facts not re-asserted by
/// some effect are forgotten (the paper's transition semantics).
pub fn resolve_with_map(
    pre: &PreInstance,
    map: &BTreeMap<ServiceCall, dcds_reldata::Value>,
) -> Option<Instance> {
    pre.resolve(&|c| map.get(c).copied())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DcdsBuilder;
    use crate::service::ServiceKind;

    /// Example 4.1 from the paper.
    fn example_4_1() -> Dcds {
        DcdsBuilder::new()
            .relation("Q", 2)
            .relation("P", 1)
            .relation("R", 1)
            .service("f", 1, ServiceKind::Deterministic)
            .service("g", 1, ServiceKind::Deterministic)
            .init_fact("P", &["a"])
            .init_fact("Q", &["a", "a"])
            .action("alpha", &[], |a| {
                a.effect("Q(a,a) & P(X)", "R(X)");
                a.effect("P(X)", "P(X), Q(f(X), g(X))");
            })
            .rule("true", "alpha")
            .build()
            .expect("example 4.1 is well-formed")
    }

    #[test]
    fn do_produces_calls_and_values() {
        let dcds = example_4_1();
        let alpha = dcds.action_id("alpha").unwrap();
        let pre = do_action(&dcds, &dcds.data.initial, alpha, &Assignment::new());
        // Facts: R(a), P(a), Q(f(a), g(a)).
        assert_eq!(pre.len(), 3);
        let calls = pre.calls();
        assert_eq!(calls.len(), 2);
        let names: BTreeSet<String> = calls
            .iter()
            .map(|c| c.display(&dcds.process.services, &dcds.data.pool))
            .collect();
        assert_eq!(
            names,
            ["f(a)".to_owned(), "g(a)".to_owned()].into_iter().collect()
        );
    }

    #[test]
    fn resolve_builds_instance() {
        let dcds = example_4_1();
        let alpha = dcds.action_id("alpha").unwrap();
        let pre = do_action(&dcds, &dcds.data.initial, alpha, &Assignment::new());
        let a = dcds.data.pool.get("a").unwrap();
        let map: BTreeMap<ServiceCall, _> = pre.calls().into_iter().map(|c| (c, a)).collect();
        let inst = resolve_with_map(&pre, &map).unwrap();
        // R(a), P(a), Q(a,a).
        assert_eq!(inst.len(), 3);
        let q = dcds.data.schema.rel_id("Q").unwrap();
        assert!(inst.contains(q, &Tuple::from([a, a])));
    }

    #[test]
    fn legal_assignments_from_true_rule() {
        let dcds = example_4_1();
        let legal = legal_assignments(&dcds, &dcds.data.initial);
        assert_eq!(legal.len(), 1);
        assert!(legal[0].1.is_empty());
    }

    #[test]
    fn unresolved_calls_fail_resolution() {
        let dcds = example_4_1();
        let alpha = dcds.action_id("alpha").unwrap();
        let pre = do_action(&dcds, &dcds.data.initial, alpha, &Assignment::new());
        assert!(resolve_with_map(&pre, &BTreeMap::new()).is_none());
    }

    #[test]
    fn parameterised_action_and_guard() {
        // ρ = { P(X) ↦ alpha(X) }, alpha(p): true ⇝ R(p).
        let dcds = DcdsBuilder::new()
            .relation("P", 1)
            .relation("R", 1)
            .init_fact("P", &["a"])
            .init_fact("P", &["b"])
            .action("alpha", &["X"], |a| {
                a.effect("true", "R(X)");
            })
            .rule("P(X)", "alpha")
            .build()
            .unwrap();
        let legal = legal_assignments(&dcds, &dcds.data.initial);
        assert_eq!(legal.len(), 2);
        let alpha = dcds.action_id("alpha").unwrap();
        for (act, sigma) in legal {
            assert_eq!(act, alpha);
            let pre = do_action(&dcds, &dcds.data.initial, act, &sigma);
            assert_eq!(pre.len(), 1);
        }
    }

    #[test]
    fn negative_filter_blocks_instantiations() {
        // e: P(X) ∧ ¬R(X) ⇝ R(X) — only copies P-values not yet in R.
        let dcds = DcdsBuilder::new()
            .relation("P", 1)
            .relation("R", 1)
            .init_fact("P", &["a"])
            .init_fact("P", &["b"])
            .init_fact("R", &["a"])
            .action("alpha", &[], |a| {
                a.effect("P(X) & !R(X)", "R(X)");
            })
            .rule("true", "alpha")
            .build()
            .unwrap();
        let alpha = dcds.action_id("alpha").unwrap();
        let pre = do_action(&dcds, &dcds.data.initial, alpha, &Assignment::new());
        // Only R(b).
        assert_eq!(pre.len(), 1);
        let b = dcds.data.pool.get("b").unwrap();
        let r = dcds.data.schema.rel_id("R").unwrap();
        let inst = pre.resolve(&|_| None).unwrap();
        assert!(inst.contains(r, &Tuple::from([b])));
    }
}
