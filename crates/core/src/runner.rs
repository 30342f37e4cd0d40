//! Interactive execution of a DCDS: step through the concrete transition
//! system one action at a time, with the environment's service answers
//! supplied by the caller, by a pseudo-random driver, or by commitment
//! representatives.
//!
//! This is the "simulator" face of the library — where the model checker
//! answers *whether* something can happen, the runner lets applications and
//! tests *make* it happen (e.g. replaying a scenario, scripting a demo, or
//! fuzzing an implementation against the model).

use crate::action::ActionId;
use crate::dcds::Dcds;
use crate::det::{det_step, DetState};
use crate::do_op::{do_action, legal_assignments};
use crate::nondet::nondet_step;
use crate::term::ServiceCall;
use dcds_folang::Assignment;
use dcds_reldata::{ConstantPool, Instance, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// How service calls are answered when the caller does not supply values.
#[derive(Debug, Clone, Copy)]
pub enum AnswerPolicy {
    /// Every unanswered call returns a freshly minted constant.
    AlwaysFresh,
    /// Pseudo-random choice among the current known values plus one fresh
    /// candidate (deterministic in the seed).
    Random {
        /// RNG seed (advanced on every step).
        seed: u64,
    },
}

/// One step's record: what ran and what the services answered.
#[derive(Debug, Clone)]
pub struct StepRecord {
    /// The action executed.
    pub action: ActionId,
    /// The parameter assignment σ.
    pub sigma: Assignment,
    /// The service answers used this step (new calls only, for
    /// deterministic services).
    pub answers: BTreeMap<ServiceCall, Value>,
}

/// A running DCDS instance.
pub struct Runner {
    dcds: Dcds,
    pool: ConstantPool,
    det_state: DetState,
    policy: AnswerPolicy,
    history: Vec<StepRecord>,
}

impl Runner {
    /// Start at `⟨I₀, ∅⟩`.
    pub fn new(dcds: Dcds, policy: AnswerPolicy) -> Self {
        let pool = dcds.working_pool();
        let det_state = DetState::initial(&dcds);
        Runner {
            dcds,
            pool,
            det_state,
            policy,
            history: Vec::new(),
        }
    }

    /// The current database.
    pub fn current(&self) -> &Instance {
        &self.det_state.instance
    }

    /// The service-call map accumulated so far (meaningful for
    /// deterministic services; ignored for nondeterministic ones).
    pub fn call_map(&self) -> &BTreeMap<ServiceCall, Value> {
        &self.det_state.call_map
    }

    /// The system being run.
    pub fn dcds(&self) -> &Dcds {
        &self.dcds
    }

    /// The step log.
    pub fn history(&self) -> &[StepRecord] {
        &self.history
    }

    /// The executable `(action, σ)` pairs in the current state.
    pub fn available(&self) -> Vec<(ActionId, Assignment)> {
        legal_assignments(&self.dcds, &self.det_state.instance)
    }

    /// The calls the given `(action, σ)` would issue that still need an
    /// answer (for deterministic services, calls already in the map are
    /// answered by history).
    pub fn pending_calls(&self, action: ActionId, sigma: &Assignment) -> BTreeSet<ServiceCall> {
        let pre = do_action(&self.dcds, &self.det_state.instance, action, sigma);
        pre.calls()
            .into_iter()
            .filter(|c| {
                !(self.service_is_deterministic(c) && self.det_state.call_map.contains_key(c))
            })
            .collect()
    }

    fn service_is_deterministic(&self, c: &ServiceCall) -> bool {
        self.dcds.process.services.kind(c.func) == crate::service::ServiceKind::Deterministic
    }

    /// Execute `(action, σ)` with explicit answers for the pending calls.
    /// Returns the executed record, or an error message when the assignment
    /// is not legal, an answer is missing, or the successor violates the
    /// constraints.
    pub fn step_with(
        &mut self,
        action: ActionId,
        sigma: &Assignment,
        answers: &BTreeMap<ServiceCall, Value>,
    ) -> Result<&StepRecord, String> {
        if !self
            .available()
            .iter()
            .any(|(a, s)| *a == action && s == sigma)
        {
            return Err("the parameter assignment is not legal in this state".to_owned());
        }
        if self.dcds.is_deterministic() {
            let next = det_step(&self.dcds, &self.det_state, action, sigma, answers)
                .ok_or("step rejected: missing answers or constraint violation")?;
            self.det_state = next;
        } else {
            // Nondeterministic (or mixed treated nondeterministically for
            // the nondet services): every call needs an answer; history is
            // still enforced for deterministic services via det_step when
            // the catalog is fully deterministic. For mixed catalogs we
            // enforce history manually here.
            let pre = do_action(&self.dcds, &self.det_state.instance, action, sigma);
            let mut theta = answers.clone();
            for call in pre.calls() {
                if self.service_is_deterministic(&call) {
                    if let Some(&v) = self.det_state.call_map.get(&call) {
                        if let Some(&w) = theta.get(&call) {
                            if w != v {
                                return Err(format!(
                                    "deterministic call answered {} but history says {}",
                                    self.pool.name(w),
                                    self.pool.name(v)
                                ));
                            }
                        }
                        theta.insert(call, v);
                    }
                }
            }
            let next = nondet_step(&self.dcds, &self.det_state.instance, action, sigma, &theta)
                .ok_or("step rejected: missing answers or constraint violation")?;
            // Record deterministic answers in the map.
            for (call, &v) in &theta {
                if self.service_is_deterministic(call) {
                    self.det_state.call_map.insert(call.clone(), v);
                }
            }
            self.det_state.instance = Arc::new(next);
        }
        self.history.push(StepRecord {
            action,
            sigma: sigma.clone(),
            answers: answers.clone(),
        });
        Ok(self.history.last().unwrap())
    }

    /// Execute `(action, σ)`, answering pending calls per the policy.
    pub fn step(&mut self, action: ActionId, sigma: &Assignment) -> Result<&StepRecord, String> {
        let pending = self.pending_calls(action, sigma);
        let mut answers = BTreeMap::new();
        match self.policy {
            AnswerPolicy::AlwaysFresh => {
                for c in pending {
                    let v = self.pool.mint("env");
                    answers.insert(c, v);
                }
            }
            AnswerPolicy::Random { ref mut seed } => {
                let mut known: Vec<Value> = self.det_state.known_values().into_iter().collect();
                known.push(self.pool.mint("env"));
                for c in pending {
                    *seed ^= *seed << 13;
                    *seed ^= *seed >> 7;
                    *seed ^= *seed << 17;
                    let v = known[(*seed % known.len() as u64) as usize];
                    answers.insert(c, v);
                }
            }
        }
        self.step_with(action, sigma, &answers)
    }

    /// Execute the first available `(action, σ)` (deterministic order), or
    /// report deadlock.
    pub fn step_any(&mut self) -> Result<&StepRecord, String> {
        let (action, sigma) = self
            .available()
            .into_iter()
            .next()
            .ok_or("deadlock: no action is executable")?;
        self.step(action, &sigma)
    }

    /// Run up to `n` steps with `step_any`, stopping early on deadlock or
    /// rejection. Returns the number of steps taken.
    pub fn run(&mut self, n: usize) -> usize {
        for i in 0..n {
            if self.step_any().is_err() {
                return i;
            }
        }
        n
    }

    /// The pool (extended with minted environment values) for display.
    pub fn pool(&self) -> &ConstantPool {
        &self.pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DcdsBuilder;
    use crate::service::ServiceKind;

    fn det_system() -> Dcds {
        DcdsBuilder::new()
            .relation("R", 1)
            .relation("Q", 1)
            .service("f", 1, ServiceKind::Deterministic)
            .init_fact("R", &["a"])
            .action("alpha", &[], |a| {
                a.effect("R(X)", "Q(f(X))");
                a.effect("Q(X)", "R(X)");
            })
            .rule("true", "alpha")
            .build()
            .unwrap()
    }

    #[test]
    fn fresh_policy_walks_the_chain() {
        let mut runner = Runner::new(det_system(), AnswerPolicy::AlwaysFresh);
        assert_eq!(runner.available().len(), 1);
        let steps = runner.run(6);
        assert_eq!(steps, 6);
        assert_eq!(runner.history().len(), 6);
        // Deterministic services: the call map grows once per NEW argument —
        // the f-chain calls f on a fresh value every other step.
        assert!(runner.call_map().len() >= 3);
    }

    #[test]
    fn deterministic_history_is_enforced() {
        let dcds = det_system();
        let mut runner = Runner::new(dcds, AnswerPolicy::AlwaysFresh);
        let (action, sigma) = runner.available().into_iter().next().unwrap();
        let pending = runner.pending_calls(action, &sigma);
        assert_eq!(pending.len(), 1);
        runner.step(action, &sigma).unwrap();
        // Step back to R (copy of Q), then the SAME call is issued again:
        runner.step_any().unwrap();
        let (a2, s2) = runner.available().into_iter().next().unwrap();
        // Now the state R holds f(a)'s value; the issued call is f(v) — new.
        let pending2 = runner.pending_calls(a2, &s2);
        assert_eq!(pending2.len(), 1);
        assert!(!pending2.iter().next().unwrap().args.is_empty());
    }

    #[test]
    fn explicit_answers_and_rejection() {
        let dcds = DcdsBuilder::new()
            .relation("P", 2)
            .service("inp", 0, ServiceKind::Nondeterministic)
            .init_fact("P", &["a", "b"])
            .constraint("P(X, Y) & P(X, Z) -> Y = Z")
            .action("alpha", &[], |a| {
                a.effect("P(X, Y)", "P(X, Y), P(X, inp())");
            })
            .rule("true", "alpha")
            .build()
            .unwrap();
        let mut runner = Runner::new(dcds, AnswerPolicy::AlwaysFresh);
        let (action, sigma) = runner.available().into_iter().next().unwrap();
        let call = runner
            .pending_calls(action, &sigma)
            .into_iter()
            .next()
            .unwrap();
        // Answering with b keeps the key satisfied.
        let b = runner.dcds().data.pool.get("b").unwrap();
        let ok: BTreeMap<_, _> = [(call.clone(), b)].into_iter().collect();
        runner.step_with(action, &sigma, &ok).unwrap();
        // Answering with a fresh value violates P's key: rejected.
        let (a2, s2) = runner.available().into_iter().next().unwrap();
        let call2 = runner.pending_calls(a2, &s2).into_iter().next().unwrap();
        let mut pool = runner.pool().clone();
        let fresh = pool.mint("v");
        let bad: BTreeMap<_, _> = [(call2, fresh)].into_iter().collect();
        assert!(runner.step_with(a2, &s2, &bad).is_err());
    }

    #[test]
    fn random_policy_is_reproducible() {
        let run = |seed| {
            let mut runner = Runner::new(det_system(), AnswerPolicy::Random { seed });
            runner.run(8);
            runner.call_map().len()
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn illegal_assignment_rejected() {
        let mut runner = Runner::new(det_system(), AnswerPolicy::AlwaysFresh);
        let mut sigma = Assignment::new();
        sigma.insert(dcds_folang::Var::new("X"), Value::from_index(0));
        let alpha = runner.dcds().action_id("alpha").unwrap();
        assert!(runner.step_with(alpha, &sigma, &BTreeMap::new()).is_err());
    }
}
