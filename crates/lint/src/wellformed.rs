//! Well-formedness pass: renders `DcdsSpec::defects`, the one checker of
//! Section 2's side conditions that `parse_dcds` and `dcds check` share —
//! unknown, duplicate and wrongly used names, unbound parameters and
//! head/filter/service-call variables, disjunctive effect bodies,
//! malformed equality constraints and open asserts.

use crate::diagnostic::{codes, Diagnostic, Payload};
use crate::LintContext;
use dcds_core::spec::{DefectField, DefectKind, SpecDefect};

/// Run the pass.
pub fn run(ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
    out.extend(ctx.spec.defects().into_iter().map(diagnostic));
}

/// The stable code of a defect kind.
fn code(kind: DefectKind) -> &'static str {
    match kind {
        DefectKind::UnknownRelation => codes::UNKNOWN_RELATION,
        DefectKind::ArityMismatch => codes::ARITY_MISMATCH,
        DefectKind::DuplicateRelation => codes::DUPLICATE_RELATION,
        DefectKind::UnknownService => codes::UNKNOWN_SERVICE,
        DefectKind::ServiceArityMismatch => codes::SERVICE_ARITY_MISMATCH,
        DefectKind::DuplicateService => codes::DUPLICATE_SERVICE,
        DefectKind::DuplicateAction => codes::DUPLICATE_ACTION,
        DefectKind::UnknownAction => codes::UNKNOWN_ACTION,
        DefectKind::RuleExtraFreeVars => codes::RULE_EXTRA_FREE_VARS,
        DefectKind::MalformedConstraint => codes::MALFORMED_CONSTRAINT,
        DefectKind::ParamUnbound => codes::PARAM_UNBOUND,
        DefectKind::HeadVarUnbound => codes::HEAD_VAR_UNBOUND,
        DefectKind::ServiceArgUnbound => codes::SERVICE_ARG_UNBOUND,
        DefectKind::FilterVarUnbound => codes::FILTER_VAR_UNBOUND,
        DefectKind::EffectDisjunctive => codes::EFFECT_DISJUNCTIVE,
        DefectKind::OpenAssert => codes::OPEN_ASSERT,
    }
}

fn diagnostic(d: SpecDefect) -> Diagnostic {
    let mut diag = Diagnostic::error(code(d.kind), d.message).at(d.span);
    for (key, value) in d.fields {
        diag = diag.with(key, payload(value));
    }
    diag
}

fn payload(f: DefectField) -> Payload {
    match f {
        DefectField::Str(s) => Payload::Str(s),
        DefectField::Int(n) => Payload::Int(n as i64),
        DefectField::List(xs) => Payload::List(xs.into_iter().map(Payload::Str).collect()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_sort_like_their_codes() {
        use DefectKind::*;
        let kinds = [
            UnknownRelation,
            ArityMismatch,
            DuplicateRelation,
            UnknownService,
            ServiceArityMismatch,
            DuplicateService,
            DuplicateAction,
            UnknownAction,
            RuleExtraFreeVars,
            MalformedConstraint,
            ParamUnbound,
            HeadVarUnbound,
            ServiceArgUnbound,
            FilterVarUnbound,
            EffectDisjunctive,
            OpenAssert,
        ];
        for pair in kinds.windows(2) {
            assert!(pair[0] < pair[1], "{pair:?}");
            assert!(code(pair[0]) < code(pair[1]), "{pair:?}");
        }
    }
}
