//! Constraint evaluation-path notes.
//!
//! Every successor the engines keep is checked against every `constraint`
//! and `assert`. Guard-shaped ones (`∀x̄. G → ψ` with every quantified
//! variable in a guard atom, no shadowing, a quantifier-free `ψ`) run as
//! compiled denial plans that stop at the first violating guard row; the
//! rest run the reference FO evaluator on every successor. This pass
//! names each constraint in the second group and the reason, so a slow
//! check is not a surprise.
//!
//! A note, not a warning: the verdict is the same on either path.

use crate::diagnostic::{codes, Diagnostic, Payload};
use crate::LintContext;
use dcds_folang::lexer::Span;
use dcds_folang::FallbackReason;

/// Run the pass. Only reached with a lowered [`dcds_core::Dcds`] in the
/// context (the registry marks it `needs_dcds`); lowering keeps the
/// constraints in source order.
pub fn run(ctx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
    let Some(dcds) = ctx.dcds else { return };
    let equality = ctx
        .spec
        .constraints
        .iter()
        .zip(&dcds.data.constraints)
        .map(|(decl, c)| ("constraint", decl.span, c.fallback()));
    let fo = ctx
        .spec
        .asserts
        .iter()
        .zip(&dcds.data.fo_constraints)
        .map(|(decl, c)| ("assert", decl.span, c.fallback()));
    for (item, span, why) in equality.chain(fo) {
        if let Some(why) = why {
            out.push(note(item, span, why));
        }
    }
}

fn note(item: &str, span: Span, why: &FallbackReason) -> Diagnostic {
    Diagnostic::note(
        codes::CONSTRAINT_REFERENCE_PATH,
        format!(
            "this {item} is outside the compiled-constraint fragment ({why}): \
             it runs the reference FO evaluator on every successor"
        ),
    )
    .at(span)
    .with("reason", Payload::Str(why.kind().to_owned()))
}
