//! Parser for the µ-calculus surface syntax.
//!
//! ```text
//! mu      := ("mu" | "nu") Z "." mu | iff
//! iff     := impl ( "<->" impl )*
//! impl    := or ( "->" impl )?
//! or      := and ( ("|" | "or") and )*
//! and     := unary ( ("&" | "and") unary )*
//! unary   := ("!" | "not") unary
//!          | "<>" unary | "[]" unary
//!          | ("exists" | "forall") Var ("," Var)* "." mu
//!          | ("mu" | "nu") Z "." mu
//!          | "live" "(" Var ("," Var)* ")"
//!          | primary
//! primary := "(" mu ")" | "true" | "false"
//!          | Z                       // a predicate variable in scope
//!          | Rel "(" term, ... ")" | Rel
//!          | term ("=" | "!=") term
//! ```
//!
//! Predicate variables are uppercase identifiers bound by an enclosing
//! `mu`/`nu`; an identifier in binder scope (not followed by `(`) parses as
//! a predicate variable, taking precedence over first-order terms.

use crate::ast::{Mu, PredVar};
use dcds_folang::lexer::TokenKind;
use dcds_folang::parser::{is_variable_name, ParseError, Parser, Resolver};
use dcds_folang::{Formula, QTerm};
use dcds_reldata::{ConstantPool, Schema};
use std::collections::BTreeSet;

/// Parse a µ-calculus formula against a schema and constant pool.
///
/// ```
/// use dcds_mucalc::parse_mu;
/// use dcds_reldata::{ConstantPool, Schema};
/// let mut schema = Schema::new();
/// schema.add_relation("Stud", 1).unwrap();
/// let mut pool = ConstantPool::new();
/// let f = parse_mu(
///     "nu X . (forall S . live(S) -> (Stud(S) -> mu Y . ((exists G . live(G) & Stud(G)) | <> Y))) & [] X",
///     &mut schema,
///     &mut pool,
/// ).unwrap();
/// assert!(f.is_closed());
/// ```
pub fn parse_mu(src: &str, schema: &mut Schema, pool: &mut ConstantPool) -> Result<Mu, ParseError> {
    let mut p = Parser::new(src)?;
    let mut st = MuParser {
        pred_scope: BTreeSet::new(),
    };
    let mut r = Resolver {
        schema,
        pool,
        extend_schema: false,
    };
    let f = st.parse(&mut p, &mut r)?;
    if !p.at_eof() {
        return Err(p.error(&format!("unexpected {}", p.peek_kind())));
    }
    Ok(f)
}

struct MuParser {
    pred_scope: BTreeSet<String>,
}

impl MuParser {
    fn parse(&mut self, p: &mut Parser, r: &mut Resolver<'_>) -> Result<Mu, ParseError> {
        self.parse_iff(p, r)
    }

    fn parse_fixpoint(
        &mut self,
        p: &mut Parser,
        r: &mut Resolver<'_>,
        least: bool,
    ) -> Result<Mu, ParseError> {
        let z = p.expect_ident()?;
        if !is_variable_name(&z) {
            return Err(p.error(&format!(
                "predicate variable `{z}` must start with an uppercase letter"
            )));
        }
        p.expect(&TokenKind::Dot)?;
        let fresh = self.pred_scope.insert(z.clone());
        let body = self.parse(p, r)?;
        if fresh {
            self.pred_scope.remove(&z);
        }
        Ok(if least {
            Mu::Lfp(PredVar::new(&z), Box::new(body))
        } else {
            Mu::Gfp(PredVar::new(&z), Box::new(body))
        })
    }

    fn parse_iff(&mut self, p: &mut Parser, r: &mut Resolver<'_>) -> Result<Mu, ParseError> {
        let mut lhs = self.parse_impl(p, r)?;
        while p.eat(&TokenKind::Equiv) {
            let rhs = self.parse_impl(p, r)?;
            lhs = lhs.clone().implies(rhs.clone()).and(rhs.implies(lhs));
        }
        Ok(lhs)
    }

    fn parse_impl(&mut self, p: &mut Parser, r: &mut Resolver<'_>) -> Result<Mu, ParseError> {
        // Right-recursive on `->`: depth-guarded like the FO parser.
        p.descend()?;
        let out = self.parse_impl_inner(p, r);
        p.ascend();
        out
    }

    fn parse_impl_inner(&mut self, p: &mut Parser, r: &mut Resolver<'_>) -> Result<Mu, ParseError> {
        let lhs = self.parse_or(p, r)?;
        if p.eat(&TokenKind::Arrow) {
            let rhs = self.parse_impl(p, r)?;
            Ok(lhs.implies(rhs))
        } else {
            Ok(lhs)
        }
    }

    fn parse_or(&mut self, p: &mut Parser, r: &mut Resolver<'_>) -> Result<Mu, ParseError> {
        let mut lhs = self.parse_and(p, r)?;
        while p.eat(&TokenKind::Pipe) || p.eat_keyword("or") {
            let rhs = self.parse_and(p, r)?;
            lhs = lhs.or(rhs);
        }
        Ok(lhs)
    }

    fn parse_and(&mut self, p: &mut Parser, r: &mut Resolver<'_>) -> Result<Mu, ParseError> {
        let mut lhs = self.parse_unary(p, r)?;
        while p.eat(&TokenKind::Amp) || p.eat_keyword("and") {
            let rhs = self.parse_unary(p, r)?;
            lhs = lhs.and(rhs);
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self, p: &mut Parser, r: &mut Resolver<'_>) -> Result<Mu, ParseError> {
        // Every µ-calculus grammar cycle (`(…)`, `!…`, `<>`/`[]` chains,
        // `mu`/`nu`/quantifier bodies) passes through here; the depth
        // counter lives in the shared token cursor, so FO subformula
        // recursion counts against the same budget.
        p.descend()?;
        let out = self.parse_unary_inner(p, r);
        p.ascend();
        out
    }

    fn parse_unary_inner(
        &mut self,
        p: &mut Parser,
        r: &mut Resolver<'_>,
    ) -> Result<Mu, ParseError> {
        if p.eat(&TokenKind::Bang) || p.eat_keyword("not") {
            return Ok(self.parse_unary(p, r)?.not());
        }
        if p.eat(&TokenKind::Diamond) {
            return Ok(self.parse_unary(p, r)?.diamond());
        }
        if p.eat(&TokenKind::Box) {
            return Ok(self.parse_unary(p, r)?.boxed());
        }
        if p.eat_keyword("mu") {
            return self.parse_fixpoint(p, r, true);
        }
        if p.eat_keyword("nu") {
            return self.parse_fixpoint(p, r, false);
        }
        if p.at_keyword("exists") || p.at_keyword("forall") {
            let is_exists = p.at_keyword("exists");
            p.advance();
            let vars = p.parse_var_list()?;
            p.expect(&TokenKind::Dot)?;
            let mut body = self.parse(p, r)?;
            for v in vars.into_iter().rev() {
                body = if is_exists {
                    Mu::Exists(v, Box::new(body))
                } else {
                    Mu::Forall(v, Box::new(body))
                };
            }
            return Ok(body);
        }
        if p.at_keyword("live") && matches!(p.peek_ahead(1), TokenKind::LParen) {
            p.advance();
            p.expect(&TokenKind::LParen)?;
            let vars = p.parse_var_list()?;
            p.expect(&TokenKind::RParen)?;
            return Ok(Mu::live_all(vars));
        }
        self.parse_primary(p, r)
    }

    fn parse_primary(&mut self, p: &mut Parser, r: &mut Resolver<'_>) -> Result<Mu, ParseError> {
        if p.eat(&TokenKind::LParen) {
            let f = self.parse(p, r)?;
            p.expect(&TokenKind::RParen)?;
            return Ok(f);
        }
        if p.eat_keyword("true") {
            return Ok(Mu::Query(Formula::True));
        }
        if p.eat_keyword("false") {
            return Ok(Mu::Query(Formula::False));
        }
        match p.peek_kind().clone() {
            TokenKind::Ident(name) => {
                // Predicate variable in scope (not an atom application).
                if self.pred_scope.contains(&name) && !matches!(p.peek_ahead(1), TokenKind::LParen)
                {
                    p.advance();
                    return Ok(Mu::Pvar(PredVar::new(&name)));
                }
                if matches!(p.peek_ahead(1), TokenKind::LParen) {
                    p.advance();
                    let atom = p.parse_atom_tail(&name, r)?;
                    return Ok(Mu::Query(atom));
                }
                // Nullary atom or comparison.
                let followed_by_cmp = matches!(p.peek_ahead(1), TokenKind::Eq | TokenKind::Neq);
                let known_nullary = r
                    .schema
                    .rel_id(&name)
                    .is_some_and(|id| r.schema.arity(id) == 0);
                if known_nullary && !followed_by_cmp {
                    p.advance();
                    let rel = r.schema.rel_id(&name).unwrap();
                    return Ok(Mu::Query(Formula::Atom(rel, Vec::new())));
                }
                let t1 = p.parse_term(r)?;
                self.finish_comparison(p, r, t1)
            }
            TokenKind::Quoted(_) => {
                let t1 = p.parse_term(r)?;
                self.finish_comparison(p, r, t1)
            }
            other => Err(p.error(&format!("expected formula, found {other}"))),
        }
    }

    fn finish_comparison(
        &mut self,
        p: &mut Parser,
        r: &mut Resolver<'_>,
        t1: QTerm,
    ) -> Result<Mu, ParseError> {
        match p.peek_kind().clone() {
            TokenKind::Eq => {
                p.advance();
                let t2 = p.parse_term(r)?;
                Ok(Mu::Query(Formula::Eq(t1, t2)))
            }
            TokenKind::Neq => {
                p.advance();
                let t2 = p.parse_term(r)?;
                Ok(Mu::Query(Formula::neq(t1, t2)))
            }
            other => Err(p.error(&format!("expected `=` or `!=`, found {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragments::{classify, Fragment};

    fn setup() -> (Schema, ConstantPool) {
        let mut schema = Schema::new();
        schema.add_relation("Stud", 1).unwrap();
        schema.add_relation("Grad", 2).unwrap();
        schema.add_relation("halted", 0).unwrap();
        (schema, ConstantPool::new())
    }

    #[test]
    fn parses_modalities_and_fixpoints() {
        let (mut s, mut pool) = setup();
        let f = parse_mu("mu Z . Stud(a) | <> Z", &mut s, &mut pool).unwrap();
        assert!(matches!(f, Mu::Lfp(_, _)));
        assert!(f.is_closed());
    }

    #[test]
    fn pred_var_scope() {
        let (mut s, mut pool) = setup();
        // Out-of-scope Z is not a pred var: `Z` alone must fail to parse as
        // a formula (it is a term with no comparison).
        assert!(parse_mu("Z", &mut s, &mut pool).is_err());
        let f = parse_mu("nu Z . Z", &mut s, &mut pool).unwrap();
        assert_eq!(f, Mu::gfp("Z", Mu::Pvar(PredVar::new("Z"))));
    }

    #[test]
    fn live_guards() {
        let (mut s, mut pool) = setup();
        let f = parse_mu("exists X . live(X) & Stud(X)", &mut s, &mut pool).unwrap();
        assert_eq!(classify(&f).unwrap(), Fragment::MuLP);
        // An unguarded block that is a domain-independent query is a query
        // leaf; one that needs an ADOM step is full µL.
        let g = parse_mu("exists X . Stud(X)", &mut s, &mut pool).unwrap();
        assert_eq!(classify(&g).unwrap(), Fragment::MuLP);
        let h = parse_mu("exists X . !Stud(X)", &mut s, &mut pool).unwrap();
        assert_eq!(classify(&h).unwrap(), Fragment::MuL);
    }

    #[test]
    fn multi_var_live() {
        let (mut s, mut pool) = setup();
        let f = parse_mu("live(X, Y)", &mut s, &mut pool).unwrap();
        assert_eq!(f.free_vars().len(), 2);
    }

    #[test]
    fn example_3_2_parses_as_mu_la() {
        let (mut s, mut pool) = setup();
        let src = "nu X . (forall S . live(S) -> (Stud(S) -> \
                   mu Y . ((exists G . live(G) & Grad(S, G)) | <> Y))) & [] X";
        let f = parse_mu(src, &mut s, &mut pool).unwrap();
        assert_eq!(classify(&f).unwrap(), Fragment::MuLA);
    }

    #[test]
    fn example_3_3_parses_as_mu_lp() {
        let (mut s, mut pool) = setup();
        let src = "nu X . (forall S . live(S) -> (Stud(S) -> \
                   mu Y . ((exists G . live(G) & Grad(S, G)) | <> (live(S) & Y)))) & [] X";
        let f = parse_mu(src, &mut s, &mut pool).unwrap();
        assert_eq!(classify(&f).unwrap(), Fragment::MuLP);
    }

    #[test]
    fn nullary_atoms_and_safety_shape() {
        let (mut s, mut pool) = setup();
        // G ¬halted (Theorem 4.1's property) as νZ.¬halted ∧ []Z.
        let f = parse_mu("nu Z . !halted & [] Z", &mut s, &mut pool).unwrap();
        assert!(f.is_closed());
        assert_eq!(classify(&f).unwrap(), Fragment::MuLP);
    }

    #[test]
    fn trailing_garbage_rejected() {
        let (mut s, mut pool) = setup();
        assert!(parse_mu("true true", &mut s, &mut pool).is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_crash() {
        let (mut s, mut pool) = setup();
        for src in [
            format!("{}true{}", "(".repeat(20_000), ")".repeat(20_000)),
            format!("{}true", "<> ".repeat(20_000)),
            format!("{}true", "[] ".repeat(20_000)),
            format!(
                "{}true",
                (0..20_000)
                    .map(|i| format!("mu Z{i} . "))
                    .collect::<String>()
            ),
            format!("{}true", "exists X . live(X) & ".repeat(20_000)),
        ] {
            let err = parse_mu(&src, &mut s, &mut pool).unwrap_err();
            assert!(err.message.contains("nesting"), "{err}");
        }
    }
}
