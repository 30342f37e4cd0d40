//! Span-carrying surface AST for `.dcds` specifications, its checker and
//! its lowering.
//!
//! [`parse_spec`] accepts anything that is *syntactically* well formed —
//! unknown relations, arity mismatches, unbound variables and other
//! semantic defects do **not** abort the parse. Instead every relation
//! atom is resolved tolerantly (see [`Parser::record_atom_uses`]) and
//! recorded as a [`RelUse`] with its source position.
//!
//! [`DcdsSpec::defects`] is the one checker of Section 2's static side
//! conditions on spec input: every name declared once and used with its
//! arity, rule conditions binding exactly their action's parameters,
//! `free(Q⁻) ⊆ free(q⁺) ∪ params`, heads over `q⁺` variables and
//! parameters, equality constraints of the form `Q → ⋀ z = y`, closed
//! asserts. Each [`SpecDefect`] carries a stable [`DefectKind`], a
//! message, a span and named fields; `dcds lint` renders them as its
//! `DCDS0xx` errors. [`DcdsSpec::lower`] walks the spec with the same
//! code, fails on the first defect in lint's order and otherwise only
//! assembles the [`Dcds`], whose [`Dcds::validate`] can then fail only on
//! an initial instance that violates a constraint.
//! [`crate::parse_dcds`] is `parse_spec` + `lower`, and
//! [`crate::DcdsBuilder`] writes spec text for it.

use crate::action::{Action, ActionId};
use crate::data_layer::DataLayer;
use crate::dcds::Dcds;
use crate::parser::{split_body, BodySplit};
use crate::process::{CaRule, ProcessLayer};
use crate::service::{ServiceCatalog, ServiceKind};
use crate::term::{BaseTerm, ETerm};
use dcds_folang::lexer::{Span, TokenKind};
use dcds_folang::parser::{is_variable_name, ParseError, Parser, RelUse, Resolver};
use dcds_folang::{EqualityConstraint, FoConstraint, Formula, QTerm, Var};
use dcds_reldata::{ConstantPool, Instance, RelId, Schema, Tuple};
use std::fmt;

/// A relation declaration `P 2;` in the `schema` block.
#[derive(Debug, Clone)]
pub struct RelDecl {
    /// Relation name.
    pub name: String,
    /// Declared arity.
    pub arity: usize,
    /// Position of the name.
    pub span: Span,
}

/// A service declaration `f 1 det;` in the `services` block.
#[derive(Debug, Clone)]
pub struct SvcDecl {
    /// Service name.
    pub name: String,
    /// Declared arity.
    pub arity: usize,
    /// Deterministic or nondeterministic semantics.
    pub kind: ServiceKind,
    /// Position of the name.
    pub span: Span,
}

/// An `init` fact `P(a, 'b c');`.
#[derive(Debug, Clone)]
pub struct InitFactDecl {
    /// Relation name as written.
    pub rel: String,
    /// Constant arguments as written.
    pub args: Vec<String>,
    /// Position of the relation name.
    pub span: Span,
}

/// A `constraint premise -> eq & ...;` item (equality constraint).
#[derive(Debug, Clone)]
pub struct ConstraintDecl {
    /// The whole constraint formula, atoms resolved tolerantly.
    pub formula: Formula,
    /// Every relation atom occurring in the formula.
    pub uses: Vec<RelUse>,
    /// Position of the `constraint` keyword.
    pub span: Span,
}

/// An `assert <sentence>;` item (FO integrity constraint).
#[derive(Debug, Clone)]
pub struct AssertDecl {
    /// The asserted sentence, atoms resolved tolerantly.
    pub formula: Formula,
    /// Every relation atom occurring in the formula.
    pub uses: Vec<RelUse>,
    /// Position of the `assert` keyword.
    pub span: Span,
}

/// A variable or a constant: a head term or a service-call argument.
#[derive(Debug, Clone)]
pub enum SpecBase {
    /// A variable (uppercase / `_` start).
    Var {
        /// Variable name.
        name: String,
        /// Position of the name.
        span: Span,
    },
    /// A constant (other identifier or quoted string).
    Const {
        /// Constant text.
        name: String,
        /// Position of the constant.
        span: Span,
    },
}

/// A term in an effect head: a variable or constant, or a service call
/// over those (calls do not nest).
#[derive(Debug, Clone)]
pub enum SpecTerm {
    /// A variable or a constant.
    Base(SpecBase),
    /// A service call `f(t, ...)`.
    Call {
        /// Service name as written.
        service: String,
        /// Position of the service name.
        span: Span,
        /// Argument terms.
        args: Vec<SpecBase>,
    },
}

/// One head fact `R(t, ...)` of an effect.
#[derive(Debug, Clone)]
pub struct HeadFactDecl {
    /// Relation name as written.
    pub rel: String,
    /// Position of the relation name.
    pub span: Span,
    /// Head terms.
    pub terms: Vec<SpecTerm>,
}

/// One effect `body ~> head, head;` of an action.
#[derive(Debug, Clone)]
pub struct EffectDecl {
    /// The effect body (`q⁺ ∧ Q⁻` before splitting).
    pub body: Formula,
    /// Relation atoms of the body.
    pub body_uses: Vec<RelUse>,
    /// Head facts.
    pub heads: Vec<HeadFactDecl>,
    /// Position where the effect starts.
    pub span: Span,
}

/// An `action name(params) { effects }` item.
#[derive(Debug, Clone)]
pub struct ActionDecl {
    /// Action name.
    pub name: String,
    /// Position of the name.
    pub span: Span,
    /// Parameter variables.
    pub params: Vec<dcds_folang::Var>,
    /// The action's effects.
    pub effects: Vec<EffectDecl>,
}

/// A `rule condition => action;` item.
#[derive(Debug, Clone)]
pub struct RuleDecl {
    /// The condition query.
    pub condition: Formula,
    /// Relation atoms of the condition.
    pub cond_uses: Vec<RelUse>,
    /// Invoked action name as written.
    pub action: String,
    /// Position of the action name.
    pub action_span: Span,
    /// Position of the `rule` keyword.
    pub span: Span,
}

/// A parsed-but-not-yet-validated DCDS specification, with source spans.
#[derive(Debug, Clone)]
pub struct DcdsSpec {
    /// Relation declarations in source order (duplicates included).
    pub relations: Vec<RelDecl>,
    /// Service declarations in source order (duplicates included).
    pub services: Vec<SvcDecl>,
    /// `init` facts in source order.
    pub init: Vec<InitFactDecl>,
    /// Equality constraints.
    pub constraints: Vec<ConstraintDecl>,
    /// FO integrity constraints.
    pub asserts: Vec<AssertDecl>,
    /// Actions in source order.
    pub actions: Vec<ActionDecl>,
    /// CA rules in source order.
    pub rules: Vec<RuleDecl>,
    /// Working schema: the declared relations (first declaration wins on
    /// duplicates) plus `name/arity` scratch entries for atom uses that
    /// matched no declaration. Formulas in this spec refer to its ids.
    pub schema: Schema,
    /// Constants interned while parsing, in first-occurrence order.
    pub pool: ConstantPool,
}

impl DcdsSpec {
    /// The first declaration of relation `name`, if any.
    pub fn declared_relation(&self, name: &str) -> Option<&RelDecl> {
        self.relations.iter().find(|d| d.name == name)
    }

    /// All relation atom uses across constraints, asserts, effect bodies
    /// and rule conditions, in source order within each item class.
    pub fn formula_uses(&self) -> impl Iterator<Item = &RelUse> {
        self.constraints
            .iter()
            .map(|c| &c.uses)
            .chain(self.asserts.iter().map(|a| &a.uses))
            .chain(
                self.actions
                    .iter()
                    .flat_map(|a| a.effects.iter().map(|e| &e.body_uses)),
            )
            .chain(self.rules.iter().map(|r| &r.cond_uses))
            .flatten()
    }
}

/// A semantic error raised while lowering a [`DcdsSpec`] to a [`Dcds`],
/// with a source position when one is known.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// Human-readable message.
    pub message: String,
    /// Where the offending construct appears, when known.
    pub span: Option<Span>,
}

impl SpecError {
    fn new(message: impl Into<String>, span: Span) -> Self {
        SpecError {
            message: message.into(),
            span: Some(span),
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.span {
            Some(s) => write!(f, "{s}: {}", self.message),
            None => write!(f, "{}", self.message),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<ParseError> for SpecError {
    fn from(e: ParseError) -> Self {
        SpecError {
            span: Some(Span::new(e.line, e.col)),
            message: e.message,
        }
    }
}

/// Parse a DCDS specification into the tolerant, span-carrying AST.
/// Only *syntax* errors are reported here; semantic defects are left in
/// the AST for `DcdsSpec::lower` or the lint passes to find.
pub fn parse_spec(src: &str) -> Result<DcdsSpec, ParseError> {
    let mut p = Parser::new(src)?;
    p.record_atom_uses();
    let mut spec = DcdsSpec {
        relations: Vec::new(),
        services: Vec::new(),
        init: Vec::new(),
        constraints: Vec::new(),
        asserts: Vec::new(),
        actions: Vec::new(),
        rules: Vec::new(),
        schema: Schema::new(),
        pool: ConstantPool::new(),
    };

    while !p.at_eof() {
        let item_span = p.peek_span();
        if p.eat_keyword("schema") {
            parse_schema_block(&mut p, &mut spec)?;
        } else if p.eat_keyword("services") {
            parse_services_block(&mut p, &mut spec)?;
        } else if p.eat_keyword("init") {
            parse_init_block(&mut p, &mut spec)?;
        } else if p.eat_keyword("constraint") {
            let formula = parse_item_formula(&mut p, &mut spec)?;
            p.expect(&TokenKind::Semicolon)?;
            let uses = p.take_atom_uses();
            spec.constraints.push(ConstraintDecl {
                formula,
                uses,
                span: item_span,
            });
        } else if p.eat_keyword("assert") {
            let formula = parse_item_formula(&mut p, &mut spec)?;
            p.expect(&TokenKind::Semicolon)?;
            let uses = p.take_atom_uses();
            spec.asserts.push(AssertDecl {
                formula,
                uses,
                span: item_span,
            });
        } else if p.eat_keyword("action") {
            parse_action_item(&mut p, &mut spec)?;
        } else if p.eat_keyword("rule") {
            let condition = parse_item_formula(&mut p, &mut spec)?;
            let cond_uses = p.take_atom_uses();
            p.expect(&TokenKind::FatArrow)?;
            let action_span = p.peek_span();
            let action = p.expect_ident()?;
            p.expect(&TokenKind::Semicolon)?;
            spec.rules.push(RuleDecl {
                condition,
                cond_uses,
                action,
                action_span,
                span: item_span,
            });
        } else {
            return Err(p.error(&format!(
                "expected a top-level item, found {}",
                p.peek_kind()
            )));
        }
    }
    Ok(spec)
}

/// Parse a formula against the spec's working schema/pool, tolerantly.
fn parse_item_formula(p: &mut Parser, spec: &mut DcdsSpec) -> Result<Formula, ParseError> {
    let mut r = Resolver {
        schema: &mut spec.schema,
        pool: &mut spec.pool,
        extend_schema: false,
    };
    p.parse_formula(&mut r)
}

fn parse_schema_block(p: &mut Parser, spec: &mut DcdsSpec) -> Result<(), ParseError> {
    p.expect(&TokenKind::LBrace)?;
    while !p.eat(&TokenKind::RBrace) {
        let span = p.peek_span();
        let name = p.expect_ident()?;
        let arity = parse_arity(p)?;
        // The first declaration wins in the working schema; duplicates stay
        // in `relations` for the lint passes / lowering to reject.
        let _ = spec.schema.add_relation(&name, arity);
        spec.relations.push(RelDecl { name, arity, span });
        p.expect(&TokenKind::Semicolon)?;
    }
    Ok(())
}

fn parse_services_block(p: &mut Parser, spec: &mut DcdsSpec) -> Result<(), ParseError> {
    p.expect(&TokenKind::LBrace)?;
    while !p.eat(&TokenKind::RBrace) {
        let span = p.peek_span();
        let name = p.expect_ident()?;
        let arity = parse_arity(p)?;
        let kind = if p.eat_keyword("det") {
            ServiceKind::Deterministic
        } else if p.eat_keyword("nondet") {
            ServiceKind::Nondeterministic
        } else {
            return Err(p.error("expected `det` or `nondet`"));
        };
        spec.services.push(SvcDecl {
            name,
            arity,
            kind,
            span,
        });
        p.expect(&TokenKind::Semicolon)?;
    }
    Ok(())
}

fn parse_arity(p: &mut Parser) -> Result<usize, ParseError> {
    // Arity is written `P 2` (digits lex as identifiers).
    let tok = p.expect_ident()?;
    tok.parse::<usize>()
        .map_err(|_| p.error(&format!("expected arity (a number), found `{tok}`")))
}

fn parse_init_block(p: &mut Parser, spec: &mut DcdsSpec) -> Result<(), ParseError> {
    p.expect(&TokenKind::LBrace)?;
    while !p.eat(&TokenKind::RBrace) {
        let span = p.peek_span();
        let rel = p.expect_ident()?;
        let mut args = Vec::new();
        if p.eat(&TokenKind::LParen) && !p.eat(&TokenKind::RParen) {
            loop {
                match p.peek_kind().clone() {
                    TokenKind::Ident(s) if !is_variable_name(&s) => {
                        p.advance();
                        spec.pool.intern(&s);
                        args.push(s);
                    }
                    TokenKind::Quoted(s) => {
                        p.advance();
                        spec.pool.intern(&s);
                        args.push(s);
                    }
                    other => {
                        return Err(
                            p.error(&format!("expected constant in init fact, found {other}"))
                        )
                    }
                }
                if !p.eat(&TokenKind::Comma) {
                    break;
                }
            }
            p.expect(&TokenKind::RParen)?;
        }
        spec.init.push(InitFactDecl { rel, args, span });
        p.expect(&TokenKind::Semicolon)?;
    }
    Ok(())
}

fn parse_action_item(p: &mut Parser, spec: &mut DcdsSpec) -> Result<(), ParseError> {
    let span = p.peek_span();
    let name = p.expect_ident()?;
    let mut params = Vec::new();
    p.expect(&TokenKind::LParen)?;
    if !p.eat(&TokenKind::RParen) {
        params = p.parse_var_list()?;
        p.expect(&TokenKind::RParen)?;
    }
    p.expect(&TokenKind::LBrace)?;
    let mut effects = Vec::new();
    while !p.eat(&TokenKind::RBrace) {
        let espan = p.peek_span();
        let body = parse_item_formula(p, spec)?;
        let body_uses = p.take_atom_uses();
        p.expect(&TokenKind::Squiggle)?;
        let mut heads = Vec::new();
        loop {
            heads.push(parse_head_fact_decl(p, spec)?);
            if !p.eat(&TokenKind::Comma) {
                break;
            }
        }
        p.expect(&TokenKind::Semicolon)?;
        effects.push(EffectDecl {
            body,
            body_uses,
            heads,
            span: espan,
        });
    }
    spec.actions.push(ActionDecl {
        name,
        span,
        params,
        effects,
    });
    Ok(())
}

/// Parse one head fact `R(term, ...)` where terms may be service calls.
/// No name resolution happens here — lowering and the lint passes check
/// relation and service names against the declarations.
fn parse_head_fact_decl(p: &mut Parser, spec: &mut DcdsSpec) -> Result<HeadFactDecl, ParseError> {
    let span = p.peek_span();
    let rel = p.expect_ident()?;
    let mut terms = Vec::new();
    if p.eat(&TokenKind::LParen) && !p.eat(&TokenKind::RParen) {
        loop {
            terms.push(parse_spec_term(p, spec)?);
            if !p.eat(&TokenKind::Comma) {
                break;
            }
        }
        p.expect(&TokenKind::RParen)?;
    }
    Ok(HeadFactDecl { rel, span, terms })
}

fn parse_spec_term(p: &mut Parser, spec: &mut DcdsSpec) -> Result<SpecTerm, ParseError> {
    let TokenKind::Ident(service) = p.peek_kind().clone() else {
        return parse_spec_base(p, spec, "head term").map(SpecTerm::Base);
    };
    if !matches!(p.peek_ahead(1), TokenKind::LParen) {
        return parse_spec_base(p, spec, "head term").map(SpecTerm::Base);
    }
    let span = p.peek_span();
    p.advance();
    p.expect(&TokenKind::LParen)?;
    let mut args = Vec::new();
    if !p.eat(&TokenKind::RParen) {
        loop {
            args.push(parse_spec_base(p, spec, "variable or constant")?);
            if !p.eat(&TokenKind::Comma) {
                break;
            }
        }
        p.expect(&TokenKind::RParen)?;
    }
    Ok(SpecTerm::Call {
        service,
        span,
        args,
    })
}

/// A variable or a constant; `what` names the expected token in the error.
fn parse_spec_base(
    p: &mut Parser,
    spec: &mut DcdsSpec,
    what: &str,
) -> Result<SpecBase, ParseError> {
    let span = p.peek_span();
    match p.peek_kind().clone() {
        TokenKind::Ident(name) if is_variable_name(&name) => {
            p.advance();
            Ok(SpecBase::Var { name, span })
        }
        TokenKind::Ident(name) | TokenKind::Quoted(name) => {
            p.advance();
            spec.pool.intern(&name);
            Ok(SpecBase::Const { name, span })
        }
        other => Err(p.error(&format!("expected {what}, found {other}"))),
    }
}

/// The well-formedness rule a [`SpecDefect`] breaks. The variants are
/// declared in the order of their `dcds lint` codes, so sorting defects by
/// `(span, kind)` is lint's order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DefectKind {
    /// An atom, init fact or effect head names an undeclared relation.
    UnknownRelation,
    /// A relation is used with the wrong number of arguments.
    ArityMismatch,
    /// A relation is declared more than once.
    DuplicateRelation,
    /// A head term calls an undeclared service.
    UnknownService,
    /// A service call has the wrong number of arguments.
    ServiceArityMismatch,
    /// A service is declared more than once.
    DuplicateService,
    /// An action is declared more than once.
    DuplicateAction,
    /// A rule invokes an undeclared action.
    UnknownAction,
    /// A rule condition has free variables beyond the action's parameters.
    RuleExtraFreeVars,
    /// An equality constraint is not `Q → ⋀ z = y` with `z`, `y` free in
    /// `Q` or constants.
    MalformedConstraint,
    /// An action parameter is not bound by the invoking rule's condition.
    ParamUnbound,
    /// An effect head variable is neither a `q⁺` variable nor a parameter.
    HeadVarUnbound,
    /// A service call argument is neither a `q⁺` variable nor a parameter.
    ServiceArgUnbound,
    /// A filter (`Q⁻`) or equality variable of an effect body is neither a
    /// `q⁺` variable nor a parameter.
    FilterVarUnbound,
    /// An effect body is disjunctive at the top level.
    EffectDisjunctive,
    /// An `assert` sentence has free variables.
    OpenAssert,
}

/// A named value attached to a [`SpecDefect`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DefectField {
    /// A name.
    Str(String),
    /// A count.
    Int(usize),
    /// A list of names.
    List(Vec<String>),
}

/// One broken well-formedness rule, at the construct that breaks it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecDefect {
    /// Which rule is broken.
    pub kind: DefectKind,
    /// Human-readable message.
    pub message: String,
    /// Where the offending construct appears.
    pub span: Span,
    /// Named values (the offending names and counts), in a fixed order.
    pub fields: Vec<(&'static str, DefectField)>,
}

impl SpecDefect {
    fn new(kind: DefectKind, span: Span, message: String) -> Self {
        SpecDefect {
            kind,
            message,
            span,
            fields: Vec::new(),
        }
    }

    fn with(mut self, key: &'static str, value: DefectField) -> Self {
        self.fields.push((key, value));
        self
    }

    fn named(self, key: &'static str, name: &str) -> Self {
        self.with(key, DefectField::Str(name.to_owned()))
    }
}

impl From<SpecDefect> for SpecError {
    fn from(d: SpecDefect) -> Self {
        SpecError::new(d.message, d.span)
    }
}

impl DcdsSpec {
    /// Every broken well-formedness rule of Section 2, sorted by position
    /// and then kind: the one checker behind [`DcdsSpec::lower`],
    /// `parse_dcds` and `dcds lint`.
    pub fn defects(&self) -> Vec<SpecDefect> {
        Lowering::run(self).0
    }

    /// Build the validated [`Dcds`]. Fails on the first of
    /// [`DcdsSpec::defects`]; a spec without defects is only assembled,
    /// and then fails only when its initial instance violates a
    /// constraint (a [`Dcds::validate`] error, which has no position).
    pub fn lower(&self) -> Result<Dcds, SpecError> {
        let (defects, data, process) = Lowering::run(self);
        if let Some(first) = defects.into_iter().next() {
            return Err(first.into());
        }
        Dcds::new(data, process).map_err(|e| SpecError {
            message: e.to_string(),
            span: None,
        })
    }

    /// The id of the declared relation `name` with its first declaration.
    fn relation(&self, name: &str) -> Option<(&RelDecl, RelId)> {
        let decl = self.declared_relation(name)?;
        Some((decl, self.schema.rel_id(name)?))
    }
}

/// One walk over a spec that checks every rule and assembles the system
/// at once. A construct that breaks a rule is recorded as a defect and
/// left out, so the assembled layers mean something only when no defect
/// was recorded.
struct Lowering<'s> {
    spec: &'s DcdsSpec,
    pool: ConstantPool,
    services: ServiceCatalog,
    defects: Vec<SpecDefect>,
}

impl<'s> Lowering<'s> {
    fn run(spec: &'s DcdsSpec) -> (Vec<SpecDefect>, DataLayer, ProcessLayer) {
        let mut services = ServiceCatalog::new();
        for d in &spec.services {
            // The first declaration wins; later ones are duplicates.
            let _ = services.add(&d.name, d.arity, d.kind);
        }
        let mut l = Lowering {
            spec,
            pool: spec.pool.clone(),
            services,
            defects: Vec::new(),
        };
        l.duplicates();
        l.atom_uses();
        let initial = Instance::from_facts(spec.init.iter().filter_map(|f| l.init_fact(f)));
        let constraints = spec
            .constraints
            .iter()
            .filter_map(|c| l.constraint(c))
            .collect();
        let fo_constraints = spec.asserts.iter().filter_map(|a| l.assert(a)).collect();
        let actions = spec.actions.iter().map(|a| l.action(a)).collect();
        let rules = spec.rules.iter().filter_map(|r| l.rule(r)).collect();

        let Lowering {
            pool,
            services,
            mut defects,
            ..
        } = l;
        defects.sort_by_key(|d| (d.span, d.kind));
        let mut data = DataLayer::new(pool, spec.schema.clone(), initial);
        data.constraints = constraints;
        data.fo_constraints = fo_constraints;
        let process = ProcessLayer {
            services,
            actions,
            rules,
        };
        (defects, data, process)
    }

    fn flag(&mut self, d: SpecDefect) {
        self.defects.push(d);
    }

    /// Every name is declared once; later declarations are flagged.
    fn duplicates(&mut self) {
        let spec = self.spec;
        for (ix, d) in spec.relations.iter().enumerate() {
            if let Some(first) = spec.relations[..ix].iter().find(|e| e.name == d.name) {
                self.flag(
                    SpecDefect::new(
                        DefectKind::DuplicateRelation,
                        d.span,
                        format!(
                            "relation `{}` is declared more than once (first declared with arity {} at {})",
                            d.name, first.arity, first.span
                        ),
                    )
                    .named("name", &d.name),
                );
            }
        }
        for (ix, d) in spec.services.iter().enumerate() {
            if let Some(first) = spec.services[..ix].iter().find(|e| e.name == d.name) {
                self.flag(
                    SpecDefect::new(
                        DefectKind::DuplicateService,
                        d.span,
                        format!(
                            "service `{}` is declared more than once (first declared at {})",
                            d.name, first.span
                        ),
                    )
                    .named("name", &d.name),
                );
            }
        }
        for (ix, a) in spec.actions.iter().enumerate() {
            if let Some(first) = spec.actions[..ix].iter().find(|e| e.name == a.name) {
                self.flag(
                    SpecDefect::new(
                        DefectKind::DuplicateAction,
                        a.span,
                        format!(
                            "action `{}` is declared more than once (first declared at {})",
                            a.name, first.span
                        ),
                    )
                    .named("name", &a.name),
                );
            }
        }
    }

    /// Relation atoms in formulas (constraints, asserts, effect bodies,
    /// rule conditions), which the tolerant parser recorded.
    fn atom_uses(&mut self) {
        let spec = self.spec;
        for u in spec.formula_uses() {
            match spec.declared_relation(&u.name) {
                None => self.flag(
                    SpecDefect::new(
                        DefectKind::UnknownRelation,
                        u.span,
                        format!("unknown relation `{}`", u.name),
                    )
                    .named("name", &u.name),
                ),
                Some(d) if d.arity != u.arity => self.flag(
                    SpecDefect::new(
                        DefectKind::ArityMismatch,
                        u.span,
                        format!(
                            "relation `{}` is used with {} arguments, but is declared with arity {} at {}",
                            u.name, u.arity, d.arity, d.span
                        ),
                    )
                    .named("name", &u.name)
                    .with("used_arity", DefectField::Int(u.arity))
                    .with("declared_arity", DefectField::Int(d.arity)),
                ),
                Some(_) => {}
            }
        }
    }

    fn init_fact(&mut self, f: &InitFactDecl) -> Option<(RelId, Tuple)> {
        let Some((d, rel)) = self.spec.relation(&f.rel) else {
            self.flag(
                SpecDefect::new(
                    DefectKind::UnknownRelation,
                    f.span,
                    format!("unknown relation `{}` in init fact", f.rel),
                )
                .named("name", &f.rel),
            );
            return None;
        };
        if d.arity != f.args.len() {
            self.flag(
                SpecDefect::new(
                    DefectKind::ArityMismatch,
                    f.span,
                    format!(
                        "init fact over `{}` has {} constants, but the relation is declared with arity {}",
                        f.rel,
                        f.args.len(),
                        d.arity
                    ),
                )
                .named("name", &f.rel),
            );
            return None;
        }
        let vals: Vec<_> = f.args.iter().map(|a| self.pool.intern(a)).collect();
        Some((rel, Tuple::from(vals)))
    }

    /// `premise -> z1 = y1 & ...`, each `z`, `y` a constant or a free
    /// variable of the premise.
    fn constraint(&mut self, c: &ConstraintDecl) -> Option<EqualityConstraint> {
        let malformed =
            |message: String| SpecDefect::new(DefectKind::MalformedConstraint, c.span, message);
        let Formula::Implies(premise, conclusion) = &c.formula else {
            self.flag(malformed(
                "equality constraints must have the form `premise -> z1 = y1 & ...`".to_owned(),
            ));
            return None;
        };
        let mut eqs = Vec::new();
        if !collect_equalities(conclusion, &mut eqs) {
            self.flag(malformed(
                "the conclusion of an equality constraint must be a conjunction of equalities"
                    .to_owned(),
            ));
            return None;
        }
        let free = premise.free_vars();
        let mut unbound: Vec<String> = Vec::new();
        for t in eqs.iter().flat_map(|(a, b)| [a, b]) {
            if let QTerm::Var(v) = t {
                if !free.contains(v) && !unbound.iter().any(|u| u == v.name()) {
                    unbound.push(v.name().to_owned());
                }
            }
        }
        if !unbound.is_empty() {
            self.flag(
                malformed(format!(
                    "equality constraint conclusion uses variable(s) {} that the premise does not bind",
                    unbound.join(", ")
                ))
                .with("variables", DefectField::List(unbound)),
            );
            return None;
        }
        // Cannot fail: the variables were checked above.
        EqualityConstraint::new((**premise).clone(), eqs).ok()
    }

    fn assert(&mut self, a: &AssertDecl) -> Option<FoConstraint> {
        let free: Vec<String> = a
            .formula
            .free_vars()
            .iter()
            .map(|v| v.name().to_owned())
            .collect();
        if !free.is_empty() {
            self.flag(
                SpecDefect::new(
                    DefectKind::OpenAssert,
                    a.span,
                    format!(
                        "assert has free variable(s) {}; an integrity constraint must be a sentence",
                        free.join(", ")
                    ),
                )
                .with("variables", DefectField::List(free)),
            );
            return None;
        }
        // Cannot fail: the sentence is closed.
        FoConstraint::new(a.formula.clone()).ok()
    }

    fn action(&mut self, a: &ActionDecl) -> Action {
        let mut effects = Vec::new();
        for e in &a.effects {
            let head: Vec<_> = e.heads.iter().filter_map(|h| self.head_fact(h)).collect();
            let Some(split) = split_body(&e.body) else {
                self.flag(SpecDefect::new(
                    DefectKind::EffectDisjunctive,
                    e.span,
                    "effect body is disjunctive at the top level; write one effect per disjunct"
                        .to_owned(),
                ));
                continue;
            };
            self.bindings(a, e, &split);
            effects.push(split.into_effect(head));
        }
        Action::new(&a.name, a.params.clone(), effects)
    }

    fn head_fact(&mut self, h: &HeadFactDecl) -> Option<(RelId, Vec<ETerm>)> {
        let mut terms = Vec::new();
        for t in &h.terms {
            terms.push(self.eterm(t));
        }
        let Some((d, rel)) = self.spec.relation(&h.rel) else {
            self.flag(
                SpecDefect::new(
                    DefectKind::UnknownRelation,
                    h.span,
                    format!("unknown relation `{}` in effect head", h.rel),
                )
                .named("name", &h.rel),
            );
            return None;
        };
        if d.arity != h.terms.len() {
            self.flag(
                SpecDefect::new(
                    DefectKind::ArityMismatch,
                    h.span,
                    format!(
                        "head fact over `{}` has {} terms, but the relation is declared with arity {}",
                        h.rel,
                        h.terms.len(),
                        d.arity
                    ),
                )
                .named("name", &h.rel),
            );
            return None;
        }
        terms.into_iter().collect::<Option<_>>().map(|t| (rel, t))
    }

    fn eterm(&mut self, t: &SpecTerm) -> Option<ETerm> {
        let (service, span, args) = match t {
            SpecTerm::Base(b) => return Some(ETerm::Base(self.base(b))),
            SpecTerm::Call {
                service,
                span,
                args,
            } => (service, *span, args),
        };
        let Some(fid) = self.services.func_id(service) else {
            self.flag(
                SpecDefect::new(
                    DefectKind::UnknownService,
                    span,
                    format!("unknown service `{service}`"),
                )
                .named("name", service),
            );
            return None;
        };
        let arity = self.services.arity(fid);
        if arity != args.len() {
            self.flag(
                SpecDefect::new(
                    DefectKind::ServiceArityMismatch,
                    span,
                    format!(
                        "service `{service}` is called with {} arguments, but is declared with arity {arity}",
                        args.len()
                    ),
                )
                .named("name", service),
            );
            return None;
        }
        Some(ETerm::Call(
            fid,
            args.iter().map(|b| self.base(b)).collect(),
        ))
    }

    fn base(&mut self, b: &SpecBase) -> BaseTerm {
        match b {
            SpecBase::Var { name, .. } => BaseTerm::var(name),
            SpecBase::Const { name, .. } => BaseTerm::Const(self.pool.intern(name)),
        }
    }

    /// `free(Q⁻) ⊆ free(q⁺) ∪ params`, and heads (service-call arguments
    /// included) use only `q⁺` variables and parameters.
    fn bindings(&mut self, a: &ActionDecl, e: &EffectDecl, split: &BodySplit) {
        let atom_vars = split.atom_vars();
        let bound = |v: &Var| atom_vars.contains(v) || a.params.contains(v);
        let unbound_filter = |what: &str, v: &Var| {
            SpecDefect::new(
                DefectKind::FilterVarUnbound,
                e.span,
                format!(
                    "effect {what} uses variable {} which no positive atom binds",
                    v.name()
                ),
            )
            .named("variable", v.name())
        };
        for (t1, t2) in &split.equalities {
            for t in [t1, t2] {
                if let QTerm::Var(v) = t {
                    if !bound(v) {
                        self.flag(unbound_filter("equality", v));
                    }
                }
            }
        }
        for f in &split.filters {
            for v in f.free_vars() {
                if !bound(&v) {
                    self.flag(unbound_filter("filter", &v));
                }
            }
        }
        for h in &e.heads {
            for t in &h.terms {
                match t {
                    SpecTerm::Base(SpecBase::Var { name, span }) if !bound(&Var::new(name)) => {
                        self.flag(
                            SpecDefect::new(
                                DefectKind::HeadVarUnbound,
                                *span,
                                format!("head variable {name} is not bound by the effect body"),
                            )
                            .named("variable", name),
                        );
                    }
                    SpecTerm::Base(_) => {}
                    SpecTerm::Call { service, args, .. } => {
                        for arg in args {
                            if let SpecBase::Var { name, span } = arg {
                                if !bound(&Var::new(name)) {
                                    self.flag(
                                        SpecDefect::new(
                                            DefectKind::ServiceArgUnbound,
                                            *span,
                                            format!(
                                                "service call {service}(…) uses variable {name} which the effect body does not bind"
                                            ),
                                        )
                                        .named("variable", name)
                                        .named("service", service),
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// The invoked action exists, and the condition's free variables are
    /// exactly its parameters.
    fn rule(&mut self, r: &RuleDecl) -> Option<CaRule> {
        let Some(ix) = self.spec.actions.iter().position(|a| a.name == r.action) else {
            self.flag(
                SpecDefect::new(
                    DefectKind::UnknownAction,
                    r.action_span,
                    format!("rule references unknown action `{}`", r.action),
                )
                .named("name", &r.action),
            );
            return None;
        };
        let a = &self.spec.actions[ix];
        let free = r.condition.free_vars();
        let extra: Vec<String> = free
            .iter()
            .filter(|v| !a.params.contains(v))
            .map(|v| v.name().to_owned())
            .collect();
        if !extra.is_empty() {
            self.flag(
                SpecDefect::new(
                    DefectKind::RuleExtraFreeVars,
                    r.span,
                    format!(
                        "rule condition has free variable(s) {} that are not parameters of action `{}`",
                        extra.join(", "),
                        a.name
                    ),
                )
                .with("variables", DefectField::List(extra))
                .named("action", &a.name),
            );
        }
        for p in a.params.iter().filter(|p| !free.contains(*p)) {
            self.flag(
                SpecDefect::new(
                    DefectKind::ParamUnbound,
                    r.span,
                    format!(
                        "parameter {} of action `{}` is not bound by the rule condition",
                        p.name(),
                        a.name
                    ),
                )
                .named("parameter", p.name())
                .named("action", &a.name),
            );
        }
        Some(CaRule {
            condition: r.condition.clone(),
            action: ActionId::from_index(ix),
        })
    }
}

/// Collect the conjuncts of an equality constraint's conclusion; `false`
/// when one of them is not an equality.
fn collect_equalities(f: &Formula, out: &mut Vec<(QTerm, QTerm)>) -> bool {
    match f {
        Formula::And(g, h) => collect_equalities(g, out) && collect_equalities(h, out),
        Formula::Eq(t1, t2) => {
            out.push((t1.clone(), t2.clone()));
            true
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerant_parse_keeps_semantic_defects() {
        let spec = parse_spec(
            r"
            schema { P 1; P 2; }
            init   { Q(a); }
            action alpha() { P(X, Y) & Nope(X) ~> Gone(Z, f(W)); }
            rule true => beta;
            ",
        )
        .unwrap();
        assert_eq!(spec.relations.len(), 2);
        assert_eq!(spec.actions[0].effects[0].body_uses.len(), 2);
        assert_eq!(spec.rules[0].action, "beta");
        // Scratch relations keep the formulas well-typed internally.
        assert!(spec.schema.rel_id("P/2").is_some());
        assert!(spec.schema.rel_id("Nope/1").is_some());
        // But lowering rejects the first defect, with a position.
        let err = spec.lower().unwrap_err();
        assert!(
            err.message
                .contains("relation `P` is declared more than once"),
            "{err}"
        );
        assert_eq!(err.span.map(|s| s.line), Some(2));
    }

    #[test]
    fn spans_point_at_atom_names() {
        let spec = parse_spec("schema { P 1; }\ninit { P(a); }\naction a1() { P(X) & Nope(X) ~> P(X); }\nrule true => a1;").unwrap();
        let bad = spec
            .formula_uses()
            .find(|u| u.name == "Nope")
            .expect("use recorded");
        assert_eq!((bad.span.line, bad.span.col), (3, 22));
        let err = spec.lower().unwrap_err();
        assert!(err.message.contains("unknown relation `Nope`"), "{err}");
        assert_eq!(err.span, Some(bad.span));
    }

    #[test]
    fn lowering_matches_strict_parser_on_good_specs() {
        let src = r"
            schema   { Q 2; P 1; R 1; }
            services { f 1 det; g 1 det; }
            init     { P(a); Q(a, a); }
            constraint P(X) & Q(Y, Z) -> X = Y;
            action alpha() {
                Q(a, a) & P(X) ~> R(X);
                P(X)           ~> P(X), Q(f(X), g(X));
            }
            rule true => alpha;
        ";
        let dcds = parse_spec(src).unwrap().lower().unwrap();
        assert_eq!(dcds.data.schema.len(), 3);
        assert_eq!(dcds.process.actions.len(), 1);
        assert_eq!(dcds.data.constraints.len(), 1);
        assert!(dcds.is_deterministic());
    }
}
