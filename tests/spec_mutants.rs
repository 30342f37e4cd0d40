//! Spec-text mutants: single edits of every spec in `specs/` and
//! `specs/bad/`, each checked for agreement between the strict front end
//! and the linter. For every mutant (and every unmutated spec):
//!
//! * `parse_spec`, `lint_spec` and `lower` return instead of panicking;
//! * `parse_dcds` fails exactly when lint reports an error (or the text
//!   does not parse), and
//! * its `line:col: message` is lint's first error (or the syntax error).
//!
//! The edits are seeded (SplitMix64), so every run makes the same mutants.

use dcds_verify::bench::rng::SplitMix64;
use dcds_verify::core::{parse_dcds, parse_spec};
use dcds_verify::lint::{lint_spec, Severity};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A token of the spec text, as a byte range.
#[derive(Debug, Clone, Copy)]
struct Tok {
    start: usize,
    end: usize,
}

const KEYWORDS: &[&str] = &[
    "schema",
    "services",
    "init",
    "constraint",
    "assert",
    "action",
    "rule",
    "det",
    "nondet",
    "true",
    "false",
    "exists",
    "forall",
    "not",
    "and",
    "or",
];

/// Split spec text into identifiers, quoted constants, two-character
/// operators and single punctuation characters; `%` and `//` comments and
/// whitespace are skipped.
fn tokens(src: &str) -> Vec<Tok> {
    let b = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        let c = b[i];
        if c.is_ascii_whitespace() {
            i += 1;
        } else if c == b'%' || (c == b'/' && b.get(i + 1) == Some(&b'/')) {
            while i < b.len() && b[i] != b'\n' {
                i += 1;
            }
        } else if c.is_ascii_alphanumeric() || c == b'_' {
            let start = i;
            while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                i += 1;
            }
            out.push(Tok { start, end: i });
        } else if c == b'\'' {
            let start = i;
            i += 1;
            while i < b.len() && b[i] != b'\'' {
                i += 1;
            }
            i = (i + 1).min(b.len());
            out.push(Tok { start, end: i });
        } else {
            let two = b.get(i..i + 2).unwrap_or(&[]);
            let len = if [&b"~>"[..], b"->", b"=>", b"!="].contains(&two) {
                2
            } else {
                src[i..].chars().next().map_or(1, char::len_utf8)
            };
            out.push(Tok {
                start: i,
                end: i + len,
            });
            i += len;
        }
    }
    out
}

/// The single edits a mutant is made of.
#[derive(Debug, Clone, Copy)]
enum Edit {
    DropToken,
    ArityDigit,
    RenameIdent,
    DuplicateDecl,
    FreshHeadVar,
    EqualityToAtom,
}

const EDITS: [Edit; 6] = [
    Edit::DropToken,
    Edit::ArityDigit,
    Edit::RenameIdent,
    Edit::DuplicateDecl,
    Edit::FreshHeadVar,
    Edit::EqualityToAtom,
];

/// Mutants per edit, spread round-robin over the specs it applies to.
const PER_EDIT: usize = 60;

struct Spec {
    name: String,
    src: String,
    toks: Vec<Tok>,
}

impl Spec {
    fn text(&self, t: Tok) -> &str {
        &self.src[t.start..t.end]
    }

    fn is_ident(&self, t: Tok) -> bool {
        self.text(t)
            .bytes()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == b'_')
    }

    /// Replace byte range `start..end` by `with`.
    fn splice(&self, start: usize, end: usize, with: &str) -> String {
        format!("{}{with}{}", &self.src[..start], &self.src[end..])
    }

    /// The token ranges an edit can apply to (index of the first token and
    /// one past the last).
    fn sites(&self, edit: Edit) -> Vec<(usize, usize)> {
        let toks = &self.toks;
        let n = toks.len();
        let text = |i: usize| self.text(toks[i]);
        match edit {
            Edit::DropToken => (0..n).map(|i| (i, i + 1)).collect(),
            // `P 2;` and `f 1 det;`: a number after a name.
            Edit::ArityDigit => (1..n)
                .filter(|&i| {
                    text(i).bytes().all(|c| c.is_ascii_digit()) && self.is_ident(toks[i - 1])
                })
                .map(|i| (i, i + 1))
                .collect(),
            Edit::RenameIdent => (0..n)
                .filter(|&i| self.is_ident(toks[i]) && !KEYWORDS.contains(&text(i)))
                .map(|i| (i, i + 1))
                .collect(),
            // A `;`-terminated declaration (relation, service, init fact,
            // effect, rule, constraint, assert) or a whole action block.
            Edit::DuplicateDecl => {
                let mut out = Vec::new();
                for i in 0..n {
                    if text(i) == ";" {
                        let start = (0..i)
                            .rev()
                            .find(|&j| matches!(text(j), ";" | "{" | "}"))
                            .map_or(0, |j| j + 1);
                        out.push((start, i + 1));
                    } else if text(i) == "action" {
                        let mut depth = 0usize;
                        for j in i..n {
                            match text(j) {
                                "{" => depth += 1,
                                "}" if depth == 1 => {
                                    out.push((i, j + 1));
                                    break;
                                }
                                "}" => depth = depth.saturating_sub(1),
                                _ => {}
                            }
                        }
                    }
                }
                out
            }
            // A variable in an effect head (not a service name).
            Edit::FreshHeadVar => {
                let mut out = Vec::new();
                let mut in_head = false;
                for i in 0..n {
                    match text(i) {
                        "~>" => in_head = true,
                        ";" => in_head = false,
                        t if in_head
                            && t.starts_with(|c: char| c.is_ascii_uppercase() || c == '_')
                            && toks.get(i + 1).is_none_or(|&u| self.text(u) != "(") =>
                        {
                            out.push((i, i + 1))
                        }
                        _ => {}
                    }
                }
                out
            }
            // `t1 = t2` in the conclusion of a constraint.
            Edit::EqualityToAtom => {
                let mut out = Vec::new();
                let mut state = 0; // 1 in a constraint, 2 in its conclusion
                for i in 0..n {
                    match text(i) {
                        "constraint" => state = 1,
                        "->" if state == 1 => state = 2,
                        ";" => state = 0,
                        "=" if state == 2 && i > 0 && i + 1 < n => out.push((i - 1, i + 2)),
                        _ => {}
                    }
                }
                out
            }
        }
    }

    fn mutate(&self, edit: Edit, (a, b): (usize, usize), rng: &mut SplitMix64) -> String {
        let (start, end) = (self.toks[a].start, self.toks[b - 1].end);
        let piece = &self.src[start..end];
        match edit {
            Edit::DropToken => self.splice(start, end, ""),
            Edit::ArityDigit => {
                let old: usize = piece.parse().unwrap_or(0);
                let new = (old + 1 + rng.gen_range(3)) % 4;
                self.splice(start, end, &new.to_string())
            }
            Edit::RenameIdent | Edit::FreshHeadVar => {
                let upper = piece.starts_with(|c: char| c.is_ascii_uppercase() || c == '_');
                self.splice(start, end, if upper { "Fresh" } else { "fresh" })
            }
            Edit::DuplicateDecl => format!("{} {piece}{}", &self.src[..end], &self.src[end..]),
            Edit::EqualityToAtom => {
                // The first relation of the schema block over the lhs term.
                let rel = self
                    .toks
                    .windows(3)
                    .find(|w| self.text(w[0]) == "schema")
                    .map_or("P", |w| self.text(w[2]));
                let lhs = self.text(self.toks[a]);
                self.splice(start, end, &format!("{rel}({lhs})"))
            }
        }
    }
}

fn shipped_specs() -> Vec<Spec> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("specs");
    let mut paths = Vec::new();
    for dir in [root.clone(), root.join("bad")] {
        for entry in std::fs::read_dir(&dir).expect("specs directory") {
            let path = entry.expect("directory entry").path();
            if path.extension().is_some_and(|e| e == "dcds") {
                paths.push(path);
            }
        }
    }
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let src = std::fs::read_to_string(&p).expect("spec readable");
            Spec {
                name: p.display().to_string(),
                toks: tokens(&src),
                src,
            }
        })
        .collect()
}

/// `parse_dcds`'s answer on `src` must be lint's: the same `line:col:
/// message` for the first error, or success when lint reports none.
fn agree(src: &str) -> Result<(), String> {
    let strict = parse_dcds(src);
    let expected = match parse_spec(src) {
        Err(e) => Some(format!("{}:{}: {}", e.line, e.col, e.message)),
        Ok(spec) => {
            let _ = spec.lower();
            let report = lint_spec(&spec);
            let first = report
                .diagnostics
                .iter()
                .find(|d| d.severity == Severity::Error);
            first.map(|d| match d.span {
                Some(s) => format!("{s}: {}", d.message),
                None => d.message.clone(),
            })
        }
    };
    match (strict, expected) {
        (Ok(_), None) => Ok(()),
        (Err(got), Some(want)) if got == want => Ok(()),
        (got, want) => Err(format!(
            "parse_dcds gave {:?}, lint's first error is {want:?}",
            got.err()
        )),
    }
}

fn check(name: &str, src: &str) {
    match catch_unwind(AssertUnwindSafe(|| agree(src))) {
        Ok(Ok(())) => {}
        Ok(Err(why)) => panic!("{name}: {why}\n--- spec ---\n{src}"),
        Err(_) => panic!("{name}: the front end panicked\n--- spec ---\n{src}"),
    }
}

#[test]
fn shipped_specs_agree() {
    for spec in shipped_specs() {
        check(&spec.name, &spec.src);
    }
}

#[test]
fn mutants_agree() {
    let specs = shipped_specs();
    let mut rng = SplitMix64::new(0x5eed_0029);
    let mut made = 0;
    for edit in EDITS {
        let targets: Vec<(&Spec, Vec<(usize, usize)>)> = specs
            .iter()
            .map(|s| (s, s.sites(edit)))
            .filter(|(_, sites)| !sites.is_empty())
            .collect();
        assert!(!targets.is_empty(), "no spec offers a site for {edit:?}");
        for k in 0..PER_EDIT {
            let (spec, sites) = &targets[k % targets.len()];
            let site = sites[rng.gen_range(sites.len())];
            let src = spec.mutate(edit, site, &mut rng);
            check(&format!("{} ({edit:?} at {site:?})", spec.name), &src);
            made += 1;
        }
    }
    assert_eq!(made, EDITS.len() * PER_EDIT);
}
