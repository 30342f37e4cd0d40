//! Seeded round-trip test: pretty-printing a random formula and re-parsing
//! it yields the same AST (the printer is exact).
//!
//! Runs offline: formulas come from a local SplitMix64, so the exact same
//! formulas replay on every run and platform.

use dcds_folang::ast::{Formula, QTerm};
use dcds_folang::parser::parse_formula;
use dcds_folang::pretty::FormulaDisplay;
use dcds_reldata::{ConstantPool, RelId, Schema, Value};

struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        ((self.next_u64() as u128 * bound as u128) >> 64) as usize
    }
}

/// A variable `V0..V2` or one of the constants `c0..c2`.
fn term(rng: &mut SplitMix64) -> QTerm {
    if rng.below(2) == 0 {
        QTerm::var(&format!("V{}", rng.below(3)))
    } else {
        QTerm::Const(Value::from_index(rng.below(3)))
    }
}

/// A random formula over `P/1` and `Q/2`, at most `depth` connectives deep.
fn formula(rng: &mut SplitMix64, depth: usize) -> Formula {
    if depth == 0 || rng.below(3) == 0 {
        return match rng.below(5) {
            0 => Formula::True,
            1 => Formula::False,
            2 => Formula::Atom(RelId::from_index(0), vec![term(rng)]),
            3 => Formula::Atom(RelId::from_index(1), vec![term(rng), term(rng)]),
            _ => Formula::Eq(term(rng), term(rng)),
        };
    }
    let var = format!("V{}", rng.below(3));
    match rng.below(6) {
        0 => formula(rng, depth - 1).not(),
        1 => formula(rng, depth - 1).and(formula(rng, depth - 1)),
        2 => formula(rng, depth - 1).or(formula(rng, depth - 1)),
        3 => formula(rng, depth - 1).implies(formula(rng, depth - 1)),
        4 => Formula::exists(var.as_str(), formula(rng, depth - 1)),
        _ => Formula::forall(var.as_str(), formula(rng, depth - 1)),
    }
}

#[test]
fn print_then_parse_is_identity() {
    let mut rng = SplitMix64(0x9e77_7e11);
    let mut connectives = 0;
    for _ in 0..512 {
        let f = formula(&mut rng, 4);
        let mut schema = Schema::new();
        schema.add_relation("P", 1).unwrap();
        schema.add_relation("Q", 2).unwrap();
        let mut pool = ConstantPool::new();
        // Materialise the constants the generator refers to by index.
        for name in ["c0", "c1", "c2"] {
            pool.intern(name);
        }
        let printed = FormulaDisplay::new(&f, &schema, &pool).to_string();
        let reparsed = parse_formula(&printed, &mut schema, &mut pool)
            .unwrap_or_else(|e| panic!("`{printed}` failed to reparse: {e}"));
        assert_eq!(f, reparsed, "printed: {printed}");
        let leaf = matches!(
            f,
            Formula::True | Formula::False | Formula::Atom(..) | Formula::Eq(..)
        );
        connectives += usize::from(!leaf);
    }
    // The generator must not degenerate into bare leaves.
    assert!(connectives > 200, "only {connectives}/512 formulas nested");
}
