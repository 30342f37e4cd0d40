//! Tuples of constants.

use crate::Value;

/// A tuple of constants, i.e. the extension-level counterpart of a fact
/// `R(c_1, ..., c_n)` minus the relation symbol.
///
/// Tuples are ordered lexicographically, which (together with the
/// deterministic ordering of [`crate::Value`]) makes instance iteration and
/// canonical forms reproducible.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tuple(Box<[Value]>);

impl Tuple {
    /// Build a tuple from components.
    pub fn new(values: impl Into<Box<[Value]>>) -> Self {
        Tuple(values.into())
    }

    /// The empty (nullary) tuple.
    pub fn unit() -> Self {
        Tuple(Box::new([]))
    }

    /// Tuple arity.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// Components as a slice.
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    /// Component at position `i` (0-based).
    pub fn get(&self, i: usize) -> Option<Value> {
        self.0.get(i).copied()
    }

    /// Apply a value renaming, producing a new tuple. Values missing from the
    /// map are kept unchanged.
    pub fn rename(&self, map: &std::collections::BTreeMap<Value, Value>) -> Tuple {
        Tuple(
            self.0
                .iter()
                .map(|v| map.get(v).copied().unwrap_or(*v))
                .collect(),
        )
    }

    /// Iterate over components.
    pub fn iter(&self) -> impl Iterator<Item = Value> + '_ {
        self.0.iter().copied()
    }
}

/// Tuples order, compare and hash exactly as their component slices, so a
/// sorted tuple set can be searched by a borrowed `&[Value]` bound (see
/// [`crate::Instance::tuples_with_prefix`]).
impl std::borrow::Borrow<[Value]> for Tuple {
    fn borrow(&self) -> &[Value] {
        &self.0
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(v: Vec<Value>) -> Self {
        Tuple(v.into_boxed_slice())
    }
}

impl From<&[Value]> for Tuple {
    fn from(v: &[Value]) -> Self {
        Tuple(v.into())
    }
}

impl<const N: usize> From<[Value; N]> for Tuple {
    fn from(v: [Value; N]) -> Self {
        Tuple(Box::new(v))
    }
}

impl std::ops::Index<usize> for Tuple {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        &self.0[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConstantPool;
    use std::collections::BTreeMap;

    #[test]
    fn construction_and_access() {
        let mut pool = ConstantPool::new();
        let a = pool.intern("a");
        let b = pool.intern("b");
        let t = Tuple::from(vec![a, b, a]);
        assert_eq!(t.arity(), 3);
        assert_eq!(t[0], a);
        assert_eq!(t[1], b);
        assert_eq!(t.get(2), Some(a));
        assert_eq!(t.get(3), None);
    }

    #[test]
    fn unit_tuple() {
        let t = Tuple::unit();
        assert_eq!(t.arity(), 0);
        assert_eq!(t, Tuple::from(vec![]));
    }

    #[test]
    fn rename_applies_map() {
        let mut pool = ConstantPool::new();
        let a = pool.intern("a");
        let b = pool.intern("b");
        let c = pool.intern("c");
        let t = Tuple::from(vec![a, b]);
        let mut map = BTreeMap::new();
        map.insert(a, c);
        assert_eq!(t.rename(&map), Tuple::from(vec![c, b]));
    }

    #[test]
    fn ordering_is_lexicographic() {
        let mut pool = ConstantPool::new();
        let a = pool.intern("a");
        let b = pool.intern("b");
        assert!(Tuple::from(vec![a, a]) < Tuple::from(vec![a, b]));
        assert!(Tuple::from(vec![a, b]) < Tuple::from(vec![b, a]));
    }
}
