//! Database schemas and type axioms (§3.5, item 4).
//!
//! A schema distinguishes a set `A` of unary *attribute* predicates and,
//! for each relation `P` of arity `n`, optionally one type axiom
//!
//! ```text
//! ∀x₁…xₙ ( P(x₁,…,xₙ) → A₁(x₁) ∧ … ∧ Aₙ(xₙ) )
//! ```
//!
//! Theories *without* type axioms (the §2 base case) simply declare
//! relations untyped.

use crate::error::TheoryError;
use rustc_hash::FxHashMap;
use winslett_logic::{PredId, PredicateKind, Vocabulary};

/// The schema: declared attributes and per-relation type axioms.
#[derive(Clone, Default, Debug)]
pub struct Schema {
    /// Declared attribute predicates, in declaration order.
    attributes: Vec<PredId>,
    /// Type axiom for each typed relation: the attribute predicate of each
    /// argument position.
    type_axioms: FxHashMap<PredId, Vec<PredId>>,
    /// Bumped on every mutation; feeds
    /// [`Theory::generation`](crate::Theory).
    version: u64,
}

impl Schema {
    /// Creates an empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares `pred` as an attribute (must be unary). Idempotent.
    pub fn add_attribute(&mut self, pred: PredId, vocab: &Vocabulary) -> Result<(), TheoryError> {
        let decl = vocab.predicate(pred);
        if decl.arity != 1 || decl.kind != PredicateKind::Attribute {
            return Err(TheoryError::NotAnAttribute {
                name: decl.name.clone(),
            });
        }
        if !self.attributes.contains(&pred) {
            self.attributes.push(pred);
            self.version += 1;
        }
        Ok(())
    }

    /// Monotone mutation counter: strictly increases on every schema
    /// change.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Installs the type axiom for `relation`: argument `i` ranges over
    /// `attrs[i]`. All `attrs` must be declared attributes.
    pub fn set_type_axiom(
        &mut self,
        relation: PredId,
        attrs: Vec<PredId>,
        vocab: &Vocabulary,
    ) -> Result<(), TheoryError> {
        let decl = vocab.predicate(relation);
        if decl.arity != attrs.len() {
            return Err(TheoryError::TypeAxiomArity {
                relation: decl.name.clone(),
                expected: decl.arity,
                got: attrs.len(),
            });
        }
        self.check_attributes(&attrs, vocab)?;
        self.type_axioms.insert(relation, attrs);
        self.version += 1;
        Ok(())
    }

    /// Refuses with [`TheoryError::NotAnAttribute`] unless every one of
    /// `attrs` is a declared attribute.
    pub(crate) fn check_attributes(
        &self,
        attrs: &[PredId],
        vocab: &Vocabulary,
    ) -> Result<(), TheoryError> {
        match attrs.iter().find(|a| !self.attributes.contains(a)) {
            Some(&a) => Err(TheoryError::NotAnAttribute {
                name: vocab.predicate(a).name.clone(),
            }),
            None => Ok(()),
        }
    }

    /// The type axiom of `relation`, if one is declared.
    pub fn type_axiom(&self, relation: PredId) -> Option<&[PredId]> {
        self.type_axioms.get(&relation).map(Vec::as_slice)
    }

    /// Whether any type axioms are declared.
    pub fn has_type_axioms(&self) -> bool {
        !self.type_axioms.is_empty()
    }

    /// Declared attributes in declaration order.
    pub fn attributes(&self) -> &[PredId] {
        &self.attributes
    }

    /// Whether `pred` is a declared attribute.
    pub fn is_attribute(&self, pred: PredId) -> bool {
        self.attributes.contains(&pred)
    }

    /// Iterates over `(relation, attrs)` type-axiom pairs.
    pub fn type_axioms(&self) -> impl Iterator<Item = (PredId, &[PredId])> {
        self.type_axioms.iter().map(|(&p, a)| (p, a.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use winslett_logic::PredicateKind;

    fn vocab() -> (Vocabulary, PredId, PredId, PredId) {
        let mut v = Vocabulary::new();
        let part = v
            .declare_predicate("PartNo", 1, PredicateKind::Attribute)
            .unwrap();
        let quan = v
            .declare_predicate("Quan", 1, PredicateKind::Attribute)
            .unwrap();
        let instock = v
            .declare_predicate("InStock", 2, PredicateKind::Relation)
            .unwrap();
        (v, part, quan, instock)
    }

    #[test]
    fn declare_attributes_and_type_axiom() {
        let (v, part, quan, instock) = vocab();
        let mut s = Schema::new();
        s.add_attribute(part, &v).unwrap();
        s.add_attribute(quan, &v).unwrap();
        s.set_type_axiom(instock, vec![part, quan], &v).unwrap();
        assert_eq!(s.type_axiom(instock), Some(&[part, quan][..]));
        assert!(s.has_type_axioms());
        assert!(s.is_attribute(part));
        assert!(!s.is_attribute(instock));
    }

    #[test]
    fn non_unary_predicate_rejected_as_attribute() {
        let (v, _, _, instock) = vocab();
        let mut s = Schema::new();
        assert!(matches!(
            s.add_attribute(instock, &v),
            Err(TheoryError::NotAnAttribute { .. })
        ));
    }

    #[test]
    fn type_axiom_arity_checked() {
        let (v, part, _, instock) = vocab();
        let mut s = Schema::new();
        s.add_attribute(part, &v).unwrap();
        assert!(matches!(
            s.set_type_axiom(instock, vec![part], &v),
            Err(TheoryError::TypeAxiomArity {
                expected: 2,
                got: 1,
                ..
            })
        ));
    }

    #[test]
    fn type_axiom_requires_declared_attributes() {
        let (v, part, quan, instock) = vocab();
        let mut s = Schema::new();
        s.add_attribute(part, &v).unwrap();
        // `quan` not declared as attribute in the schema yet.
        assert!(matches!(
            s.set_type_axiom(instock, vec![part, quan], &v),
            Err(TheoryError::NotAnAttribute { .. })
        ));
    }

    #[test]
    fn untyped_relations_have_no_axiom() {
        let (_, _, _, instock) = vocab();
        let s = Schema::new();
        assert_eq!(s.type_axiom(instock), None);
        assert!(!s.has_type_axioms());
    }
}
