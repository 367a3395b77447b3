//! Error types for extended relational theories.

use std::fmt;

/// Errors raised while constructing or updating an extended relational
/// theory.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TheoryError {
    /// A predicate was used that the schema does not declare.
    UnknownPredicate {
        /// Name of the predicate.
        name: String,
    },
    /// A predicate was applied with the wrong arity.
    ArityMismatch {
        /// Predicate name.
        predicate: String,
        /// Declared arity.
        expected: usize,
        /// Number of arguments supplied.
        got: usize,
    },
    /// A type axiom referenced a predicate that is not a declared attribute.
    NotAnAttribute {
        /// The offending predicate name.
        name: String,
    },
    /// A type axiom was declared for a predicate whose arity differs from
    /// the number of attribute positions supplied.
    TypeAxiomArity {
        /// Relation name.
        relation: String,
        /// Relation arity.
        expected: usize,
        /// Number of attributes supplied.
        got: usize,
    },
    /// A user-facing operation (query or update) referenced a predicate
    /// constant. Per §3.3: "they may not appear in any query posed to the
    /// database".
    PredicateConstantVisible {
        /// Name of the predicate constant.
        name: String,
    },
    /// The theory has no models (its non-axiomatic section is
    /// inconsistent), where an operation required consistency.
    Inconsistent,
    /// A dependency template is malformed (e.g. a head variable that does
    /// not occur in the body, violating §3.5's template form).
    MalformedDependency {
        /// Description of the defect.
        message: String,
    },
    /// The §3.5 legality invariant failed: removing type and dependency
    /// axioms changed the models of the theory.
    AxiomsNotRedundant {
        /// Description of the violated axiom instance.
        axiom: String,
    },
    /// The formula store's slot or formula table reached its ceiling (2³¹
    /// ids, or a lower test quota). GUA checks this before its first
    /// mutation, so the refused update changed nothing.
    StoreCapacity {
        /// Which table overflowed: `"slots"` or `"formulas"`.
        what: &'static str,
        /// The identifier limit that was hit.
        limit: u64,
    },
    /// An error bubbled up from the logic kernel.
    Logic(winslett_logic::LogicError),
}

impl fmt::Display for TheoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TheoryError::UnknownPredicate { name } => write!(f, "unknown predicate `{name}`"),
            TheoryError::ArityMismatch {
                predicate,
                expected,
                got,
            } => write!(
                f,
                "predicate `{predicate}` has arity {expected} but was applied to {got} arguments"
            ),
            TheoryError::NotAnAttribute { name } => {
                write!(f, "`{name}` is not a declared attribute predicate")
            }
            TheoryError::TypeAxiomArity {
                relation,
                expected,
                got,
            } => write!(
                f,
                "type axiom for `{relation}` supplies {got} attributes but the relation has arity {expected}"
            ),
            TheoryError::PredicateConstantVisible { name } => write!(
                f,
                "predicate constant `{name}` may not appear in queries or updates"
            ),
            TheoryError::Inconsistent => write!(f, "the theory has no models"),
            TheoryError::MalformedDependency { message } => {
                write!(f, "malformed dependency axiom: {message}")
            }
            TheoryError::AxiomsNotRedundant { axiom } => write!(
                f,
                "type/dependency axioms are not redundant: models violate `{axiom}`"
            ),
            TheoryError::StoreCapacity { what, limit } => write!(
                f,
                "formula store capacity exceeded: {what} table is full (limit {limit})"
            ),
            TheoryError::Logic(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TheoryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TheoryError::Logic(e) => Some(e),
            _ => None,
        }
    }
}

impl From<winslett_logic::LogicError> for TheoryError {
    fn from(e: winslett_logic::LogicError) -> Self {
        TheoryError::Logic(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = TheoryError::PredicateConstantVisible {
            name: "__p0".into(),
        };
        assert!(e.to_string().contains("__p0"));
        let e = TheoryError::Inconsistent;
        assert!(e.to_string().contains("no models"));
    }

    #[test]
    fn logic_error_conversion() {
        let le = winslett_logic::LogicError::TooManyModels { limit: 3 };
        let te: TheoryError = le.clone().into();
        assert_eq!(te, TheoryError::Logic(le));
    }
}
