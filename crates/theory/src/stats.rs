//! Size and cost-model statistics for a theory.

use serde::{Deserialize, Serialize};

/// A snapshot of theory sizes, used by the growth experiment (E4) and the
/// simplification experiment (E6).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct TheoryStats {
    /// Live formulas in the non-axiomatic section.
    pub num_formulas: usize,
    /// Total AST nodes over live formulas.
    pub store_nodes: usize,
    /// Interned atoms (universe size).
    pub num_atoms: usize,
    /// Atoms registered in completion axioms.
    pub num_registered: usize,
    /// The §3.6 `R`: max registered atoms of any single predicate.
    pub max_predicate_size: usize,
    /// Interned constants.
    pub num_constants: usize,
    /// Declared predicates (including predicate constants).
    pub num_predicates: usize,
    /// Dependency axioms.
    pub num_dependencies: usize,
    /// Entailment sessions built (first use plus generation rebuilds).
    #[serde(default)]
    pub session_rebuilds: u64,
    /// Cached sessions discarded because the theory mutated underneath.
    #[serde(default)]
    pub session_invalidations: u64,
    /// Assumption solves answered by cached sessions.
    #[serde(default)]
    pub session_assumption_solves: u64,
    /// Solves cached sessions avoided by answering from a model an
    /// earlier solve found.
    #[serde(default)]
    pub session_model_answers: u64,
    /// Query wffs Tseitin-encoded inside sessions.
    #[serde(default)]
    pub session_encodes: u64,
    /// Query wffs answered from the activation-literal cache — theory
    /// re-encodings the legacy fresh-solver path would have paid.
    #[serde(default)]
    pub session_encode_reuse_hits: u64,
    /// Conflict clauses learnt and retained across session queries.
    #[serde(default)]
    pub session_learned_retained: u64,
}

impl std::fmt::Display for TheoryStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} wffs / {} nodes, {} atoms ({} registered, R = {}), {} constants, {} predicates, {} dependencies; \
             sessions: {} built / {} invalidated, {} solves (+{} answered from models), {} encodes (+{} reused), {} learnt kept",
            self.num_formulas,
            self.store_nodes,
            self.num_atoms,
            self.num_registered,
            self.max_predicate_size,
            self.num_constants,
            self.num_predicates,
            self.num_dependencies,
            self.session_rebuilds,
            self.session_invalidations,
            self.session_assumption_solves,
            self.session_model_answers,
            self.session_encodes,
            self.session_encode_reuse_hits,
            self.session_learned_retained,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_contains_key_numbers() {
        let s = TheoryStats {
            num_formulas: 3,
            store_nodes: 17,
            num_atoms: 5,
            num_registered: 4,
            max_predicate_size: 2,
            num_constants: 6,
            num_predicates: 2,
            num_dependencies: 1,
            session_rebuilds: 2,
            session_invalidations: 1,
            session_assumption_solves: 9,
            session_model_answers: 3,
            session_encodes: 4,
            session_encode_reuse_hits: 5,
            session_learned_retained: 7,
        };
        let txt = s.to_string();
        assert!(txt.contains("3 wffs"));
        assert!(txt.contains("R = 2"));
        assert!(txt.contains("2 built"));
        assert!(txt.contains("9 solves"));
    }

    #[test]
    fn old_json_without_session_fields_still_deserializes() {
        let json = r#"{"num_formulas":1,"store_nodes":1,"num_atoms":1,
            "num_registered":1,"max_predicate_size":1,"num_constants":1,
            "num_predicates":1,"num_dependencies":0}"#;
        let s: TheoryStats = serde_json::from_str(json).unwrap();
        assert_eq!(s.session_rebuilds, 0);
        assert_eq!(s.session_assumption_solves, 0);
    }
}
