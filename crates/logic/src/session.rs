//! Incremental entailment sessions: encode once, answer by assumptions.
//!
//! Reiter-style query answering (the paper's §3.3) is pure entailment:
//! *certain* truths hold in every alternative world, *possible* truths in
//! some. Both reduce to SAT over the theory's clause form — but a naive
//! implementation re-runs the Tseitin conversion of the entire
//! non-axiomatic section and builds a brand-new CDCL solver for every
//! single question. An [`EntailmentSession`] keeps one solver alive
//! instead:
//!
//! * the theory's *base* wffs are encoded **once** as permanent clauses
//!   ([`EntailmentSession::assert_base`]);
//! * each query wff is Tseitin-encoded to an **activation literal**
//!   ([`EntailmentSession::literal_for`]); the definitional clauses
//!   (`v ↔ subformula`) are pure auxiliary-variable definitions that never
//!   constrain the atom variables, so they can be added permanently and the
//!   wff asserted or denied per query purely through assumptions;
//! * `consistent_with(w)` is one [`Solver::solve_with`] call under
//!   `[lit(w)]`, `entails(w)` one call under `[¬lit(w)]` — and the learnt
//!   clauses from every call stay alive for the next one.
//!
//! Activation literals are cached per wff, so asking the same question
//! twice (or asking `consistent_with` and `entails` of the same wff, the
//! query engine's standard pair) encodes nothing the second time.
//!
//! The session also keeps the atom prefix of the last few models its
//! solves found. Each is a model of the base, so a wff true in one is
//! possible and a wff false in one is not certain: [`EntailmentSession::decide`],
//! [`EntailmentSession::entails`] and [`EntailmentSession::consistent_with`]
//! answer from them when they settle the question, and solve only when
//! they do not.

use crate::cnf::Tseitin;
use crate::sat::{Lit, SatResult, Solver};
use crate::Wff;
use rustc_hash::FxHashMap;
use std::collections::VecDeque;

/// How many of its latest models a session keeps to answer from. Two is
/// the fewest that can settle both halves of [`EntailmentSession::decide`];
/// on served_read four avoided barely more solves and ran no faster
/// (EXPERIMENTS.md E11).
const KNOWN_MODELS: usize = 2;

/// Counters describing the work a session has performed (and avoided).
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct SessionStats {
    /// Base wffs asserted as permanent clauses.
    pub base_wffs: u64,
    /// Query wffs freshly Tseitin-encoded to an activation literal.
    pub encoded_wffs: u64,
    /// Query wffs answered from the activation-literal cache — each one an
    /// entire theory re-encoding the legacy path would have paid.
    pub encode_reuse_hits: u64,
    /// `solve_with` calls issued.
    pub assumption_solves: u64,
    /// Solves avoided because a model an earlier solve found already
    /// settled the question.
    pub model_answers: u64,
}

/// A persistent incremental entailment engine over a fixed atom universe.
///
/// ```
/// use winslett_logic::{AtomId, EntailmentSession, Wff};
///
/// let a = Wff::Atom(AtomId(0));
/// let b = Wff::Atom(AtomId(1));
/// let mut s = EntailmentSession::new(2);
/// s.assert_base(&a);                       // theory: { a }
/// assert!(s.entails(&a));
/// assert!(!s.entails(&b));
/// assert!(s.consistent_with(&b));          // b is possible
/// assert!(s.consistent_with(&b.clone().not()));
/// assert!(s.entails(&Wff::or2(a, b)));     // a ⊨ a ∨ b
/// ```
pub struct EntailmentSession {
    ts: Tseitin,
    solver: Solver,
    /// Activation literal of every wff encoded so far.
    lits: FxHashMap<Wff, Lit>,
    /// Atom prefixes of the latest models the solver found, newest last.
    /// Each one is a model of the base.
    models: VecDeque<Vec<bool>>,
    stats: SessionStats,
}

impl EntailmentSession {
    /// Creates a session over a universe of `num_atoms` ground atoms with
    /// an empty base — useful for pure formula-level work (validity,
    /// equivalence) where there is no theory to hold fixed.
    pub fn new(num_atoms: usize) -> Self {
        EntailmentSession {
            ts: Tseitin::new(num_atoms),
            solver: Solver::new(num_atoms),
            lits: FxHashMap::default(),
            models: VecDeque::with_capacity(KNOWN_MODELS),
            stats: SessionStats::default(),
        }
    }

    /// Creates a session and asserts every wff in `base` permanently.
    pub fn with_base<'a, I>(num_atoms: usize, base: I) -> Self
    where
        I: IntoIterator<Item = &'a Wff>,
    {
        let mut s = Self::new(num_atoms);
        for w in base {
            s.assert_base(w);
        }
        s
    }

    /// The size of the ground-atom universe.
    pub fn num_atoms(&self) -> usize {
        self.ts.num_atoms()
    }

    /// Work counters so far.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Clauses the solver has learnt and retained across queries.
    pub fn learned_retained(&self) -> u64 {
        self.solver.learnt_clauses
    }

    /// Direct access to the underlying solver, for incremental algorithms
    /// (backbone extraction, model enumeration) that want to share the
    /// session's clause database and learnt clauses. Adding clauses through
    /// it is safe as long as they are consequences of (or definitions over)
    /// the base — query activation literals must stay unconstrained.
    /// The session forgets the models it knows, since the caller may
    /// change the clause set.
    pub fn solver_mut(&mut self) -> &mut Solver {
        self.models.clear();
        &mut self.solver
    }

    /// Flushes clauses accumulated in the encoder into the solver.
    fn flush(&mut self) {
        self.solver.ensure_vars(self.ts.num_vars());
        for c in self.ts.take_clauses() {
            if !self.solver.add_clause(&c) {
                // Root-level conflict: only base clauses can cause this
                // (definitional clauses always contain a fresh unassigned
                // variable). The solver remembers; every later answer is
                // the inconsistent-theory answer.
                break;
            }
        }
    }

    /// Asserts `wff` as a permanent part of the base theory.
    pub fn assert_base(&mut self, wff: &Wff) {
        self.ts.assert_true(wff);
        self.stats.base_wffs += 1;
        self.models.clear();
        self.flush();
    }

    /// The activation literal of `wff`: encoded on first sight, cached
    /// afterwards. Assuming the literal asserts the wff for one solve;
    /// assuming its negation denies it.
    pub fn literal_for(&mut self, wff: &Wff) -> Lit {
        if let Some(&l) = self.lits.get(wff) {
            self.stats.encode_reuse_hits += 1;
            return l;
        }
        let l = self.ts.encode(wff);
        self.flush();
        self.stats.encoded_wffs += 1;
        self.lits.insert(wff.clone(), l);
        l
    }

    /// Raw assumption solve, counted in the stats. A model it finds is
    /// kept for later questions.
    pub fn solve_under(&mut self, assumptions: &[Lit]) -> SatResult {
        self.stats.assumption_solves += 1;
        let result = self.solver.solve_with(assumptions);
        if let SatResult::Sat(model) = &result {
            let mut kept = if self.models.len() == KNOWN_MODELS {
                self.models.pop_front().expect("full")
            } else {
                Vec::with_capacity(self.num_atoms())
            };
            kept.clear();
            kept.extend_from_slice(&model[..self.num_atoms()]);
            self.models.push_back(kept);
        }
        result
    }

    /// What the known models say of `wff`: whether one satisfies it and
    /// whether one falsifies it. Nothing is known of a wff with an atom
    /// outside the universe, since no model assigns it.
    fn known(&self, wff: &Wff) -> (bool, bool) {
        let n = self.num_atoms();
        let mut inside = true;
        wff.for_each_atom(&mut |a| inside &= a.index() < n);
        let (mut satisfied, mut falsified) = (false, false);
        if inside {
            for m in &self.models {
                if wff.eval(&mut |a| m[a.index()]) {
                    satisfied = true;
                } else {
                    falsified = true;
                }
            }
        }
        (satisfied, falsified)
    }

    /// Whether the base plus the assumptions is satisfiable.
    pub fn satisfiable_under(&mut self, assumptions: &[Lit]) -> bool {
        self.solve_under(assumptions).is_sat()
    }

    /// Whether the base itself is satisfiable.
    pub fn is_consistent(&mut self) -> bool {
        self.satisfiable_under(&[])
    }

    /// Whether some model of the base satisfies `wff` (possible truth).
    pub fn consistent_with(&mut self, wff: &Wff) -> bool {
        let l = self.literal_for(wff);
        if self.known(wff).0 {
            self.stats.model_answers += 1;
            return true;
        }
        self.satisfiable_under(&[l])
    }

    /// Whether `wff` is satisfiable together with the base. Over an empty
    /// base this is plain propositional satisfiability — the formula-level
    /// reading used by the analyzer and the equivalence theorems.
    pub fn satisfiable(&mut self, wff: &Wff) -> bool {
        self.consistent_with(wff)
    }

    /// Whether every model of the base satisfies `wff` (certain truth).
    /// Vacuously true over an inconsistent base, matching the fresh-solver
    /// semantics.
    pub fn entails(&mut self, wff: &Wff) -> bool {
        let l = self.literal_for(wff);
        if self.known(wff).1 {
            self.stats.model_answers += 1;
            return false;
        }
        !self.satisfiable_under(&[l.negate()])
    }

    /// Whether `wff` is valid — true under every assignment. Only
    /// meaningful over an empty base (formula-level sessions); over a
    /// non-empty base it coincides with [`EntailmentSession::entails`].
    pub fn valid(&mut self, wff: &Wff) -> bool {
        self.entails(wff)
    }

    /// The standard query pair `(possible, certain)` for one wff: whether
    /// some model of the base satisfies it, and whether every model does.
    /// One activation literal, at most two assumption solves, and none
    /// for a half the known models settle. Certainty is only probed when
    /// the wff is possible, so an inconsistent base answers
    /// `(false, false)` exactly like the fresh-solver convention the
    /// query engine and snapshot readers rely on.
    pub fn decide(&mut self, wff: &Wff) -> (bool, bool) {
        let l = self.literal_for(wff);
        let (satisfied, falsified) = self.known(wff);
        let possible = if satisfied {
            self.stats.model_answers += 1;
            true
        } else {
            self.satisfiable_under(&[l])
        };
        if !possible {
            return (false, false);
        }
        // A model the first solve found satisfies `wff`, so it cannot
        // settle certainty: `falsified` is still all the models know.
        let certain = if falsified {
            self.stats.model_answers += 1;
            false
        } else {
            !self.satisfiable_under(&[l.negate()])
        };
        (possible, certain)
    }

    /// Whether two wffs are logically equivalent (over the base; with an
    /// empty base, plain logical equivalence).
    pub fn equivalent(&mut self, a: &Wff, b: &Wff) -> bool {
        let la = self.literal_for(a);
        let lb = self.literal_for(b);
        !self.satisfiable_under(&[la, lb.negate()]) && !self.satisfiable_under(&[la.negate(), lb])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cnf, AtomId, Formula};

    fn a(i: u32) -> Wff {
        Formula::Atom(AtomId(i))
    }

    #[test]
    fn matches_fresh_solver_on_basics() {
        // Base: a, a → b. Universe of 3.
        let base = [a(0), Wff::implies(a(0), a(1))];
        let mut s = EntailmentSession::with_base(3, base.iter());
        assert!(s.is_consistent());
        assert!(s.entails(&a(0)));
        assert!(s.entails(&a(1))); // modus ponens
        assert!(!s.entails(&a(2)));
        assert!(s.consistent_with(&a(2)));
        assert!(s.consistent_with(&a(2).not()));
        assert!(!s.consistent_with(&a(0).not()));
        // Cross-check against the one-shot path.
        let refs: Vec<&Wff> = base.iter().collect();
        for w in [
            a(0),
            a(1),
            a(2),
            Wff::or2(a(1), a(2)),
            Wff::and2(a(0), a(2)),
        ] {
            assert_eq!(s.entails(&w), cnf::entails(&refs, &w, 3), "{w:?}");
            let mut with = base.to_vec();
            with.push(w.clone());
            let with_refs: Vec<&Wff> = with.iter().collect();
            assert_eq!(
                s.consistent_with(&w),
                cnf::satisfiable(&with_refs, 3),
                "{w:?}"
            );
        }
    }

    #[test]
    fn inconsistent_base_answers_like_fresh_solvers() {
        let base = [a(0), a(0).not()];
        let mut s = EntailmentSession::with_base(2, base.iter());
        assert!(!s.is_consistent());
        // Everything is entailed, nothing is consistent — exactly the
        // fresh-solver convention.
        assert!(s.entails(&a(1)));
        assert!(s.entails(&a(1).not()));
        assert!(!s.consistent_with(&a(1)));
        assert!(!s.consistent_with(&Wff::t()));
    }

    #[test]
    fn base_added_after_queries_still_counts() {
        let mut s = EntailmentSession::new(2);
        assert!(!s.entails(&a(0)));
        s.assert_base(&a(0));
        assert!(s.entails(&a(0)));
        assert!(!s.consistent_with(&a(0).not()));
    }

    #[test]
    fn activation_literals_are_cached() {
        let mut s = EntailmentSession::with_base(2, [a(0)].iter());
        let w = Wff::or2(a(0), a(1));
        assert!(s.consistent_with(&w));
        assert!(s.entails(&w));
        assert!(s.entails(&w));
        let st = s.stats();
        assert_eq!(st.encoded_wffs, 1);
        assert_eq!(st.encode_reuse_hits, 2);
        assert_eq!(st.assumption_solves, 3);
        assert_eq!(st.base_wffs, 1);
    }

    #[test]
    fn decide_matches_the_individual_queries() {
        let base = [a(0), Wff::or2(a(1), a(2))];
        let mut s = EntailmentSession::with_base(3, base.iter());
        for w in [a(0), a(1), Wff::and2(a(1), a(2)), a(0).not()] {
            let (possible, certain) = s.decide(&w);
            assert_eq!(possible, s.consistent_with(&w), "{w:?}");
            assert_eq!(certain, s.entails(&w), "{w:?}");
        }
        // Inconsistent base: nothing possible, nothing certain via decide
        // (the pair short-circuits instead of reporting vacuous truth).
        let mut s = EntailmentSession::with_base(2, [a(0), a(0).not()].iter());
        assert_eq!(s.decide(&a(1)), (false, false));
    }

    #[test]
    fn a_repeated_probe_is_answered_from_known_models() {
        let base = [Wff::or2(a(0), a(1))];
        let mut s = EntailmentSession::with_base(2, base.iter());
        // First sight: one solve finds a model with a0, one without.
        assert_eq!(s.decide(&a(0)), (true, false));
        let first = s.stats();
        assert_eq!(first.assumption_solves, 2);
        assert_eq!(first.model_answers, 0);
        // Asked again, the two models settle both halves.
        assert_eq!(s.decide(&a(0)), (true, false));
        assert!(s.consistent_with(&a(0)));
        assert!(!s.entails(&a(0)));
        let again = s.stats();
        assert_eq!(again.assumption_solves, 2);
        assert_eq!(again.model_answers, 4);
        assert_eq!(again.encoded_wffs, 1);
        assert_eq!(again.encode_reuse_hits, 3);
        // Certainty is never read off a model: it still takes a solve.
        assert!(s.entails(&base[0]));
        assert_eq!(s.stats().assumption_solves, 3);
    }

    #[test]
    fn asserting_base_forgets_known_models() {
        let mut s = EntailmentSession::new(2);
        assert!(s.consistent_with(&a(0).not()));
        // The model that made ¬a0 possible is not a model of the new base.
        s.assert_base(&a(0));
        assert!(!s.consistent_with(&a(0).not()));
        assert_eq!(s.stats().model_answers, 0);
        // Nor may a caller's clauses meet a model found before them.
        assert!(s.consistent_with(&a(1).not()));
        let b1 = s.literal_for(&a(1));
        s.solver_mut().add_clause(&[b1]);
        assert!(!s.consistent_with(&a(1).not()));
        assert_eq!(s.stats().model_answers, 0);
    }

    #[test]
    fn query_clauses_do_not_pollute_the_base() {
        // Denying a query wff must not make it false for later queries.
        let mut s = EntailmentSession::new(2);
        let w = Wff::and2(a(0), a(1));
        assert!(!s.entails(&w)); // solves under ¬lit(w)
        assert!(s.consistent_with(&w)); // w still possible afterwards
        assert!(s.consistent_with(&a(0)));
        assert!(!s.valid(&a(0)));
    }

    #[test]
    fn validity_and_equivalence_on_empty_base() {
        let mut s = EntailmentSession::new(2);
        assert!(s.valid(&Wff::or2(a(0), a(0).not())));
        assert!(!s.valid(&a(0)));
        // De Morgan.
        let lhs = Wff::and2(a(0), a(1)).not();
        let rhs = Wff::or2(a(0).not(), a(1).not());
        assert!(s.equivalent(&lhs, &rhs));
        assert!(!s.equivalent(&a(0), &a(1)));
        assert_eq!(s.equivalent(&lhs, &rhs), cnf::equivalent(&lhs, &rhs, 2));
    }

    #[test]
    fn random_theories_match_oneshot_cnf() {
        // xorshift-driven cross-validation of the session against the
        // fresh-solver convenience functions.
        let mut state = 0x5E55_10A1u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..60 {
            let n = 3 + (next() % 4) as usize;
            let base: Vec<Wff> = (0..(next() % 4))
                .map(|_| random_wff(&mut next, n, 3))
                .collect();
            let refs: Vec<&Wff> = base.iter().collect();
            let mut s = EntailmentSession::with_base(n, base.iter());
            for _ in 0..6 {
                let q = random_wff(&mut next, n, 3);
                assert_eq!(
                    s.entails(&q),
                    cnf::entails(&refs, &q, n),
                    "entails({q:?}) over {base:?}"
                );
                let mut with = base.clone();
                with.push(q.clone());
                let with_refs: Vec<&Wff> = with.iter().collect();
                assert_eq!(
                    s.consistent_with(&q),
                    cnf::satisfiable(&with_refs, n),
                    "consistent_with({q:?}) over {base:?}"
                );
            }
        }
    }

    fn random_wff(next: &mut impl FnMut() -> u64, n: usize, depth: usize) -> Wff {
        if depth == 0 || next().is_multiple_of(3) {
            return match next() % 8 {
                0 => Wff::t(),
                1 => Wff::f(),
                _ => {
                    let x = a((next() % n as u64) as u32);
                    if next().is_multiple_of(2) {
                        x
                    } else {
                        x.not()
                    }
                }
            };
        }
        match next() % 4 {
            0 => random_wff(next, n, depth - 1).not(),
            1 => Formula::And(vec![
                random_wff(next, n, depth - 1),
                random_wff(next, n, depth - 1),
            ]),
            2 => Formula::Or(vec![
                random_wff(next, n, depth - 1),
                random_wff(next, n, depth - 1),
            ]),
            _ => Wff::iff(
                random_wff(next, n, depth - 1),
                random_wff(next, n, depth - 1),
            ),
        }
    }
}
