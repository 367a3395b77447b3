//! Conjunctive queries with certain/possible answer semantics.
//!
//! Reiter's framework (which the paper builds on) defines query answers
//! over a logical database by entailment: an answer tuple is *certain* when
//! the instantiated query is true in every alternative world, and
//! *possible* when it is true in at least one. This module provides a small
//! conjunctive query language over the registered atoms:
//!
//! ```text
//! ?- Orders(?o, 32, ?q) & !InStock(32, ?q)
//! ```
//!
//! Terms starting with `?` are variables; everything else is a constant.
//! Negated atoms are allowed (safe negation: every variable must occur in a
//! positive atom). Predicate constants are rejected, per §3.3: "they may
//! not appear in any query posed to the database".

use crate::error::DbError;
use rustc_hash::FxHashSet;
use winslett_logic::{AtomId, ConstId, GroundAtom, PredicateKind, Wff};
use winslett_theory::Theory;

/// A term in a query atom.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum QueryTerm {
    /// A variable, by index.
    Var(u16),
    /// A constant.
    Cst(ConstId),
    /// A constant name the database has never interned. Atoms mentioning
    /// it are outside every completion axiom and therefore false in every
    /// world — the query still evaluates, it just can't match anything
    /// positively.
    Foreign,
}

/// One (possibly negated) query atom.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct QueryAtom {
    /// The predicate.
    pub pred: winslett_logic::PredId,
    /// Argument terms.
    pub args: Vec<QueryTerm>,
    /// Whether the atom is negated.
    pub negated: bool,
}

/// A conjunctive query.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Query {
    /// Number of distinct variables.
    pub num_vars: u16,
    /// Variable names, by index (for rendering answers).
    pub var_names: Vec<String>,
    /// The atoms, positives first is not required.
    pub atoms: Vec<QueryAtom>,
}

/// Answers to a query.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Answers {
    /// Substitutions (one constant name per variable) true in **every**
    /// alternative world.
    pub certain: Vec<Vec<String>>,
    /// Substitutions true in **some** alternative world (a superset of
    /// `certain`).
    pub possible: Vec<Vec<String>>,
}

/// A possible answer together with its *support*: how many alternative
/// worlds it holds in. Support equal to the world count means certainty —
/// a graded middle ground between the certain/possible dichotomy.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SupportedAnswer {
    /// The substitution (one constant name per variable).
    pub row: Vec<String>,
    /// Number of worlds in which the instantiated query is true.
    pub support: usize,
}

impl Query {
    /// Parses the textual query syntax against a theory's vocabulary.
    /// Unknown predicates are errors; unknown constants are accepted as
    /// [`QueryTerm::Foreign`] (their atoms are false in every world).
    pub fn parse(src: &str, theory: &Theory) -> Result<Query, DbError> {
        let src = src.trim();
        let src = src.strip_prefix("?-").unwrap_or(src).trim();
        if src.is_empty() {
            return Err(DbError::Query {
                message: "empty query".into(),
            });
        }
        let mut atoms = Vec::new();
        let mut var_names: Vec<String> = Vec::new();
        for part in src.split('&') {
            let mut part = part.trim();
            let mut negated = false;
            while let Some(rest) = part.strip_prefix('!') {
                negated = !negated;
                part = rest.trim();
            }
            let open = part.find('(').ok_or_else(|| DbError::Query {
                message: format!("atom `{part}` missing argument list"),
            })?;
            if !part.ends_with(')') {
                return Err(DbError::Query {
                    message: format!("atom `{part}` missing ')'"),
                });
            }
            let pred_name = part[..open].trim();
            let pred = theory
                .vocab
                .find_predicate(pred_name)
                .ok_or_else(|| DbError::Query {
                    message: format!("unknown predicate `{pred_name}`"),
                })?;
            let decl = theory.vocab.predicate(pred);
            if decl.kind == PredicateKind::PredicateConstant {
                return Err(DbError::Query {
                    message: format!("predicate constant `{pred_name}` may not appear in queries"),
                });
            }
            let body = &part[open + 1..part.len() - 1];
            let mut args = Vec::new();
            for raw in body.split(',') {
                let raw = raw.trim();
                if let Some(name) = raw.strip_prefix('?') {
                    let idx = match var_names.iter().position(|v| v == name) {
                        Some(i) => i,
                        None => {
                            var_names.push(name.to_owned());
                            var_names.len() - 1
                        }
                    };
                    args.push(QueryTerm::Var(idx as u16));
                } else {
                    match theory.vocab.find_constant(raw) {
                        Some(c) => args.push(QueryTerm::Cst(c)),
                        None => args.push(QueryTerm::Foreign),
                    }
                }
            }
            if args.len() != decl.arity {
                return Err(DbError::Query {
                    message: format!(
                        "predicate `{pred_name}` has arity {} but was given {} arguments",
                        decl.arity,
                        args.len()
                    ),
                });
            }
            atoms.push(QueryAtom {
                pred,
                args,
                negated,
            });
        }
        let q = Query {
            num_vars: var_names.len() as u16,
            var_names,
            atoms,
        };
        q.check_safety()?;
        Ok(q)
    }

    /// Safe-negation check: every variable occurs in a positive atom.
    fn check_safety(&self) -> Result<(), DbError> {
        let mut positive_vars = FxHashSet::default();
        for a in self.atoms.iter().filter(|a| !a.negated) {
            for t in &a.args {
                if let QueryTerm::Var(v) = t {
                    positive_vars.insert(*v);
                }
            }
        }
        for v in 0..self.num_vars {
            if !positive_vars.contains(&v) {
                return Err(DbError::Query {
                    message: format!(
                        "variable ?{} occurs only in negated atoms (unsafe)",
                        self.var_names[v as usize]
                    ),
                });
            }
        }
        Ok(())
    }

    /// Evaluates the query against `theory`, returning certain and possible
    /// answers. Candidate bindings are generated from the registered atoms
    /// (anything outside the completion axioms is false everywhere), then
    /// each fully instantiated query is decided against the theory's shared
    /// entailment session — at most two assumption solves, none for a half
    /// a model the session already found settles, and no per-binding
    /// solver construction.
    pub fn evaluate(&self, theory: &Theory) -> Result<Answers, DbError> {
        theory.with_entailment_session(|s| self.evaluate_with_session(theory, s))
    }

    /// Evaluates the query deciding every candidate against a
    /// caller-provided [`EntailmentSession`](winslett_logic::EntailmentSession)
    /// instead of the theory's shared cached one. This is the snapshot-read
    /// path: a server connection pinning an `Arc<Theory>` snapshot keeps its
    /// **own** session (encoded once per snapshot) and evaluates every query
    /// against it, so concurrent readers never contend on the theory's
    /// internal session mutex. The session must have been built over this
    /// theory's model constraints (e.g. via
    /// [`Theory::fresh_entailment_session`]); answers are then identical to
    /// [`Query::evaluate`].
    pub fn evaluate_with_session(
        &self,
        theory: &Theory,
        session: &mut winslett_logic::EntailmentSession,
    ) -> Result<Answers, DbError> {
        let candidates = self.candidate_instances(theory)?;
        let mut answers = Answers::default();
        for (row, wff) in candidates {
            let (possible, certain) = session.decide(&wff);
            if possible {
                if certain {
                    answers.certain.push(row.clone());
                }
                answers.possible.push(row);
            }
        }
        answers.certain.sort();
        answers.certain.dedup();
        answers.possible.sort();
        answers.possible.dedup();
        Ok(answers)
    }

    /// Enumerates the distinct complete bindings of the query together with
    /// their fully instantiated ground wffs — the SAT-free half of
    /// [`Query::evaluate`]. Exposed so benchmarks can compare decision
    /// strategies over identical candidate sets.
    pub fn candidate_instances(&self, theory: &Theory) -> Result<Vec<(Vec<String>, Wff)>, DbError> {
        let positives: Vec<&QueryAtom> = self.atoms.iter().filter(|a| !a.negated).collect();
        // Candidate tables are built once per evaluation, not once per
        // recursion level: `search` re-visits each positive atom once per
        // partial binding above it.
        let tables: Vec<Vec<AtomId>> = positives
            .iter()
            .map(|a| theory.registry.atoms_of(a.pred).collect())
            .collect();
        let mut env: Vec<Option<ConstId>> = vec![None; self.num_vars as usize];
        let mut seen: FxHashSet<Vec<ConstId>> = FxHashSet::default();
        let mut out = Vec::new();
        self.search(
            theory, &positives, &tables, 0, &mut env, &mut seen, &mut out,
        )?;
        Ok(out)
    }

    /// Evaluates the query with per-answer support counts: for each
    /// possible answer, the number of alternative worlds it holds in.
    /// Returns `(answers, total_worlds)`; an answer with
    /// `support == total_worlds` is certain. Costs a full world
    /// enumeration, so it is bounded by `limit`.
    pub fn evaluate_with_support(
        &self,
        theory: &Theory,
        limit: winslett_logic::ModelLimit,
    ) -> Result<(Vec<SupportedAnswer>, usize), DbError> {
        let worlds = theory.alternative_worlds(limit)?;
        let base = self.evaluate(theory)?;
        let mut out = Vec::with_capacity(base.possible.len());
        // Recover each row's binding by re-instantiating from names. The
        // instantiation checks inside `evaluate` already ran against one
        // shared session, so this loop performs no further SAT work.
        for row in &base.possible {
            let env: Vec<Option<ConstId>> = row
                .iter()
                .map(|name| theory.vocab.find_constant(name))
                .collect();
            if let Some(bad) = env.iter().position(Option::is_none) {
                // Every row came from interned constants moments ago; a
                // failed re-resolution means the vocabulary was mutated
                // out from under us (or an internal invariant broke).
                // Silently dropping the answer would corrupt the result
                // set, so fail loudly instead.
                debug_assert!(false, "constant `{}` failed to re-resolve", row[bad]);
                return Err(DbError::Query {
                    message: format!(
                        "internal error: answer constant `{}` in row {row:?} \
                         no longer resolves in the vocabulary",
                        row[bad]
                    ),
                });
            }
            let wff = self.instantiate(theory, &env)?;
            let support = worlds
                .iter()
                .filter(|w| wff.eval(&mut |a: &AtomId| w.get(a.index())))
                .count();
            out.push(SupportedAnswer {
                row: row.clone(),
                support,
            });
        }
        out.sort_by(|a, b| b.support.cmp(&a.support).then(a.row.cmp(&b.row)));
        Ok((out, worlds.len()))
    }

    #[allow(clippy::too_many_arguments)]
    fn search(
        &self,
        theory: &Theory,
        positives: &[&QueryAtom],
        tables: &[Vec<AtomId>],
        pos: usize,
        env: &mut Vec<Option<ConstId>>,
        seen: &mut FxHashSet<Vec<ConstId>>,
        out: &mut Vec<(Vec<String>, Wff)>,
    ) -> Result<(), DbError> {
        if pos == positives.len() {
            let binding: Vec<ConstId> = env
                .iter()
                .map(|o| o.expect("all vars bound by safety"))
                .collect();
            if !seen.insert(binding.clone()) {
                return Ok(());
            }
            let wff = self.instantiate(theory, env)?;
            let row: Vec<String> = binding
                .iter()
                .map(|c| theory.vocab.constant_name(*c).to_owned())
                .collect();
            out.push((row, wff));
            return Ok(());
        }
        let atom = positives[pos];
        for &cand in &tables[pos] {
            let ground = theory.atoms.resolve(cand).clone();
            let mut trail = Vec::new();
            if unify_query(atom, &ground, env, &mut trail) {
                self.search(theory, positives, tables, pos + 1, env, seen, out)?;
            }
            for v in trail {
                env[v as usize] = None;
            }
        }
        Ok(())
    }

    /// Builds the ground wff for a complete binding. Negated atoms over
    /// never-interned ground atoms are certainly true (completion) and fold
    /// away; positive ones would be certainly false (cannot happen here —
    /// positives come from the registry).
    fn instantiate(&self, theory: &Theory, env: &[Option<ConstId>]) -> Result<Wff, DbError> {
        let mut conjuncts = Vec::with_capacity(self.atoms.len());
        for a in &self.atoms {
            let mut args: Vec<ConstId> = Vec::with_capacity(a.args.len());
            let mut foreign = false;
            for t in &a.args {
                match t {
                    QueryTerm::Cst(c) => args.push(*c),
                    QueryTerm::Var(v) => args.push(env[*v as usize].expect("bound")),
                    QueryTerm::Foreign => foreign = true,
                }
            }
            if foreign {
                // An atom over a never-seen constant is false everywhere.
                if !a.negated {
                    conjuncts.push(Wff::f());
                }
                continue;
            }
            let ground = GroundAtom::new(a.pred, &args);
            match theory.atoms.get(&ground) {
                Some(id) if theory.registry.is_registered(id) => {
                    let lit = Wff::Atom(id);
                    conjuncts.push(if a.negated { lit.not() } else { lit });
                }
                _ => {
                    // Unregistered: false in every world.
                    if !a.negated {
                        conjuncts.push(Wff::f());
                    }
                    // Negated unregistered atom is certainly true: drop.
                }
            }
        }
        Ok(Wff::and(conjuncts))
    }
}

fn unify_query(
    pattern: &QueryAtom,
    ground: &GroundAtom,
    env: &mut [Option<ConstId>],
    trail: &mut Vec<u16>,
) -> bool {
    if pattern.pred != ground.pred || pattern.args.len() != ground.args.len() {
        return false;
    }
    for (t, &c) in pattern.args.iter().zip(ground.args.iter()) {
        match t {
            QueryTerm::Foreign => return false,
            QueryTerm::Cst(k) => {
                if *k != c {
                    return false;
                }
            }
            QueryTerm::Var(v) => match env[*v as usize] {
                Some(bound) => {
                    if bound != c {
                        return false;
                    }
                }
                None => {
                    env[*v as usize] = Some(c);
                    trail.push(*v);
                }
            },
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Orders(700,32,9) certain; Orders(701,33,5) ∨ Orders(701,34,5)
    /// disjunctive.
    fn orders_db() -> Theory {
        let mut t = Theory::new();
        let orders = t.declare_relation("Orders", 3).unwrap();
        let mk = |t: &mut Theory, a: &str, b: &str, c: &str| {
            let ca = t.constant(a);
            let cb = t.constant(b);
            let cc = t.constant(c);
            t.atom(orders, &[ca, cb, cc])
        };
        let t1 = mk(&mut t, "700", "32", "9");
        let t2 = mk(&mut t, "701", "33", "5");
        let t3 = mk(&mut t, "701", "34", "5");
        t.assert_atom(t1);
        t.assert_wff(&winslett_logic::Formula::Or(vec![
            Wff::Atom(t2),
            Wff::Atom(t3),
        ]));
        t
    }

    #[test]
    fn certain_and_possible_answers() {
        let t = orders_db();
        let q = Query::parse("?- Orders(?o, ?p, ?q)", &t).unwrap();
        let ans = q.evaluate(&t).unwrap();
        assert_eq!(ans.certain, vec![vec!["700", "32", "9"]]);
        assert_eq!(ans.possible.len(), 3);
    }

    #[test]
    fn constants_filter() {
        let t = orders_db();
        let q = Query::parse("Orders(701, ?p, 5)", &t).unwrap();
        let ans = q.evaluate(&t).unwrap();
        assert!(ans.certain.is_empty());
        assert_eq!(ans.possible.len(), 2);
    }

    #[test]
    fn join_via_shared_variable() {
        let t = orders_db();
        // Orders with the same part in two orders — none here.
        let q = Query::parse("Orders(700, ?p, ?q) & Orders(701, ?p, ?r)", &t).unwrap();
        let ans = q.evaluate(&t).unwrap();
        assert!(ans.possible.is_empty());
    }

    #[test]
    fn negation_over_unregistered_atom_is_certain() {
        let t = orders_db();
        let q = Query::parse("Orders(700, ?p, ?q) & !Orders(999, ?p, ?q)", &t).unwrap();
        let ans = q.evaluate(&t).unwrap();
        assert_eq!(ans.certain.len(), 1);
    }

    #[test]
    fn negation_over_disjunctive_atom() {
        let t = orders_db();
        // ¬Orders(701,33,5): possible (the disjunct may be the other one)
        // but not certain.
        let q = Query::parse("Orders(700, 32, 9) & !Orders(701, 33, 5)", &t).unwrap();
        let ans = q.evaluate(&t).unwrap();
        assert!(ans.certain.is_empty());
        assert_eq!(ans.possible.len(), 1);
    }

    #[test]
    fn unsafe_query_rejected() {
        let t = orders_db();
        assert!(matches!(
            Query::parse("!Orders(?o, ?p, ?q)", &t),
            Err(DbError::Query { .. })
        ));
    }

    #[test]
    fn unknown_symbols_rejected() {
        let t = orders_db();
        assert!(Query::parse("Nope(?x)", &t).is_err());
        assert!(Query::parse("Orders(?x, ?y)", &t).is_err()); // arity
        assert!(Query::parse("", &t).is_err());
        assert!(Query::parse("Orders(?x, ?y, ?z", &t).is_err());
    }

    #[test]
    fn predicate_constant_rejected_in_query() {
        let mut t = orders_db();
        let pc = t.vocab.fresh_predicate_constant();
        let name = t.vocab.predicate(pc).name.clone();
        assert!(Query::parse(&format!("{name}()"), &t).is_err());
    }

    #[test]
    fn support_counts_grade_answers() {
        let t = orders_db();
        // Worlds: {t1,t2}, {t1,t3}, {t1,t2,t3} (inclusive disjunction).
        let q = Query::parse("Orders(?o, ?p, ?q)", &t).unwrap();
        let (supported, total) = q
            .evaluate_with_support(&t, winslett_logic::ModelLimit::default())
            .unwrap();
        assert_eq!(total, 3);
        // t1 = Orders(700,32,9) holds everywhere; the disjuncts in 2 of 3.
        let find = |o: &str| {
            supported
                .iter()
                .find(|s| s.row[0] == o)
                .map(|s| s.support)
                .unwrap()
        };
        assert_eq!(find("700"), 3);
        assert_eq!(find("701"), 2);
        // Sorted by support, certain rows first.
        assert!(supported[0].support >= supported.last().unwrap().support);
    }

    #[test]
    fn boolean_query_no_vars() {
        let t = orders_db();
        let q = Query::parse("Orders(700, 32, 9)", &t).unwrap();
        let ans = q.evaluate(&t).unwrap();
        // One empty row: "yes".
        assert_eq!(ans.certain, vec![Vec::<String>::new()]);
    }
}
