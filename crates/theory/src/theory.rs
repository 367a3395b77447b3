//! Extended relational theories (§2, extended per §3.5).
//!
//! A [`Theory`] bundles the language (vocabulary + atom table), the schema
//! (type axioms), the dependency axioms, the completion-axiom registry, and
//! the indexed non-axiomatic section. Unique-name axioms are structural;
//! completion axioms are the registry; type and dependency axioms are
//! templates instantiated on demand. The only materialized formulas are the
//! ground wffs of the non-axiomatic section — exactly as the paper
//! prescribes for implementations.
//!
//! ## Model semantics
//!
//! A model assigns truth values to every interned atom such that:
//!
//! * every live wff of the non-axiomatic section is true;
//! * every atom that is neither registered (completion axioms) nor a
//!   predicate constant occurring in the section is **false** — this is the
//!   closed-world reading of the completion axioms;
//! * predicate constants not occurring in the section are pinned false
//!   (they are invisible, so this choice does not affect alternative
//!   worlds; it merely keeps model counts small).
//!
//! An *alternative world* is a model projected onto the visible (arity ≥ 1)
//! registered atoms.

use crate::deps::Dependency;
use crate::error::TheoryError;
use crate::registry::CompletionRegistry;
use crate::schema::Schema;
use crate::stats::TheoryStats;
use crate::store::{FormulaId, FormulaStore};
use std::sync::Mutex;
use winslett_logic::{
    enumerate_models, AtomId, AtomTable, BitSet, ConstId, EntailmentSession, GroundAtom,
    ModelLimit, PredId, PredicateKind, SessionStats, Vocabulary, Wff,
};

/// Interior-mutable cache holding the theory's [`EntailmentSession`].
///
/// Entailment methods take `&self`, and the worlds engine shares a
/// `&Theory` across scoped threads, so the cache sits behind a `Mutex`
/// (keeping `Theory: Sync`). Cloning a theory deliberately starts the
/// clone with an empty cache — sessions are cheap to rebuild and carry
/// solver state that must not be shared between diverging theories.
#[derive(Default)]
struct SessionSlot(Mutex<SlotInner>);

#[derive(Default)]
struct SlotInner {
    /// The cached session, tagged with the generation it was built at.
    cached: Option<(u64, EntailmentSession)>,
    /// Sessions built (first use + rebuilds after invalidation).
    rebuilds: u64,
    /// Cached sessions discarded on generation mismatch.
    invalidations: u64,
    /// Counters accumulated from sessions that were retired.
    retired: SessionStats,
    /// Learnt-clause totals from retired sessions.
    retired_learned: u64,
}

impl SessionSlot {
    fn lock(&self) -> std::sync::MutexGuard<'_, SlotInner> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl Clone for SessionSlot {
    fn clone(&self) -> Self {
        SessionSlot::default()
    }
}

impl std::fmt::Debug for SessionSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("SessionSlot")
            .field("cached", &inner.cached.as_ref().map(|(g, _)| *g))
            .field("rebuilds", &inner.rebuilds)
            .field("invalidations", &inner.invalidations)
            .finish()
    }
}

/// An extended relational theory.
///
/// ```
/// use winslett_theory::Theory;
/// use winslett_logic::{ModelLimit, Wff};
///
/// let mut t = Theory::new();
/// let orders = t.declare_relation("Orders", 2)?;
/// let (c1, c2) = (t.constant("700"), t.constant("32"));
/// let tup = t.atom(orders, &[c1, c2]);
/// t.assert_atom(tup);
///
/// assert!(t.is_consistent());
/// assert!(t.entails(&Wff::Atom(tup)));
/// assert_eq!(t.alternative_worlds(ModelLimit::default())?.len(), 1);
/// # Ok::<(), winslett_theory::TheoryError>(())
/// ```
#[derive(Clone, Default, Debug)]
pub struct Theory {
    /// The language `L`.
    pub vocab: Vocabulary,
    /// Interned ground atoms (the name space of §3.6).
    pub atoms: AtomTable,
    /// Type axioms and the attribute set `A`.
    pub schema: Schema,
    /// Dependency axioms.
    pub deps: Vec<Dependency>,
    /// Completion axioms, as per-predicate registered-atom indices.
    pub registry: CompletionRegistry,
    /// The non-axiomatic section.
    pub store: FormulaStore,
    /// Extra generation ticks folded into [`Theory::generation`]. The
    /// component version counters only count mutations *of this theory
    /// value*; when a separately-evolved copy (e.g. a background-compacted
    /// clone) is swapped in for a live theory, its counters may trail the
    /// live ones even though its encoding differs. The swap bumps this
    /// epoch past the retired theory's generation so every cached
    /// [`EntailmentSession`] and per-snapshot reader sees a strictly
    /// larger generation and rebuilds.
    epoch: u64,
    /// Cached entailment session, invalidated on generation mismatch.
    session: SessionSlot,
}

impl Theory {
    /// Creates an empty theory.
    pub fn new() -> Self {
        Self::default()
    }

    // ----- schema construction -------------------------------------------

    /// Declares a unary attribute predicate and records it in the schema.
    pub fn declare_attribute(&mut self, name: &str) -> Result<PredId, TheoryError> {
        let p = self
            .vocab
            .declare_predicate(name, 1, PredicateKind::Attribute)
            .ok_or_else(|| TheoryError::UnknownPredicate { name: name.into() })?;
        self.schema.add_attribute(p, &self.vocab)?;
        Ok(p)
    }

    /// Declares an untyped relation (a theory without type axioms, §2).
    pub fn declare_relation(&mut self, name: &str, arity: usize) -> Result<PredId, TheoryError> {
        self.vocab
            .declare_predicate(name, arity, PredicateKind::Relation)
            .ok_or_else(|| TheoryError::UnknownPredicate { name: name.into() })
    }

    /// Declares a relation with a type axiom: argument `i` ranges over
    /// attribute `attrs[i]` (§3.5, item 4). The attributes are checked
    /// first, so a refusal leaves `name` undeclared.
    pub fn declare_typed_relation(
        &mut self,
        name: &str,
        attrs: &[PredId],
    ) -> Result<PredId, TheoryError> {
        self.schema.check_attributes(attrs, &self.vocab)?;
        let p = self.declare_relation(name, attrs.len())?;
        self.schema.set_type_axiom(p, attrs.to_vec(), &self.vocab)?;
        Ok(p)
    }

    /// Adds a dependency axiom (§3.5, item 5).
    pub fn add_dependency(&mut self, dep: Dependency) {
        self.deps.push(dep);
    }

    // ----- atoms and constants -------------------------------------------

    /// Interns a constant.
    pub fn constant(&mut self, name: &str) -> ConstId {
        self.vocab.constant(name)
    }

    /// Interns the atom `pred(args…)` (without registering it).
    pub fn atom(&mut self, pred: PredId, args: &[ConstId]) -> AtomId {
        self.atoms.intern(GroundAtom::new(pred, args))
    }

    /// Interns an atom from names, declaring nothing: every symbol must
    /// exist.
    pub fn atom_by_name(&mut self, pred: &str, args: &[&str]) -> Result<AtomId, TheoryError> {
        let p = self
            .vocab
            .find_predicate(pred)
            .ok_or_else(|| TheoryError::UnknownPredicate { name: pred.into() })?;
        let decl = self.vocab.predicate(p);
        if decl.arity != args.len() {
            return Err(TheoryError::ArityMismatch {
                predicate: pred.into(),
                expected: decl.arity,
                got: args.len(),
            });
        }
        let cs: Vec<ConstId> = args.iter().map(|a| self.vocab.constant(a)).collect();
        Ok(self.atoms.intern(GroundAtom::new(p, &cs)))
    }

    /// Registers `atom` in the completion axiom of its predicate. Returns
    /// `true` if the atom was new to the axiom. Predicate constants have no
    /// completion axioms and are accepted as a no-op `false`.
    pub fn register_atom(&mut self, atom: AtomId) -> bool {
        let ga = self.atoms.resolve(atom).clone();
        if self.vocab.predicate(ga.pred).kind == PredicateKind::PredicateConstant {
            return false;
        }
        self.registry.register(ga.pred, atom, &ga.args)
    }

    /// Whether `atom` is visible in alternative worlds (arity ≥ 1).
    pub fn is_visible(&self, atom: AtomId) -> bool {
        self.vocab
            .predicate(self.atoms.resolve(atom).pred)
            .kind
            .visible()
    }

    // ----- the non-axiomatic section --------------------------------------

    /// Adds a ground wff to the non-axiomatic section, registering every
    /// visible atom it mentions in the completion axioms (the "is a
    /// disjunct iff appears elsewhere in T" rule of §2).
    pub fn assert_wff(&mut self, wff: &Wff) -> FormulaId {
        let atoms: Vec<AtomId> = wff.atom_set().into_iter().collect();
        for a in atoms {
            self.register_atom(a);
        }
        self.store.insert(wff)
    }

    /// Convenience: assert that `atom` holds.
    pub fn assert_atom(&mut self, atom: AtomId) -> FormulaId {
        self.assert_wff(&Wff::Atom(atom))
    }

    /// Convenience: assert that `atom` does not hold (registers it so its
    /// falsity is recorded rather than implied by completion).
    pub fn assert_not_atom(&mut self, atom: AtomId) -> FormulaId {
        self.assert_wff(&Wff::Atom(atom).not())
    }

    // ----- model-level operations ------------------------------------------

    /// Size of the atom universe (all interned atoms).
    pub fn num_atoms(&self) -> usize {
        self.atoms.len()
    }

    /// The wffs that constrain models: the live non-axiomatic section plus
    /// pinned-false units for atoms outside the completion axioms.
    pub fn model_constraints(&self) -> Vec<Wff> {
        let mut wffs = self.store.wffs();
        for (id, ga) in self.atoms.iter() {
            let kind = self.vocab.predicate(ga.pred).kind;
            let pinned_false = match kind {
                PredicateKind::PredicateConstant => !self.store.contains_atom(id),
                _ => !self.registry.is_registered(id),
            };
            if pinned_false {
                wffs.push(Wff::Atom(id).not());
            }
        }
        wffs
    }

    /// Projection mask selecting the externally visible atoms (registered,
    /// arity ≥ 1).
    pub fn visible_projection(&self) -> BitSet {
        let mut mask = BitSet::zeros(self.atoms.len());
        for (id, ga) in self.atoms.iter() {
            if self.vocab.predicate(ga.pred).kind.visible() && self.registry.is_registered(id) {
                mask.set(id.index(), true);
            }
        }
        mask
    }

    /// Enumerates the alternative worlds: models of the theory projected
    /// onto visible atoms, each world given as the bitset of true atoms.
    pub fn alternative_worlds(&self, limit: ModelLimit) -> Result<Vec<BitSet>, TheoryError> {
        let constraints = self.model_constraints();
        let refs: Vec<&Wff> = constraints.iter().collect();
        let proj = self.visible_projection();
        enumerate_models(&refs, self.num_atoms(), &proj, limit).map_err(TheoryError::from)
    }

    // ----- the incremental entailment session -----------------------------

    /// A monotone counter covering every semantic mutation of the theory:
    /// section inserts/removes/renames, completion-axiom registrations,
    /// schema changes, dependency additions, and growth of the atom
    /// universe or vocabulary. Each summand is itself monotone, so the sum
    /// strictly increases whenever any component changes — the cached
    /// session compares generations and rebuilds on mismatch.
    pub fn generation(&self) -> u64 {
        self.epoch
            + self.store.version()
            + self.registry.version()
            + self.schema.version()
            + self.deps.len() as u64
            + self.atoms.len() as u64
            + self.vocab.num_constants() as u64
            + self.vocab.num_predicates() as u64
    }

    /// Bumps the generation epoch until `self.generation() > floor`.
    ///
    /// Used when this theory value replaces another one whose generation
    /// it did not inherit (background compaction swaps a
    /// separately-simplified clone in for the live theory). Guarantees
    /// strict advance so no consumer keyed on the retired theory's
    /// generation can mistake the replacement for an unchanged theory.
    pub fn advance_generation_past(&mut self, floor: u64) {
        let current = self.generation();
        if current <= floor {
            self.epoch += floor - current + 1;
        }
    }

    /// Builds a fresh [`EntailmentSession`] over the current model
    /// constraints, bypassing the cache. Used by snapshot readers, which
    /// keep a private session per pinned generation, and by benchmarks.
    pub fn fresh_entailment_session(&self) -> EntailmentSession {
        let constraints = self.model_constraints();
        EntailmentSession::with_base(self.num_atoms(), constraints.iter())
    }

    /// Runs `f` against the cached entailment session, (re)building it
    /// first if none exists or the theory has mutated since it was built.
    pub fn with_entailment_session<R>(&self, f: impl FnOnce(&mut EntailmentSession) -> R) -> R {
        let generation = self.generation();
        let mut slot = self.session.lock();
        let stale = match &slot.cached {
            Some((g, _)) => *g != generation,
            None => true,
        };
        if stale {
            if let Some((_, old)) = slot.cached.take() {
                slot.invalidations += 1;
                let st = old.stats();
                slot.retired.base_wffs += st.base_wffs;
                slot.retired.encoded_wffs += st.encoded_wffs;
                slot.retired.encode_reuse_hits += st.encode_reuse_hits;
                slot.retired.assumption_solves += st.assumption_solves;
                slot.retired.model_answers += st.model_answers;
                slot.retired_learned += old.learned_retained();
            }
            slot.cached = Some((generation, self.fresh_entailment_session()));
            slot.rebuilds += 1;
        }
        let (_, session) = slot.cached.as_mut().expect("just ensured");
        f(session)
    }

    /// Cumulative session counters: retired sessions plus the live one.
    fn session_counters(&self) -> (u64, u64, SessionStats, u64) {
        let slot = self.session.lock();
        let mut total = slot.retired;
        let mut learned = slot.retired_learned;
        if let Some((_, s)) = &slot.cached {
            let st = s.stats();
            total.base_wffs += st.base_wffs;
            total.encoded_wffs += st.encoded_wffs;
            total.encode_reuse_hits += st.encode_reuse_hits;
            total.assumption_solves += st.assumption_solves;
            total.model_answers += st.model_answers;
            learned += s.learned_retained();
        }
        (slot.rebuilds, slot.invalidations, total, learned)
    }

    /// Whether the theory has at least one model.
    pub fn is_consistent(&self) -> bool {
        self.with_entailment_session(|s| s.is_consistent())
    }

    /// Whether every model of the theory satisfies `wff` (certain truth).
    pub fn entails(&self, wff: &Wff) -> bool {
        self.with_entailment_session(|s| s.entails(wff))
    }

    /// Computes the truth *backbone* of the theory over its atoms: for each
    /// interned atom, `Some(v)` when every model assigns it `v`, `None`
    /// when models disagree. Returns `Ok(None)` for an inconsistent theory.
    ///
    /// One incremental SAT session answers all atoms (learnt clauses are
    /// shared across the per-atom queries), so this is the efficient way to
    /// ask "which tuples are certain?" wholesale — used by the relational
    /// projections in `winslett-core`.
    pub fn atom_backbone(&self) -> Result<Option<Vec<Option<bool>>>, TheoryError> {
        // Activation literals of previously-encoded query wffs are free
        // variables that never constrain the atoms, so the backbone over
        // the first `num_atoms` variables is unaffected by session reuse.
        let n = self.num_atoms();
        Ok(self.with_entailment_session(|s| winslett_logic::backbone(s.solver_mut(), n)))
    }

    /// Projects a raw SAT model (which may carry Tseitin auxiliary
    /// variables beyond the atom universe) onto the visible atoms,
    /// yielding an alternative world. Shared by [`Theory::find_world_where`]
    /// and the snapshot readers in `winslett-core`, which extract worlds
    /// from their own per-connection sessions.
    pub fn project_model_to_world(&self, model: &[bool]) -> BitSet {
        let proj = self.visible_projection();
        let mut world = BitSet::zeros(self.num_atoms());
        for (i, &truth) in model.iter().enumerate().take(self.num_atoms()) {
            if truth && proj.get(i) {
                world.set(i, true);
            }
        }
        world
    }

    /// Finds one alternative world in which `wff` holds, if any — a
    /// *witness* for possibility (or, applied to `¬wff`, a counterexample
    /// to certainty). Returns the world projected onto visible atoms.
    pub fn find_world_where(&self, wff: &Wff) -> Option<BitSet> {
        let result = self.with_entailment_session(|s| {
            let l = s.literal_for(wff);
            s.solve_under(&[l])
        });
        match result {
            winslett_logic::SatResult::Sat(model) => Some(self.project_model_to_world(&model)),
            winslett_logic::SatResult::Unsat => None,
        }
    }

    /// Whether some model of the theory satisfies `wff` (possible truth).
    pub fn consistent_with(&self, wff: &Wff) -> bool {
        self.with_entailment_session(|s| s.consistent_with(wff))
    }

    // ----- §3.5 legality --------------------------------------------------

    /// Materializes the ground instance of the type axiom for a registered
    /// atom `P(c⃗)`: `P(c⃗) → A₁(c₁) ∧ … ∧ Aₙ(cₙ)`. Returns `None` for
    /// predicates without type axioms. Interns attribute atoms on demand.
    pub fn type_axiom_instance(&mut self, atom: AtomId) -> Option<Wff> {
        let ga = self.atoms.resolve(atom).clone();
        let attrs = self.schema.type_axiom(ga.pred)?.to_vec();
        let conjuncts: Vec<Wff> = attrs
            .iter()
            .zip(ga.args.iter())
            .map(|(&attr, &c)| {
                let a = self.atoms.intern(GroundAtom::new(attr, &[c]));
                Wff::Atom(a)
            })
            .collect();
        Some(Wff::implies(Wff::Atom(atom), Wff::and(conjuncts)))
    }

    /// Checks the §3.5 invariant: "removing the type and dependency axioms
    /// from T does not change the models of T" — i.e. every instantiated
    /// type/dependency axiom over the registered atoms is entailed by the
    /// rest of the theory. Returns the first counterexample.
    pub fn check_axioms_redundant(&mut self) -> Result<(), TheoryError> {
        // Type axioms: one instance per registered atom of a typed relation.
        let typed_atoms: Vec<AtomId> = self
            .registry
            .iter()
            .filter(|(p, _)| self.schema.type_axiom(*p).is_some())
            .map(|(_, a)| a)
            .collect();
        for atom in typed_atoms {
            if let Some(inst) = self.type_axiom_instance(atom) {
                if !self.entails(&inst) {
                    return Err(TheoryError::AxiomsNotRedundant {
                        axiom: format!("type axiom instance for atom {atom}"),
                    });
                }
            }
        }
        // Dependency axioms: all instantiations over registered atoms.
        let deps = self.deps.clone();
        for dep in &deps {
            let insts = dep.instantiate(&self.registry, &mut self.atoms, None);
            for inst in insts {
                if !self.entails(&inst) {
                    return Err(TheoryError::AxiomsNotRedundant {
                        axiom: dep.name.clone(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Full legality check for an extended relational theory:
    ///
    /// 1. every atom occurring in the non-axiomatic section is either
    ///    registered in a completion axiom or a predicate constant (the §2
    ///    "is a disjunct iff appears elsewhere in T" rule);
    /// 2. type axioms reference declared attributes with matching arities
    ///    (enforced structurally at declaration — re-checked here);
    /// 3. the §3.5 invariant: removing the type and dependency axioms does
    ///    not change the models (every instance is entailed).
    ///
    /// Ground-ness and equality-freedom hold by construction ([`Wff`] has
    /// no variables or equality), so they need no runtime check.
    pub fn validate(&mut self) -> Result<(), TheoryError> {
        for a in self.store.live_atoms() {
            let ga = self.atoms.resolve(a);
            let kind = self.vocab.predicate(ga.pred).kind;
            if kind != PredicateKind::PredicateConstant && !self.registry.is_registered(a) {
                return Err(TheoryError::AxiomsNotRedundant {
                    axiom: format!(
                        "atom {} occurs in the section but not in any completion axiom",
                        ga.display(&self.vocab)
                    ),
                });
            }
        }
        for (rel, attrs) in self.schema.type_axioms() {
            let decl = self.vocab.predicate(rel);
            if decl.arity != attrs.len() {
                return Err(TheoryError::TypeAxiomArity {
                    relation: decl.name.clone(),
                    expected: decl.arity,
                    got: attrs.len(),
                });
            }
        }
        self.check_axioms_redundant()
    }

    // ----- reporting -------------------------------------------------------

    /// Current statistics (sizes, counts, the cost-model `R`).
    /// Current size of the non-axiomatic section in AST nodes — the §3.6
    /// store-size measure, exposed as a cheap accessor (no full
    /// [`TheoryStats`] construction) for growth-triggered hooks such as
    /// the WAL's snapshot compaction in `winslett-core`.
    pub fn store_nodes(&self) -> usize {
        self.store.size_nodes()
    }

    pub fn stats(&self) -> TheoryStats {
        let (rebuilds, invalidations, session, learned) = self.session_counters();
        TheoryStats {
            num_formulas: self.store.len(),
            store_nodes: self.store.size_nodes(),
            num_atoms: self.atoms.len(),
            num_registered: self.registry.len(),
            max_predicate_size: self.registry.max_predicate_size(),
            num_constants: self.vocab.num_constants(),
            num_predicates: self.vocab.num_predicates(),
            num_dependencies: self.deps.len(),
            session_rebuilds: rebuilds,
            session_invalidations: invalidations,
            session_assumption_solves: session.assumption_solves,
            session_model_answers: session.model_answers,
            session_encodes: session.encoded_wffs,
            session_encode_reuse_hits: session.encode_reuse_hits,
            session_learned_retained: learned,
        }
    }

    /// Renders a world bitset as sorted atom strings, for display/tests.
    pub fn format_world(&self, world: &BitSet) -> Vec<String> {
        let mut out: Vec<String> = world
            .ones()
            .map(|i| {
                self.atoms
                    .resolve(AtomId(i as u32))
                    .display(&self.vocab)
                    .to_string()
            })
            .collect();
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use winslett_logic::ModelLimit;

    /// The running example of §3.3: atoms a, b with non-axiomatic section
    /// {a, a ∨ b}.
    fn paper_theory() -> (Theory, AtomId, AtomId) {
        let mut t = Theory::new();
        let r = t.declare_relation("Tup", 1).unwrap();
        let ca = t.constant("a");
        let cb = t.constant("b");
        let a = t.atom(r, &[ca]);
        let b = t.atom(r, &[cb]);
        t.assert_wff(&Wff::Atom(a));
        t.assert_wff(&Wff::or2(Wff::Atom(a), Wff::Atom(b)));
        (t, a, b)
    }

    #[test]
    fn paper_theory_has_two_worlds() {
        let (t, a, b) = paper_theory();
        let worlds = t.alternative_worlds(ModelLimit::default()).unwrap();
        assert_eq!(worlds.len(), 2);
        let rendered: Vec<Vec<String>> = worlds.iter().map(|w| t.format_world(w)).collect();
        assert!(rendered.contains(&vec!["Tup(a)".to_string()]));
        assert!(rendered.contains(&vec!["Tup(a)".to_string(), "Tup(b)".to_string()]));
        let _ = (a, b);
    }

    #[test]
    fn unregistered_atoms_are_false_everywhere() {
        let (mut t, _, _) = paper_theory();
        // Intern but never use a third atom: completion forces it false.
        let cc = t.constant("c");
        let r = t.vocab.find_predicate("Tup").unwrap();
        let c = t.atom(r, &[cc]);
        let worlds = t.alternative_worlds(ModelLimit::default()).unwrap();
        assert_eq!(worlds.len(), 2);
        assert!(worlds.iter().all(|w| !w.get(c.index())));
        assert!(!t.consistent_with(&Wff::Atom(c)));
        assert!(t.entails(&Wff::Atom(c).not()));
    }

    #[test]
    fn predicate_constants_are_invisible() {
        let (mut t, a, _) = paper_theory();
        let pc = t.vocab.fresh_predicate_constant();
        let pca = t.atoms.intern(GroundAtom::nullary(pc));
        // p ∨ a: p is free, but projection hides it, so worlds unchanged.
        t.assert_wff(&Wff::or2(Wff::Atom(pca), Wff::Atom(a)));
        let worlds = t.alternative_worlds(ModelLimit::default()).unwrap();
        assert_eq!(worlds.len(), 2);
        assert!(!t.visible_projection().get(pca.index()));
    }

    #[test]
    fn consistency_and_entailment() {
        let (mut t, a, b) = paper_theory();
        assert!(t.is_consistent());
        assert!(t.entails(&Wff::Atom(a)));
        assert!(!t.entails(&Wff::Atom(b)));
        assert!(t.consistent_with(&Wff::Atom(b)));
        assert!(t.consistent_with(&Wff::Atom(b).not()));
        // Make it inconsistent.
        t.assert_wff(&Wff::Atom(a).not());
        assert!(!t.is_consistent());
        assert!(t
            .alternative_worlds(ModelLimit::default())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn atom_by_name_errors() {
        let (mut t, _, _) = paper_theory();
        assert!(matches!(
            t.atom_by_name("Nope", &["a"]),
            Err(TheoryError::UnknownPredicate { .. })
        ));
        assert!(matches!(
            t.atom_by_name("Tup", &["a", "b"]),
            Err(TheoryError::ArityMismatch { .. })
        ));
        assert!(t.atom_by_name("Tup", &["a"]).is_ok());
    }

    #[test]
    fn type_axiom_instance_materializes() {
        let mut t = Theory::new();
        let part = t.declare_attribute("PartNo").unwrap();
        let quan = t.declare_attribute("Quan").unwrap();
        let instock = t.declare_typed_relation("InStock", &[part, quan]).unwrap();
        let c32 = t.constant("32");
        let c5 = t.constant("5");
        let atom = t.atom(instock, &[c32, c5]);
        let inst = t.type_axiom_instance(atom).unwrap();
        // InStock(32,5) → PartNo(32) ∧ Quan(5)
        match inst {
            Wff::Implies(lhs, rhs) => {
                assert_eq!(*lhs, Wff::Atom(atom));
                assert!(matches!(*rhs, Wff::And(ref v) if v.len() == 2));
            }
            other => panic!("unexpected shape {other:?}"),
        }
        // Untyped relations yield no instance.
        let r = t.declare_relation("Untyped", 1).unwrap();
        let u = t.atom(r, &[c32]);
        assert!(t.type_axiom_instance(u).is_none());
    }

    #[test]
    fn axiom_redundancy_check_detects_violation() {
        let mut t = Theory::new();
        let part = t.declare_attribute("PartNo").unwrap();
        let instock = t.declare_typed_relation("InStock1", &[part]).unwrap();
        let c = t.constant("32");
        let atom = t.atom(instock, &[c]);
        // Assert InStock1(32) without PartNo(32): the type axiom instance
        // is not entailed.
        t.assert_atom(atom);
        assert!(matches!(
            t.check_axioms_redundant(),
            Err(TheoryError::AxiomsNotRedundant { .. })
        ));
        // Now assert the attribute too; the instance becomes entailed.
        let pa = t.atom(part, &[c]);
        t.assert_atom(pa);
        assert!(t.check_axioms_redundant().is_ok());
    }

    #[test]
    fn dependency_redundancy_check() {
        use crate::deps::Dependency;
        let mut t = Theory::new();
        let p = t.declare_relation("P", 1).unwrap();
        let q = t.declare_relation("Q", 1).unwrap();
        t.add_dependency(Dependency::inclusion("inc", p, 1, q, &[0]).unwrap());
        let ca = t.constant("a");
        let pa = t.atom(p, &[ca]);
        t.assert_atom(pa);
        // P(a) asserted but P(a) → Q(a) is not entailed (Q(a) unregistered
        // hence false): violation.
        assert!(matches!(
            t.check_axioms_redundant(),
            Err(TheoryError::AxiomsNotRedundant { .. })
        ));
        let qa = t.atom(q, &[ca]);
        t.assert_atom(qa);
        assert!(t.check_axioms_redundant().is_ok());
    }

    #[test]
    fn validate_accepts_legal_theories_and_flags_illegal() {
        let (mut t, _, _) = paper_theory();
        assert!(t.validate().is_ok());
        // GUA residue (predicate constants in the section) is legal.
        let pc = t.vocab.fresh_predicate_constant();
        let pca = t.atoms.intern(GroundAtom::nullary(pc));
        t.store.insert(&Wff::Atom(pca).not());
        assert!(t.validate().is_ok());
        // But a visible atom smuggled into the store without registration
        // violates the completion-axiom rule.
        let r = t.vocab.find_predicate("Tup").unwrap();
        let cz = t.constant("z");
        let z = t.atom(r, &[cz]);
        t.store.insert(&Wff::Atom(z)); // bypasses assert_wff on purpose
        assert!(matches!(
            t.validate(),
            Err(TheoryError::AxiomsNotRedundant { .. })
        ));
    }

    #[test]
    fn stats_reflect_contents() {
        let (t, _, _) = paper_theory();
        let s = t.stats();
        assert_eq!(s.num_formulas, 2);
        assert_eq!(s.num_atoms, 2);
        assert_eq!(s.num_registered, 2);
        assert_eq!(s.max_predicate_size, 2);
        assert!(s.store_nodes >= 4);
    }

    #[test]
    fn generation_bumps_on_every_mutation_class() {
        let mut t = Theory::new();
        let g0 = t.generation();
        let r = t.declare_relation("P", 1).unwrap();
        let g1 = t.generation();
        assert!(g1 > g0, "predicate declaration must bump");
        let c = t.constant("a");
        let g2 = t.generation();
        assert!(g2 > g1, "constant interning must bump");
        let atom = t.atom(r, &[c]);
        let g3 = t.generation();
        assert!(g3 > g2, "atom interning must bump");
        t.register_atom(atom);
        let g4 = t.generation();
        assert!(g4 > g3, "registration must bump");
        let id = t.assert_wff(&Wff::Atom(atom));
        let g5 = t.generation();
        assert!(g5 > g4, "section insert must bump");
        t.store.remove(id);
        let g6 = t.generation();
        assert!(g6 > g5, "section remove must bump");
        t.store.replace_all(&[Wff::Atom(atom)]);
        let g7 = t.generation();
        assert!(g7 > g6, "replace_all must bump");
        let attr = t.declare_attribute("A").unwrap();
        let g8 = t.generation();
        assert!(g8 > g7, "attribute declaration must bump");
        t.declare_typed_relation("Q", &[attr]).unwrap();
        let g9 = t.generation();
        assert!(g9 > g8, "type axiom must bump");
        t.add_dependency(crate::deps::Dependency::inclusion("d", r, 1, r, &[0]).unwrap());
        assert!(t.generation() > g9, "dependency must bump");
        // Read-only operations must not bump.
        let g = t.generation();
        let _ = t.is_consistent();
        let _ = t.stats();
        assert_eq!(t.generation(), g);
    }

    #[test]
    fn advance_generation_past_forces_strict_advance() {
        let (t, _, _) = paper_theory();
        // A clone shares every component counter, so its generation ties
        // the original's — exactly the case the epoch exists to break.
        let mut clone = t.clone();
        assert_eq!(clone.generation(), t.generation());
        clone.advance_generation_past(t.generation());
        assert!(clone.generation() > t.generation());
        // Already past the floor: a no-op, never a regression.
        let g = clone.generation();
        clone.advance_generation_past(0);
        assert_eq!(clone.generation(), g);
        // Large floors are cleared in one step.
        clone.advance_generation_past(g + 1000);
        assert!(clone.generation() > g + 1000);
    }

    #[test]
    fn cached_session_invalidates_on_mutation() {
        let (mut t, a, b) = paper_theory();
        assert!(t.entails(&Wff::Atom(a)));
        assert!(!t.entails(&Wff::Atom(b)));
        // Mutate: the cached session must not serve stale answers.
        t.assert_wff(&Wff::Atom(b));
        assert!(t.entails(&Wff::Atom(b)));
        let stats = t.stats();
        assert_eq!(stats.session_rebuilds, 2);
        assert_eq!(stats.session_invalidations, 1);
        assert!(stats.session_assumption_solves >= 3);
        // Asking the same wff again reuses its activation literal.
        assert!(t.entails(&Wff::Atom(b)));
        assert!(t.stats().session_encode_reuse_hits >= 1);
    }

    #[test]
    fn rename_invalidates_cached_session() {
        let (mut t, a, b) = paper_theory();
        assert!(t.entails(&Wff::Atom(a)));
        // Rename a → b in the section: {b, b ∨ b}; a becomes unregistered
        // only in the store, but the session must re-read the section.
        t.store.rename_atom(a, b);
        assert!(t.entails(&Wff::Atom(b)));
        assert!(!t.entails(&Wff::Atom(a)));
    }

    #[test]
    fn clone_gives_independent_theory() {
        let (mut t, a, _) = paper_theory();
        let snapshot = t.clone();
        t.assert_wff(&Wff::Atom(a).not());
        assert!(!t.is_consistent());
        assert!(snapshot.is_consistent());
    }
}
