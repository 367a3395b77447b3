//! Oracle tests for the incremental entailment session: across random
//! theories, random mutation sequences, and random ground probe wffs, the
//! session-backed `Theory::entails` / `Theory::consistent_with` /
//! `Theory::is_consistent` must agree with one-shot fresh-solver SAT calls
//! over the same model constraints. A second oracle drives one
//! `EntailmentSession` directly, interleaving `decide`, `entails`,
//! `consistent_with` and `assert_base`, so answers read off the models the
//! session already found are checked against one-shot solves too. A
//! separate regression check exercises the generation-counter
//! invalidation through real GUA updates.

use proptest::prelude::*;
use winslett::gua::{GuaEngine, GuaOptions, SimplifyLevel};
use winslett::ldml::Update;
use winslett::logic::{cnf, AtomId, EntailmentSession, Formula, Wff};
use winslett::theory::Theory;

const NUM_ATOMS: usize = 4;

fn wff_strategy() -> impl Strategy<Value = Wff> {
    let leaf = prop_oneof![
        Just(Wff::t()),
        Just(Wff::f()),
        (0..NUM_ATOMS as u32).prop_map(|i| Wff::Atom(AtomId(i))),
        (0..NUM_ATOMS as u32).prop_map(|i| Wff::Atom(AtomId(i)).not()),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|w: Wff| w.not()),
            prop::collection::vec(inner.clone(), 2..4).prop_map(Formula::And),
            prop::collection::vec(inner.clone(), 2..4).prop_map(Formula::Or),
            (inner.clone(), inner).prop_map(|(a, b)| Wff::implies(a, b)),
        ]
    })
}

/// One theory mutation, chosen to cover every sub-counter of
/// `Theory::generation`: the formula store, the completion registry, the
/// atom table, and the constant vocabulary.
#[derive(Clone, Debug)]
enum Mutation {
    /// Assert a wff into the non-axiomatic section.
    AssertWff(Wff),
    /// Remove the oldest still-live formula this test inserted.
    RemoveOldest,
    /// Intern + register a brand-new atom, pinned true or false or left
    /// unknown.
    FreshAtom(Option<bool>),
}

fn mutation_strategy() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        wff_strategy().prop_map(Mutation::AssertWff),
        Just(Mutation::RemoveOldest),
        prop_oneof![Just(None), Just(Some(true)), Just(Some(false))].prop_map(Mutation::FreshAtom),
    ]
}

/// Builds a theory over atoms `0..NUM_ATOMS`, all registered, none pinned.
fn base_theory() -> Theory {
    let mut t = Theory::new();
    let r = t.declare_relation("R", 1).unwrap();
    for i in 0..NUM_ATOMS {
        let c = t.constant(&format!("c{i}"));
        let id = t.atom(r, &[c]);
        assert_eq!(id, AtomId(i as u32));
        t.register_atom(id);
    }
    t
}

/// Checks the three session-backed entry points against one-shot solvers
/// built from the same constraints.
fn assert_matches_oracle(t: &Theory, probes: &[Wff]) -> Result<(), TestCaseError> {
    let refs = t.model_constraints();
    let ref_slices: Vec<&Wff> = refs.iter().collect();
    let n = t.num_atoms();
    prop_assert_eq!(t.is_consistent(), cnf::satisfiable(&ref_slices, n));
    for w in probes {
        prop_assert_eq!(
            t.entails(w),
            cnf::entails(&ref_slices, w, n),
            "entails diverges on {:?}",
            w
        );
        let mut with_w = ref_slices.clone();
        with_w.push(w);
        prop_assert_eq!(
            t.consistent_with(w),
            cnf::satisfiable(&with_w, n),
            "consistent_with diverges on {:?}",
            w
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The session answers exactly like fresh solvers at every point of a
    /// random mutation sequence — the cached session is either reused
    /// (generation unchanged) or correctly rebuilt (generation bumped),
    /// never stale.
    #[test]
    fn session_matches_fresh_solvers_across_mutations(
        initial in prop::collection::vec(wff_strategy(), 0..3),
        script in prop::collection::vec(
            (mutation_strategy(), prop::collection::vec(wff_strategy(), 1..3)),
            1..5,
        ),
        probes in prop::collection::vec(wff_strategy(), 1..4),
    ) {
        let mut t = base_theory();
        let mut inserted = Vec::new();
        for w in &initial {
            inserted.push(t.assert_wff(w));
        }
        assert_matches_oracle(&t, &probes)?;
        let mut fresh = 0u32;
        for (m, step_probes) in &script {
            match m {
                Mutation::AssertWff(w) => {
                    inserted.push(t.assert_wff(w));
                }
                Mutation::RemoveOldest => {
                    if !inserted.is_empty() {
                        t.store.remove(inserted.remove(0));
                    }
                }
                Mutation::FreshAtom(pin) => {
                    let r = t.vocab.find_predicate("R").unwrap();
                    let c = t.constant(&format!("f{fresh}"));
                    fresh += 1;
                    let a = t.atom(r, &[c]);
                    t.register_atom(a);
                    match pin {
                        Some(true) => {
                            t.assert_atom(a);
                        }
                        Some(false) => {
                            t.assert_not_atom(a);
                        }
                        None => {}
                    }
                }
            }
            assert_matches_oracle(&t, step_probes)?;
        }
        assert_matches_oracle(&t, &probes)?;
    }
}

/// One call on a raw entailment session.
#[derive(Clone, Debug)]
enum SessionOp {
    Decide(Wff),
    Entails(Wff),
    ConsistentWith(Wff),
    AssertBase(Wff),
}

fn session_op_strategy() -> impl Strategy<Value = SessionOp> {
    prop_oneof![
        wff_strategy().prop_map(SessionOp::Decide),
        wff_strategy().prop_map(SessionOp::Entails),
        wff_strategy().prop_map(SessionOp::ConsistentWith),
        wff_strategy().prop_map(SessionOp::AssertBase),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A session answers every question exactly as a one-shot solver over
    /// its current base does, whether it solved or read the answer off a
    /// model an earlier solve found, and however base assertions are
    /// interleaved with the questions. Each probe is asked twice in a row,
    /// so the second answer can come from a known model.
    #[test]
    fn session_calls_interleaved_with_base_growth_match_oneshot_cnf(
        initial in prop::collection::vec(wff_strategy(), 0..3),
        script in prop::collection::vec(session_op_strategy(), 1..24),
    ) {
        let mut base = initial.clone();
        let mut s = EntailmentSession::with_base(NUM_ATOMS, initial.iter());
        for op in &script {
            let refs: Vec<&Wff> = base.iter().collect();
            let possible = |w: &Wff| {
                let mut with_w = refs.clone();
                with_w.push(w);
                cnf::satisfiable(&with_w, NUM_ATOMS)
            };
            for _ in 0..2 {
                match op {
                    SessionOp::Decide(w) => {
                        let p = possible(w);
                        let want = (p, p && cnf::entails(&refs, w, NUM_ATOMS));
                        prop_assert_eq!(s.decide(w), want, "decide({:?}) over {:?}", w, base);
                    }
                    SessionOp::Entails(w) => prop_assert_eq!(
                        s.entails(w),
                        cnf::entails(&refs, w, NUM_ATOMS),
                        "entails({:?}) over {:?}", w, base
                    ),
                    SessionOp::ConsistentWith(w) => prop_assert_eq!(
                        s.consistent_with(w),
                        possible(w),
                        "consistent_with({:?}) over {:?}", w, base
                    ),
                    SessionOp::AssertBase(_) => {}
                }
            }
            if let SessionOp::AssertBase(w) = op {
                s.assert_base(w);
                base.push(w.clone());
            }
        }
        let stats = s.stats();
        prop_assert_eq!(stats.base_wffs as usize, base.len());
    }
}

/// The cached session survives interleaved GUA updates: every update
/// rewrites the store (and may intern atoms), so each query batch after an
/// update must see a rebuilt session, never a stale one.
#[test]
fn session_survives_interleaved_gua_updates() {
    let t = base_theory();
    let probes: Vec<Wff> = (0..NUM_ATOMS as u32)
        .map(|i| Wff::Atom(AtomId(i)))
        .collect();
    let updates = [
        Update::insert(Wff::Atom(AtomId(0)), Wff::t()),
        Update::insert(
            Wff::or2(Wff::Atom(AtomId(1)), Wff::Atom(AtomId(2))),
            Wff::Atom(AtomId(0)),
        ),
        Update::delete(AtomId(0), Wff::t()),
        Update::assert(Wff::or2(Wff::Atom(AtomId(2)), Wff::Atom(AtomId(3)))),
    ];
    let mut engine = GuaEngine::new(t, GuaOptions::simplify_always(SimplifyLevel::Fast));
    let check = |t: &Theory| {
        let refs = t.model_constraints();
        let ref_slices: Vec<&Wff> = refs.iter().collect();
        let n = t.num_atoms();
        assert_eq!(t.is_consistent(), cnf::satisfiable(&ref_slices, n));
        for w in &probes {
            assert_eq!(t.entails(w), cnf::entails(&ref_slices, w, n), "{w:?}");
            let mut with_w = ref_slices.clone();
            with_w.push(w);
            assert_eq!(t.consistent_with(w), cnf::satisfiable(&with_w, n), "{w:?}");
        }
    };
    check(&engine.theory);
    for u in &updates {
        engine.apply(u).expect("update applies");
        check(&engine.theory);
    }
    let stats = engine.theory.stats();
    assert!(
        stats.session_rebuilds >= 2,
        "interleaved updates must force session rebuilds, got {}",
        stats.session_rebuilds
    );
    assert!(
        stats.session_invalidations >= 1,
        "at least one cached session must have been invalidated, got {}",
        stats.session_invalidations
    );
}
