//! Property tests for the logic kernel: the invariants everything above
//! the substrate relies on.

use proptest::prelude::*;
use winslett_logic::cnf::{self, Tseitin};
use winslett_logic::{
    display_wff, enumerate_models, enumerate_models_brute, parse_wff, AtomTable, BitSet, Formula,
    Lit, ModelLimit, ParseContext, Polarity, SatResult, Solver, Var, Vocabulary, Wff,
};
use winslett_logic::{AtomId, Valuation};

const NUM_ATOMS: usize = 5;

fn wff_strategy() -> impl Strategy<Value = Wff> {
    let leaf = prop_oneof![
        Just(Wff::t()),
        Just(Wff::f()),
        (0..NUM_ATOMS as u32).prop_map(|i| Wff::Atom(AtomId(i))),
    ];
    leaf.prop_recursive(4, 32, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|w: Wff| w.not()),
            prop::collection::vec(inner.clone(), 2..4).prop_map(Formula::And),
            prop::collection::vec(inner.clone(), 2..4).prop_map(Formula::Or),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Wff::implies(a, b)),
            (inner.clone(), inner).prop_map(|(a, b)| Wff::iff(a, b)),
        ]
    })
}

/// Assignments as bitmasks over the fixed atom range.
fn eval_mask(w: &Wff, mask: u32) -> bool {
    w.eval(&mut |a: &AtomId| (mask >> a.0) & 1 == 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// print → parse is the identity on the AST (atoms are re-interned to
    /// the same ids because the table is shared).
    #[test]
    fn printer_parser_roundtrip(w in wff_strategy()) {
        let mut vocab = Vocabulary::new();
        let mut atoms = AtomTable::new();
        // Pre-intern atoms 0..NUM_ATOMS in order.
        {
            let mut ctx = ParseContext::permissive(&mut vocab, &mut atoms);
            for i in 0..NUM_ATOMS {
                let src = format!("A{i}");
                let parsed = parse_wff(&src, &mut ctx).unwrap();
                prop_assert_eq!(parsed, Wff::Atom(AtomId(i as u32)));
            }
        }
        let printed = display_wff(&w, &vocab, &atoms).to_string();
        let mut ctx = ParseContext::permissive(&mut vocab, &mut atoms);
        let reparsed = parse_wff(&printed, &mut ctx).unwrap();
        prop_assert_eq!(&w, &reparsed, "printed as `{}`", printed);
    }

    /// fold_constants preserves semantics and removes all internal Truth
    /// nodes.
    #[test]
    fn fold_constants_preserves_semantics(w in wff_strategy()) {
        let folded = w.fold_constants();
        for mask in 0u32..(1 << NUM_ATOMS) {
            prop_assert_eq!(eval_mask(&w, mask), eval_mask(&folded, mask));
        }
        // No Truth leaf unless the whole formula is Truth.
        if !matches!(folded, Formula::Truth(_)) {
            let mut has_truth = false;
            fn scan(w: &Wff, found: &mut bool) {
                match w {
                    Formula::Truth(_) => *found = true,
                    Formula::Atom(_) => {}
                    Formula::Not(x) => scan(x, found),
                    Formula::And(xs) | Formula::Or(xs) => xs.iter().for_each(|x| scan(x, found)),
                    Formula::Implies(a, b) | Formula::Iff(a, b) => {
                        scan(a, found);
                        scan(b, found);
                    }
                }
            }
            scan(&folded, &mut has_truth);
            prop_assert!(!has_truth, "internal Truth in {:?}", folded);
        }
    }

    /// Shannon expansion: w ≡ (a ∧ w[a:=T]) ∨ (¬a ∧ w[a:=F]).
    #[test]
    fn shannon_expansion(w in wff_strategy(), i in 0..NUM_ATOMS as u32) {
        let a = AtomId(i);
        let expansion = Wff::or2(
            Wff::and2(Wff::Atom(a), w.assign(a, true)),
            Wff::and2(Wff::Atom(a).not(), w.assign(a, false)),
        );
        for mask in 0u32..(1 << NUM_ATOMS) {
            prop_assert_eq!(eval_mask(&w, mask), eval_mask(&expansion, mask));
        }
    }

    /// One simultaneous `assign_with` builds the same tree as a chain of
    /// single-atom `assign`s over the same atoms, in either order: the
    /// identity the simplifier's one-walk unit propagation relies on.
    #[test]
    fn assign_with_equals_chained_assigns(
        w in wff_strategy(),
        set in 0u32..(1 << NUM_ATOMS),
        values in 0u32..(1 << NUM_ATOMS),
    ) {
        let bit = |m: u32, i: u32| (m >> i) & 1 == 1;
        let simultaneous = w.assign_with(|a: &AtomId| bit(set, a.0).then_some(bit(values, a.0)));
        let chain = |order: Vec<u32>| {
            order
                .into_iter()
                .filter(|&i| bit(set, i))
                .fold(w.fold_constants(), |acc, i| acc.assign(AtomId(i), bit(values, i)))
        };
        prop_assert_eq!(&simultaneous, &chain((0..NUM_ATOMS as u32).collect()));
        prop_assert_eq!(&simultaneous, &chain((0..NUM_ATOMS as u32).rev().collect()));
    }

    /// `polarities` lists `atom_set` in order with `polarity_of` beside
    /// each atom, and a one-sided polarity is semantically sound: `w` is
    /// monotone in a `Positive` atom and antitone in a `Negative` one
    /// (what pure predicate-constant elimination relies on).
    #[test]
    fn polarities_are_sound_and_ordered(w in wff_strategy()) {
        let listed = w.polarities();
        let expected: Vec<(AtomId, Polarity)> = w
            .atom_set()
            .into_iter()
            .map(|a| (a, w.polarity_of(a).expect("occurs")))
            .collect();
        prop_assert_eq!(&listed, &expected);
        for (a, p) in listed {
            let (lo, hi) = (w.assign(a, false), w.assign(a, true));
            for mask in 0u32..(1 << NUM_ATOMS) {
                let (l, h) = (eval_mask(&lo, mask), eval_mask(&hi, mask));
                match p {
                    Polarity::Positive => prop_assert!(!l || h, "{:?} not monotone in {:?}", w, a),
                    Polarity::Negative => prop_assert!(!h || l, "{:?} not antitone in {:?}", w, a),
                    Polarity::Both => {}
                }
            }
        }
    }

    /// Tseitin encoding is satisfiability-faithful under every full atom
    /// assignment.
    #[test]
    fn tseitin_is_faithful(w in wff_strategy()) {
        for mask in 0u32..(1 << NUM_ATOMS) {
            let expected = eval_mask(&w, mask);
            let mut ts = Tseitin::new(NUM_ATOMS);
            ts.assert_true(&w);
            let mut solver = ts.finish().into_solver();
            for v in 0..NUM_ATOMS {
                solver.add_clause(&[Lit::new(Var(v as u32), (mask >> v) & 1 == 1)]);
            }
            prop_assert_eq!(solver.solve().is_sat(), expected);
        }
    }

    /// SAT-based model enumeration agrees with the brute-force sweep under
    /// arbitrary projections.
    #[test]
    fn enumeration_agrees_with_brute_force(
        wffs in prop::collection::vec(wff_strategy(), 1..4),
        proj_mask in 0u32..(1 << NUM_ATOMS),
    ) {
        let refs: Vec<&Wff> = wffs.iter().collect();
        let proj: BitSet = (0..NUM_ATOMS).filter(|i| (proj_mask >> i) & 1 == 1).collect();
        let sat = enumerate_models(&refs, NUM_ATOMS, &proj, ModelLimit::default()).unwrap();
        let brute = enumerate_models_brute(&refs, NUM_ATOMS, &proj).unwrap();
        prop_assert_eq!(sat, brute);
    }

    /// cnf::valid / satisfiable / entails are mutually consistent.
    #[test]
    fn validity_satisfiability_duality(w in wff_strategy()) {
        let valid = cnf::valid(&w, NUM_ATOMS);
        let neg_sat = cnf::satisfiable(&[&w.clone().not()], NUM_ATOMS);
        prop_assert_eq!(valid, !neg_sat);
        // T entails w iff w is valid.
        prop_assert_eq!(cnf::entails(&[], &w, NUM_ATOMS), valid);
        // w entails w.
        prop_assert!(cnf::entails(&[&w], &w, NUM_ATOMS));
    }

    /// rename_atom then rename back is the identity (when the intermediate
    /// atom is fresh).
    #[test]
    fn rename_roundtrip(w in wff_strategy(), i in 0..NUM_ATOMS as u32) {
        let fresh = AtomId(100);
        let renamed = w.rename_atom(AtomId(i), fresh);
        prop_assert!(!renamed.contains_atom(AtomId(i)));
        let back = renamed.rename_atom(fresh, AtomId(i));
        prop_assert_eq!(w, back);
    }

    /// BitSet set/toggle/count invariants.
    #[test]
    fn bitset_invariants(indices in prop::collection::vec(0usize..512, 0..64)) {
        let mut b = BitSet::new();
        let mut reference = std::collections::BTreeSet::new();
        for &i in &indices {
            if reference.contains(&i) {
                b.set(i, false);
                reference.remove(&i);
            } else {
                b.set(i, true);
                reference.insert(i);
            }
        }
        prop_assert_eq!(b.count_ones(), reference.len());
        prop_assert_eq!(b.ones().collect::<Vec<_>>(), reference.iter().copied().collect::<Vec<_>>());
        let rebuilt: BitSet = reference.iter().copied().collect();
        prop_assert_eq!(b, rebuilt);
    }

    /// Valuation projection and extension laws.
    #[test]
    fn valuation_laws(assignments in prop::collection::vec((0u32..64, any::<bool>()), 0..32)) {
        let v: Valuation = assignments.iter().map(|&(i, b)| (AtomId(i), b)).collect();
        // project onto the full domain = identity.
        let full: BitSet = (0..64usize).collect();
        prop_assert_eq!(v.project(&full), v.clone());
        // v extends every projection of itself.
        let half: BitSet = (0..32usize).collect();
        let p = v.project(&half);
        prop_assert!(v.extends(&p));
        prop_assert!(p.agrees_with(&v));
    }
}

/// A solver-level soak: random CNF instances cross-checked against a
/// truth-table oracle, with blocking-clause reuse after SAT results.
#[test]
fn solver_soak_with_blocking() {
    let mut state = 0x5EED_u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for _ in 0..300 {
        let nv = 2 + (next() % 7) as usize;
        let nc = 1 + (next() % 20) as usize;
        let mut clauses: Vec<Vec<Lit>> = Vec::new();
        for _ in 0..nc {
            let width = 1 + (next() % 3) as usize;
            let clause: Vec<Lit> = (0..width)
                .map(|_| Lit::new(Var((next() % nv as u64) as u32), next() % 2 == 0))
                .collect();
            clauses.push(clause);
        }
        // Count models with the solver (blocking) and by brute force.
        let mut solver = Solver::new(nv);
        let mut ok = true;
        for c in &clauses {
            ok &= solver.add_clause(c);
        }
        let mut solver_models = 0usize;
        if ok || solver.solve().is_sat() {
            loop {
                match solver.solve() {
                    SatResult::Unsat => break,
                    SatResult::Sat(m) => {
                        solver_models += 1;
                        let block: Vec<Lit> = m
                            .iter()
                            .enumerate()
                            .map(|(i, &b)| Lit::new(Var(i as u32), !b))
                            .collect();
                        if !solver.add_clause(&block) {
                            break;
                        }
                    }
                }
            }
        }
        let mut brute_models = 0usize;
        'outer: for mask in 0u32..(1 << nv) {
            for c in &clauses {
                if !c
                    .iter()
                    .any(|l| ((mask >> l.var().0) & 1 == 1) == l.is_pos())
                {
                    continue 'outer;
                }
            }
            brute_models += 1;
        }
        assert_eq!(solver_models, brute_models, "clauses: {clauses:?}");
    }
}
