//! Heuristic simplification of extended relational theories (§4).
//!
//! "As they grow steadily longer under the update algorithms … it is in
//! large part the possibility of heuristic simplification that makes the
//! LDML algorithms more attractive than simply keeping a record of past
//! updates and recomputing the state of the theory on each new query. A
//! heuristic algorithm for simplification will be a vital part of any
//! implementation."
//!
//! Every pass here preserves the **alternative worlds** of the theory:
//!
//! * constant folding, unit propagation, duplicate removal, and
//!   tautology dropping preserve logical equivalence of the non-axiomatic
//!   section — which, per the closing remark of §3.4, is exactly what
//!   preserves the alternative-world set;
//! * predicate constants are existentially quantified from the user's
//!   standpoint (they are invisible in worlds), so a predicate constant `p`
//!   of *pure polarity* may be assigned its favourable value
//!   (`∃p F ≡ F[p:=T]` when `F` is monotone in `p`), and a `p` confined to
//!   a single formula `f` may be eliminated by Shannon expansion
//!   (`∃p f ≡ f[p:=T] ∨ f[p:=F]`);
//! * at [`SimplifyLevel::Full`], a predicate constant *spanning* a small
//!   group of formulas is eliminated by Shannon-expanding the group's
//!   conjunction (`∃p (f₁∧…∧fₖ) ≡ (∧f)[p:=T] ∨ (∧f)[p:=F]`) — this is what
//!   reclaims the chained frame residue a long uncertain-update history
//!   leaves behind — and a formula entailed by the remaining formulas is
//!   removed (SAT-checked), again preserving equivalence.
//!
//! The world-preservation property is verified against the possible-worlds
//! baseline over randomized theories in the integration tests (E6's
//! soundness leg).

use rustc_hash::{FxHashMap, FxHashSet};
use winslett_logic::{AtomId, EntailmentSession, Formula, Polarity, PredicateKind, Wff};
use winslett_theory::Theory;

/// How aggressively to simplify.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SimplifyLevel {
    /// Leave the theory exactly as GUA produced it.
    None,
    /// Constant folding, unit propagation, duplicate removal, pure/confined
    /// predicate-constant elimination. Linear-ish, no SAT calls.
    Fast,
    /// Everything in `Fast`, plus SAT-backed removal of formulas entailed
    /// by the rest of the section.
    Full,
}

/// What a simplification pass accomplished.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct SimplifyReport {
    /// Store nodes before.
    pub nodes_before: usize,
    /// Store nodes after.
    pub nodes_after: usize,
    /// Live formulas before.
    pub formulas_before: usize,
    /// Live formulas after.
    pub formulas_after: usize,
    /// Unit-propagation work: the number of (formula, unit atom) pairs
    /// substituted, plus the literals forced-literal extraction split out
    /// of small formulas. A count of work, not of output: two passes that
    /// store the same section may report different counts.
    pub units_propagated: usize,
    /// Predicate constants eliminated (pure or confined).
    pub pcs_eliminated: usize,
    /// Formulas removed as entailed by the rest (`Full` only).
    pub redundant_removed: usize,
}

/// Runs a simplification pass over the theory's non-axiomatic section.
pub fn simplify(theory: &mut Theory, level: SimplifyLevel) -> SimplifyReport {
    let mut report = SimplifyReport {
        nodes_before: theory.store.size_nodes(),
        formulas_before: theory.store.len(),
        ..SimplifyReport::default()
    };
    if level == SimplifyLevel::None {
        report.nodes_after = report.nodes_before;
        report.formulas_after = report.formulas_before;
        return report;
    }

    let mut wffs: Vec<Wff> = theory
        .store
        .wffs()
        .iter()
        .map(Formula::fold_constants)
        .filter(|w| *w != Wff::t())
        .collect();

    let is_pc = |theory: &Theory, a: AtomId| {
        theory.vocab.predicate(theory.atoms.resolve(a).pred).kind
            == PredicateKind::PredicateConstant
    };

    // Smallest coherent state seen across spanning rounds, with the
    // pcs_eliminated count that produced it: (total nodes, wffs, count).
    let mut best: Option<(usize, Vec<Wff>, usize)> = None;

    'rounds: loop {
        loop {
            let mut changed = false;

            // ---- inconsistency short-circuit -----------------------------
            if wffs.iter().any(|w| *w == Wff::f()) {
                wffs = vec![Wff::f()];
                break 'rounds;
            }

            // ---- unit propagation ----------------------------------------
            let mut units: FxHashMap<AtomId, bool> = FxHashMap::default();
            let mut conflict = false;
            for w in &wffs {
                let (atom, value) = match w {
                    Formula::Atom(a) => (*a, true),
                    Formula::Not(inner) => match inner.as_ref() {
                        Formula::Atom(a) => (*a, false),
                        _ => continue,
                    },
                    _ => continue,
                };
                if let Some(prev) = units.insert(atom, value) {
                    if prev != value {
                        conflict = true;
                        break;
                    }
                }
            }
            if conflict {
                wffs = vec![Wff::f()];
                break 'rounds;
            }
            if !units.is_empty() {
                // One walk finds the units a formula mentions; one
                // simultaneous assignment then rewrites it.
                let mut hits: Vec<AtomId> = Vec::new();
                let mut next: Vec<Wff> = Vec::with_capacity(wffs.len());
                for w in wffs.drain(..) {
                    let unit_shape = matches!(&w, Formula::Atom(_))
                        || matches!(&w, Formula::Not(x) if matches!(x.as_ref(), Formula::Atom(_)));
                    if unit_shape {
                        next.push(w);
                        continue;
                    }
                    hits.clear();
                    w.for_each_atom(&mut |a| {
                        if units.contains_key(a) {
                            hits.push(*a);
                        }
                    });
                    let rewritten = if hits.is_empty() {
                        w
                    } else {
                        hits.sort_unstable();
                        hits.dedup();
                        report.units_propagated += hits.len();
                        changed = true;
                        w.assign_with(|a| units.get(a).copied())
                    };
                    if rewritten != Wff::t() {
                        next.push(rewritten);
                    }
                }
                wffs = next;
            }

            // ---- forced-literal extraction ---------------------------------
            // For small formulas, split out literals the formula itself forces:
            // f ≡ lit₁ ∧ … ∧ litₖ ∧ f[lits], which turns hidden certainties
            // (e.g. `a ∧ (b ∨ c)` after cofactoring) into units the next round
            // can propagate.
            {
                let mut extracted: Vec<Wff> = Vec::new();
                for w in &mut wffs {
                    let unit_shape = matches!(&*w, Formula::Atom(_))
                        || matches!(&*w, Formula::Not(x) if matches!(x.as_ref(), Formula::Atom(_)));
                    if unit_shape {
                        continue;
                    }
                    if let Some(forced) = winslett_logic::forced_literals(w, 8) {
                        if forced.is_empty() {
                            continue;
                        }
                        let mut reduced = w.clone();
                        for &(a, v) in &forced {
                            reduced = reduced.assign(a, v);
                            extracted.push(if v { Wff::Atom(a) } else { Wff::Atom(a).not() });
                            report.units_propagated += 1;
                        }
                        *w = reduced;
                        changed = true;
                    }
                }
                wffs.extend(extracted);
                if changed {
                    wffs.retain(|w| *w != Wff::t());
                }
            }

            // ---- duplicate removal ----------------------------------------
            {
                let mut seen: FxHashSet<&Wff> = FxHashSet::default();
                let keep: Vec<bool> = wffs.iter().map(|w| seen.insert(w)).collect();
                if keep.contains(&false) {
                    let mut keep = keep.into_iter();
                    wffs.retain(|_| keep.next().unwrap_or(true));
                    changed = true;
                }
            }

            // ---- predicate-constant elimination ----------------------------
            // Pure polarity: assign the favourable value.
            let mut polarity: FxHashMap<AtomId, Polarity> = FxHashMap::default();
            let mut occurrences: FxHashMap<AtomId, usize> = FxHashMap::default();
            for (idx, w) in wffs.iter().enumerate() {
                for (a, p) in w.polarities() {
                    if !is_pc(theory, a) {
                        continue;
                    }
                    polarity
                        .entry(a)
                        .and_modify(|q| {
                            if *q != p {
                                *q = Polarity::Both;
                            }
                        })
                        .or_insert(p);
                    // Track the single formula index holding the atom, encoded
                    // as idx+1; 0 = multiple.
                    occurrences
                        .entry(a)
                        .and_modify(|e| {
                            if *e != idx + 1 {
                                *e = 0;
                            }
                        })
                        .or_insert(idx + 1);
                }
            }
            let mut assigned: FxHashMap<AtomId, bool> = FxHashMap::default();
            for (&a, &p) in &polarity {
                match p {
                    Polarity::Positive => {
                        assigned.insert(a, true);
                    }
                    Polarity::Negative => {
                        assigned.insert(a, false);
                    }
                    Polarity::Both => {}
                }
            }
            if !assigned.is_empty() {
                report.pcs_eliminated += assigned.len();
                changed = true;
                let mut next: Vec<Wff> = Vec::with_capacity(wffs.len());
                for w in wffs.drain(..) {
                    let mut mentioned = false;
                    w.for_each_atom(&mut |a| mentioned |= assigned.contains_key(a));
                    let rewritten = if mentioned {
                        w.assign_with(|a| assigned.get(a).copied())
                    } else {
                        w
                    };
                    if rewritten != Wff::t() {
                        next.push(rewritten);
                    }
                }
                wffs = next;
            } else {
                // Confined predicate constants: Shannon-expand within their
                // single formula (skip oversized formulas to avoid blow-up).
                let confined: Vec<(AtomId, usize)> = occurrences
                    .iter()
                    .filter(|&(a, &idx1)| idx1 != 0 && polarity.get(a) == Some(&Polarity::Both))
                    .map(|(&a, &idx1)| (a, idx1 - 1))
                    .collect();
                for (a, idx) in confined {
                    if idx >= wffs.len() || wffs[idx].size() > 64 {
                        continue;
                    }
                    let f = &wffs[idx];
                    if !f.contains_atom(a) {
                        continue; // already rewritten this round
                    }
                    let expanded = Wff::or2(f.assign(a, true), f.assign(a, false));
                    wffs[idx] = expanded;
                    report.pcs_eliminated += 1;
                    changed = true;
                }
                // Drop any formulas that folded to T.
                let before = wffs.len();
                wffs.retain(|w| *w != Wff::t());
                if wffs.len() != before {
                    changed = true;
                }
            }

            if !changed {
                break;
            }
        }

        if level != SimplifyLevel::Full {
            break;
        }

        // The inner fixpoint has converged, so this state is a coherent
        // local minimum; remember the smallest one. The spanning expansion
        // below may grow the section transiently while a chain collapses —
        // if the cascade never pays off, the final answer reverts to the
        // best state, so `Full` can never hand back a bigger store than
        // the cheap fixpoint alone produced.
        let size: usize = wffs.iter().map(|w| w.size()).sum();
        if best.as_ref().is_none_or(|(s, _, _)| size < *s) {
            best = Some((size, wffs.clone(), report.pcs_eliminated));
        }

        // ---- Full: spanning predicate-constant elimination ---------------
        // A constant chained across several formulas (the frame residue a
        // long uncertain-update history leaves behind) defeats both the
        // pure-polarity and the confined passes: it occurs in two or more
        // formulas with both polarities. Each elimination removes at least
        // one distinct predicate constant from the section, so the round
        // loop terminates.
        if !eliminate_spanning_pcs(theory, &mut wffs, &mut report) {
            break;
        }
    }

    // Revert to the best coherent state if the spanning cascade ended up
    // net-negative (an entangled constant whose expansion never folded).
    if let Some((size, saved, pcs)) = best {
        let current: usize = wffs.iter().map(|w| w.size()).sum();
        if current > size {
            wffs = saved;
            report.pcs_eliminated = pcs;
        }
    }

    // ---- Full: entailment-based redundancy removal -----------------------
    if level == SimplifyLevel::Full && wffs.len() > 1 {
        // One session encodes every wff once behind a selector literal;
        // each absorption check "do the other alive wffs entail wff i?"
        // is then a single assumption-solve under {s_j : j ≠ i alive} ∪
        // {¬s_i} — n solves total where the fresh-solver approach paid
        // O(n²) encodings. Duplicate wffs share a selector, which makes
        // the assumption set contradictory and the verdict `removed`,
        // matching what entailment-by-an-identical-copy concluded before.
        let mut session = EntailmentSession::new(theory.num_atoms());
        let selectors: Vec<_> = wffs.iter().map(|w| session.literal_for(w)).collect();
        // Largest formulas first: removing a big one is worth more.
        let mut order: Vec<usize> = (0..wffs.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(wffs[i].size()));
        let mut removed: Vec<bool> = vec![false; wffs.len()];
        for &i in &order {
            let mut assumptions: Vec<_> = (0..wffs.len())
                .filter(|&j| j != i && !removed[j])
                .map(|j| selectors[j])
                .collect();
            assumptions.push(selectors[i].negate());
            if !session.satisfiable_under(&assumptions) {
                removed[i] = true;
                report.redundant_removed += 1;
            }
        }
        wffs = wffs
            .into_iter()
            .zip(removed)
            .filter(|(_, r)| !r)
            .map(|(w, _)| w)
            .collect();
    }

    theory.store.replace_all(&wffs);
    report.nodes_after = theory.store.size_nodes();
    report.formulas_after = theory.store.len();
    report
}

/// Existentially eliminates predicate constants that span a small group of
/// formulas: `∃p (f₁ ∧ … ∧ fₖ) ≡ (∧f)[p:=T] ∨ (∧f)[p:=F]`. The group's
/// formulas are replaced by the folded expansion. Bounded by formula count
/// and total group size so a genuinely entangled constant is left alone
/// rather than blowing the store up; a single batch may still grow the
/// section transiently (a chain collapse pays off only after several
/// rounds), which is why `simplify` keeps the smallest coherent state seen
/// and reverts to it if the cascade never converges below it. Returns
/// whether anything was eliminated; callers should re-run the cheap
/// fixpoint afterwards to fold and propagate what the expansion exposed.
fn eliminate_spanning_pcs(
    theory: &Theory,
    wffs: &mut Vec<Wff>,
    report: &mut SimplifyReport,
) -> bool {
    /// Most formulas a group may have before the constant is left alone.
    const MAX_GROUP_FORMULAS: usize = 4;
    /// Largest total node count of a group's formulas; the expansion is at
    /// most twice this before folding.
    const MAX_GROUP_NODES: usize = 128;

    let mut occurrences: FxHashMap<AtomId, Vec<usize>> = FxHashMap::default();
    for (idx, w) in wffs.iter().enumerate() {
        for a in w.atom_set() {
            if theory.vocab.predicate(theory.atoms.resolve(a).pred).kind
                == PredicateKind::PredicateConstant
            {
                occurrences.entry(a).or_default().push(idx);
            }
        }
    }
    // Cheapest groups first; the AtomId tiebreak keeps runs deterministic.
    let mut candidates: Vec<(usize, AtomId)> = occurrences
        .iter()
        .filter(|(_, idxs)| idxs.len() >= 2 && idxs.len() <= MAX_GROUP_FORMULAS)
        .map(|(&a, idxs)| (idxs.iter().map(|&i| wffs[i].size()).sum::<usize>(), a))
        .filter(|&(cost, _)| cost <= MAX_GROUP_NODES)
        .collect();
    candidates.sort_unstable();

    let mut consumed: FxHashSet<usize> = FxHashSet::default();
    let mut fresh: Vec<Wff> = Vec::new();
    let mut any = false;
    for (_, a) in candidates {
        let idxs = &occurrences[&a];
        // Groups must be disjoint within a batch: a consumed formula's
        // replacement may no longer mention this constant at all.
        if idxs.iter().any(|i| consumed.contains(i)) {
            continue;
        }
        let Some(conjunction) = idxs.iter().map(|&i| wffs[i].clone()).reduce(Wff::and2) else {
            continue;
        };
        let expanded =
            Wff::or2(conjunction.assign(a, true), conjunction.assign(a, false)).fold_constants();
        consumed.extend(idxs.iter().copied());
        if expanded != Wff::t() {
            fresh.push(expanded);
        }
        report.pcs_eliminated += 1;
        any = true;
    }
    if any {
        let mut next: Vec<Wff> = wffs
            .iter()
            .enumerate()
            .filter(|(i, _)| !consumed.contains(i))
            .map(|(_, w)| w.clone())
            .collect();
        next.append(&mut fresh);
        *wffs = next;
    }
    any
}

#[cfg(test)]
mod tests {
    use super::*;
    use winslett_logic::{GroundAtom, ModelLimit};

    fn fixture() -> (Theory, AtomId, AtomId) {
        let mut t = Theory::new();
        let r = t.declare_relation("R", 1).unwrap();
        let ca = t.constant("a");
        let cb = t.constant("b");
        let a = t.atom(r, &[ca]);
        let b = t.atom(r, &[cb]);
        (t, a, b)
    }

    fn worlds(t: &Theory) -> Vec<winslett_logic::BitSet> {
        t.alternative_worlds(ModelLimit::default()).unwrap()
    }

    #[test]
    fn folding_removes_tautologies() {
        let (mut t, a, _) = fixture();
        t.assert_wff(&Wff::implies(Wff::f(), Wff::Atom(a))); // ≡ T
        t.assert_atom(a);
        let before = worlds(&t);
        let report = simplify(&mut t, SimplifyLevel::Fast);
        assert_eq!(report.formulas_after, 1);
        assert_eq!(worlds(&t), before);
    }

    #[test]
    fn unit_propagation_shrinks() {
        let (mut t, a, b) = fixture();
        t.assert_atom(a);
        t.assert_wff(&Wff::or2(Wff::Atom(a).not(), Wff::Atom(b))); // a → b
        let before = worlds(&t);
        let report = simplify(&mut t, SimplifyLevel::Fast);
        assert!(report.units_propagated > 0);
        // a, and b as a propagated unit.
        let wffs = t.store.wffs();
        assert!(wffs.contains(&Wff::Atom(a)));
        assert!(wffs.contains(&Wff::Atom(b)));
        assert_eq!(worlds(&t), before);
    }

    #[test]
    fn conflicting_units_collapse_to_false() {
        let (mut t, a, _) = fixture();
        t.assert_atom(a);
        t.assert_not_atom(a);
        simplify(&mut t, SimplifyLevel::Fast);
        assert_eq!(t.store.wffs(), vec![Wff::f()]);
        assert!(worlds(&t).is_empty());
    }

    #[test]
    fn duplicates_removed() {
        let (mut t, a, b) = fixture();
        let w = Wff::or2(Wff::Atom(a), Wff::Atom(b));
        t.assert_wff(&w);
        t.assert_wff(&w);
        let report = simplify(&mut t, SimplifyLevel::Fast);
        assert_eq!(report.formulas_after, 1);
    }

    #[test]
    fn pure_predicate_constant_eliminated() {
        let (mut t, a, b) = fixture();
        let pc = t.vocab.fresh_predicate_constant();
        let p = t.atoms.intern(GroundAtom::nullary(pc));
        // p ∨ a, with p pure positive: ∃p (p ∨ a) ≡ T — the formula tells
        // the user nothing, and must disappear. (b pins the theory to keep
        // it nontrivial without introducing a unit about a.)
        t.assert_wff(&Wff::or2(Wff::Atom(p), Wff::Atom(a)));
        t.assert_not_atom(b);
        let before = worlds(&t);
        let report = simplify(&mut t, SimplifyLevel::Fast);
        assert!(report.pcs_eliminated >= 1);
        assert!(t.store.wffs().iter().all(|w| !w.contains_atom(p)));
        assert_eq!(worlds(&t), before);
    }

    #[test]
    fn confined_predicate_constant_shannon_eliminated() {
        let (mut t, a, b) = fixture();
        let pc = t.vocab.fresh_predicate_constant();
        let p = t.atoms.intern(GroundAtom::nullary(pc));
        // (p → a) ∧ (¬p → b) in one formula: ∃p … ≡ a ∨ b.
        let w = Wff::and2(
            Wff::implies(Wff::Atom(p), Wff::Atom(a)),
            Wff::implies(Wff::Atom(p).not(), Wff::Atom(b)),
        );
        t.assert_wff(&w);
        let before = worlds(&t);
        let report = simplify(&mut t, SimplifyLevel::Fast);
        assert!(report.pcs_eliminated >= 1);
        assert!(t.store.wffs().iter().all(|x| !x.contains_atom(p)));
        assert_eq!(worlds(&t), before);
    }

    #[test]
    fn spanning_predicate_constant_eliminated_at_full() {
        let (mut t, a, b) = fixture();
        let pc = t.vocab.fresh_predicate_constant();
        let p = t.atoms.intern(GroundAtom::nullary(pc));
        // (p → a) and (¬p → b) as *separate* formulas: p has both
        // polarities (not pure) and spans two formulas (not confined), so
        // only the Full spanning pass can touch it. ∃p … ≡ a ∨ b.
        t.assert_wff(&Wff::implies(Wff::Atom(p), Wff::Atom(a)));
        t.assert_wff(&Wff::implies(Wff::Atom(p).not(), Wff::Atom(b)));
        let before = worlds(&t);

        let mut fast = t.clone();
        simplify(&mut fast, SimplifyLevel::Fast);
        assert!(
            fast.store.wffs().iter().any(|w| w.contains_atom(p)),
            "Fast must leave a spanning constant alone"
        );

        let report = simplify(&mut t, SimplifyLevel::Full);
        assert!(report.pcs_eliminated >= 1);
        assert!(t.store.wffs().iter().all(|w| !w.contains_atom(p)));
        assert_eq!(worlds(&t), before);
    }

    #[test]
    fn spanning_chain_collapses_at_full() {
        // A three-link history chain p₀ ↔ p₁ ↔ p₂ with only the newest
        // constant tied to a visible atom — the shape sustained uncertain
        // updates leave behind. Full must project every link out.
        let (mut t, a, _) = fixture();
        let ps: Vec<AtomId> = (0..3)
            .map(|_| {
                let pc = t.vocab.fresh_predicate_constant();
                t.atoms.intern(GroundAtom::nullary(pc))
            })
            .collect();
        t.assert_wff(&Wff::iff(Wff::Atom(ps[0]), Wff::Atom(ps[1])));
        t.assert_wff(&Wff::iff(Wff::Atom(ps[1]), Wff::Atom(ps[2])));
        t.assert_wff(&Wff::implies(Wff::Atom(ps[2]), Wff::Atom(a)));
        let before = worlds(&t);
        let report = simplify(&mut t, SimplifyLevel::Full);
        assert!(report.pcs_eliminated >= 3);
        for &p in &ps {
            assert!(t.store.wffs().iter().all(|w| !w.contains_atom(p)));
        }
        assert_eq!(worlds(&t), before);
    }

    #[test]
    fn full_removes_entailed_formulas() {
        let (mut t, a, b) = fixture();
        // Non-unit formulas so unit propagation can't pre-empt the check:
        // (a ∨ b) entails (a ∨ b ∨ (a ∧ b)).
        let w1 = Formula::Or(vec![Wff::Atom(a), Wff::Atom(b)]);
        let w2 = Formula::Or(vec![
            Wff::Atom(a),
            Wff::Atom(b),
            Formula::And(vec![Wff::Atom(a), Wff::Atom(b)]),
        ]);
        t.assert_wff(&w1);
        t.assert_wff(&w2);
        let before = worlds(&t);
        let report = simplify(&mut t, SimplifyLevel::Full);
        assert!(report.redundant_removed >= 1);
        assert_eq!(report.formulas_after, 1);
        assert_eq!(worlds(&t), before);
    }

    #[test]
    fn none_level_is_identity() {
        let (mut t, a, _) = fixture();
        t.assert_wff(&Wff::implies(Wff::t(), Wff::Atom(a)));
        let nodes = t.store.size_nodes();
        let report = simplify(&mut t, SimplifyLevel::None);
        assert_eq!(report.nodes_after, nodes);
        assert_eq!(t.store.size_nodes(), nodes);
    }

    #[test]
    fn worlds_preserved_on_random_sections() {
        // Randomized soundness: simplify must never change the worlds.
        let mut state = 0xFEED_FACE_CAFEu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..60 {
            let mut t = Theory::new();
            let r = t.declare_relation("R", 1).unwrap();
            let mut ids = Vec::new();
            for i in 0..4 {
                let c = t.constant(&format!("c{i}"));
                ids.push(t.atom(r, &[c]));
            }
            // A couple of predicate constants in the mix.
            for _ in 0..2 {
                let pc = t.vocab.fresh_predicate_constant();
                ids.push(t.atoms.intern(GroundAtom::nullary(pc)));
            }
            let n_wffs = 1 + (next() % 5) as usize;
            for _ in 0..n_wffs {
                let w = random_wff(&mut next, &ids, 3);
                t.assert_wff(&w);
            }
            let before = worlds(&t);
            let level = if trial % 2 == 0 {
                SimplifyLevel::Fast
            } else {
                SimplifyLevel::Full
            };
            simplify(&mut t, level);
            assert_eq!(worlds(&t), before, "worlds changed at {level:?}");
        }
    }

    fn random_wff(next: &mut impl FnMut() -> u64, ids: &[AtomId], depth: usize) -> Wff {
        if depth == 0 || next().is_multiple_of(3) {
            let a = ids[(next() % ids.len() as u64) as usize];
            return if next().is_multiple_of(2) {
                Wff::Atom(a)
            } else {
                Wff::Atom(a).not()
            };
        }
        match next() % 4 {
            0 => random_wff(next, ids, depth - 1).not(),
            1 => Formula::And(vec![
                random_wff(next, ids, depth - 1),
                random_wff(next, ids, depth - 1),
            ]),
            2 => Formula::Or(vec![
                random_wff(next, ids, depth - 1),
                random_wff(next, ids, depth - 1),
            ]),
            _ => Wff::implies(
                random_wff(next, ids, depth - 1),
                random_wff(next, ids, depth - 1),
            ),
        }
    }
}
