//! Ground well-formed formulas.
//!
//! The non-axiomatic section of an extended relational theory "may be any
//! finite set of wffs of L that do not contain variables or the equality
//! predicate" (§2). [`Formula`] is that wff language: truth constants,
//! atoms, `¬`, `∧`, `∨`, `→`, `↔`.
//!
//! The type is generic over its leaf type `A` so the same machinery serves
//! formulas over interned atoms ([`Wff`] = `Formula<AtomId>`) and formulas
//! over storage slots in the indexed formula store of `winslett-theory`.

use crate::AtomId;
use std::collections::BTreeSet;

/// A ground well-formed formula with leaves of type `A`.
///
/// `And`/`Or` are n-ary to keep trees shallow; `and(vec![])` is `T` and
/// `or(vec![])` is `F`, the usual identities.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Formula<A> {
    /// The truth value `T` (true) or `F` (false).
    Truth(bool),
    /// A ground atomic formula.
    Atom(A),
    /// Negation.
    Not(Box<Formula<A>>),
    /// N-ary conjunction.
    And(Vec<Formula<A>>),
    /// N-ary disjunction.
    Or(Vec<Formula<A>>),
    /// Material implication.
    Implies(Box<Formula<A>>, Box<Formula<A>>),
    /// Biconditional.
    Iff(Box<Formula<A>>, Box<Formula<A>>),
}

/// A wff over interned ground atoms — the workhorse formula type.
pub type Wff = Formula<AtomId>;

/// Occurrence polarity of an atom within a formula.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Polarity {
    /// Occurs only under an even number of negations.
    Positive,
    /// Occurs only under an odd number of negations.
    Negative,
    /// Occurs with both polarities (or under `↔`, which mixes them).
    Both,
}

impl Polarity {
    fn join(self, other: Polarity) -> Polarity {
        if self == other {
            self
        } else {
            Polarity::Both
        }
    }

    fn flip(self) -> Polarity {
        match self {
            Polarity::Positive => Polarity::Negative,
            Polarity::Negative => Polarity::Positive,
            Polarity::Both => Polarity::Both,
        }
    }
}

impl<A> Formula<A> {
    /// The formula `T`.
    pub fn t() -> Self {
        Formula::Truth(true)
    }

    /// The formula `F`.
    pub fn f() -> Self {
        Formula::Truth(false)
    }

    /// An atom leaf.
    pub fn atom(a: A) -> Self {
        Formula::Atom(a)
    }

    /// Negation, without simplification.
    #[allow(clippy::should_implement_trait)] // `w.not()` reads like the logic
    pub fn not(self) -> Self {
        Formula::Not(Box::new(self))
    }

    /// N-ary conjunction, recursively flattening nested `And`s and dropping
    /// `T`s. Returns `F` eagerly if any conjunct is `F`.
    pub fn and(parts: Vec<Formula<A>>) -> Self {
        let mut out = Vec::with_capacity(parts.len());
        let mut stack: Vec<Formula<A>> = parts.into_iter().rev().collect();
        while let Some(p) = stack.pop() {
            match p {
                Formula::Truth(true) => {}
                Formula::Truth(false) => return Formula::f(),
                Formula::And(inner) => stack.extend(inner.into_iter().rev()),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Formula::t(),
            1 => out.pop().expect("len checked"),
            _ => Formula::And(out),
        }
    }

    /// N-ary disjunction, recursively flattening nested `Or`s and dropping
    /// `F`s. Returns `T` eagerly if any disjunct is `T`.
    pub fn or(parts: Vec<Formula<A>>) -> Self {
        let mut out = Vec::with_capacity(parts.len());
        let mut stack: Vec<Formula<A>> = parts.into_iter().rev().collect();
        while let Some(p) = stack.pop() {
            match p {
                Formula::Truth(false) => {}
                Formula::Truth(true) => return Formula::t(),
                Formula::Or(inner) => stack.extend(inner.into_iter().rev()),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Formula::f(),
            1 => out.pop().expect("len checked"),
            _ => Formula::Or(out),
        }
    }

    /// Binary conjunction.
    pub fn and2(a: Formula<A>, b: Formula<A>) -> Self {
        Formula::and(vec![a, b])
    }

    /// Binary disjunction.
    pub fn or2(a: Formula<A>, b: Formula<A>) -> Self {
        Formula::or(vec![a, b])
    }

    /// Implication `a → b`.
    pub fn implies(a: Formula<A>, b: Formula<A>) -> Self {
        Formula::Implies(Box::new(a), Box::new(b))
    }

    /// Biconditional `a ↔ b`.
    pub fn iff(a: Formula<A>, b: Formula<A>) -> Self {
        Formula::Iff(Box::new(a), Box::new(b))
    }

    /// Number of AST nodes — the size measure used for the O(g) growth
    /// accounting of §3.6.
    pub fn size(&self) -> usize {
        match self {
            Formula::Truth(_) | Formula::Atom(_) => 1,
            Formula::Not(x) => 1 + x.size(),
            Formula::And(xs) | Formula::Or(xs) => 1 + xs.iter().map(Formula::size).sum::<usize>(),
            Formula::Implies(a, b) | Formula::Iff(a, b) => 1 + a.size() + b.size(),
        }
    }

    /// Visits every atom leaf.
    pub fn for_each_atom<'a, F: FnMut(&'a A)>(&'a self, f: &mut F) {
        match self {
            Formula::Truth(_) => {}
            Formula::Atom(a) => f(a),
            Formula::Not(x) => x.for_each_atom(f),
            Formula::And(xs) | Formula::Or(xs) => {
                for x in xs {
                    x.for_each_atom(f);
                }
            }
            Formula::Implies(a, b) | Formula::Iff(a, b) => {
                a.for_each_atom(f);
                b.for_each_atom(f);
            }
        }
    }

    /// Total number of atom occurrences (with multiplicity). This is the
    /// paper's `g` when applied to the wffs of an update.
    pub fn num_atom_occurrences(&self) -> usize {
        let mut n = 0;
        self.for_each_atom(&mut |_| n += 1);
        n
    }

    /// Rewrites every leaf through `f`, preserving structure.
    pub fn map_atoms<B, F: FnMut(&A) -> B>(&self, f: &mut F) -> Formula<B> {
        match self {
            Formula::Truth(b) => Formula::Truth(*b),
            Formula::Atom(a) => Formula::Atom(f(a)),
            Formula::Not(x) => Formula::Not(Box::new(x.map_atoms(f))),
            Formula::And(xs) => Formula::And(xs.iter().map(|x| x.map_atoms(f)).collect()),
            Formula::Or(xs) => Formula::Or(xs.iter().map(|x| x.map_atoms(f)).collect()),
            Formula::Implies(a, b) => {
                Formula::Implies(Box::new(a.map_atoms(f)), Box::new(b.map_atoms(f)))
            }
            Formula::Iff(a, b) => Formula::Iff(Box::new(a.map_atoms(f)), Box::new(b.map_atoms(f))),
        }
    }

    /// Replaces every leaf by a whole sub-formula through `f`.
    pub fn subst_atoms<B, F: FnMut(&A) -> Formula<B>>(&self, f: &mut F) -> Formula<B> {
        match self {
            Formula::Truth(b) => Formula::Truth(*b),
            Formula::Atom(a) => f(a),
            Formula::Not(x) => Formula::Not(Box::new(x.subst_atoms(f))),
            Formula::And(xs) => Formula::And(xs.iter().map(|x| x.subst_atoms(f)).collect()),
            Formula::Or(xs) => Formula::Or(xs.iter().map(|x| x.subst_atoms(f)).collect()),
            Formula::Implies(a, b) => {
                Formula::Implies(Box::new(a.subst_atoms(f)), Box::new(b.subst_atoms(f)))
            }
            Formula::Iff(a, b) => {
                Formula::Iff(Box::new(a.subst_atoms(f)), Box::new(b.subst_atoms(f)))
            }
        }
    }

    /// Evaluates the formula under a truth assignment for the leaves.
    pub fn eval<F: FnMut(&A) -> bool>(&self, f: &mut F) -> bool {
        match self {
            Formula::Truth(b) => *b,
            Formula::Atom(a) => f(a),
            Formula::Not(x) => !x.eval(f),
            Formula::And(xs) => xs.iter().all(|x| x.eval(f)),
            Formula::Or(xs) => xs.iter().any(|x| x.eval(f)),
            Formula::Implies(a, b) => !a.eval(f) || b.eval(f),
            Formula::Iff(a, b) => a.eval(f) == b.eval(f),
        }
    }
}

/// Negation of an already-constant-folded formula, folding `¬T`/`¬F`.
fn fold_not<A>(x: Formula<A>) -> Formula<A> {
    match x {
        Formula::Truth(b) => Formula::Truth(!b),
        other => Formula::Not(Box::new(other)),
    }
}

impl<A: Copy + Ord> Formula<A> {
    /// The set of distinct atoms occurring in the formula, in leaf order
    /// (sorted). For an update `INSERT ω WHERE φ` this is how the paper's
    /// "ground atomic formulas of ω" are computed.
    pub fn atom_set(&self) -> BTreeSet<A> {
        let mut set = BTreeSet::new();
        self.for_each_atom(&mut |a| {
            set.insert(*a);
        });
        set
    }

    /// Whether the atom `a` occurs anywhere in the formula.
    pub fn contains_atom(&self, a: A) -> bool {
        let mut found = false;
        self.for_each_atom(&mut |x| found |= *x == a);
        found
    }

    /// Visits every atom leaf with the polarity of that occurrence:
    /// `Positive` under an even number of negations, `Negative` under an
    /// odd number, and `Both` anywhere inside `↔`. The antecedent of `→`
    /// counts as negated. The one place the polarity rules live.
    fn for_each_polarity<F: FnMut(A, Polarity)>(&self, f: &mut F) {
        fn go<A: Copy, F: FnMut(A, Polarity)>(w: &Formula<A>, pol: Polarity, f: &mut F) {
            match w {
                Formula::Truth(_) => {}
                Formula::Atom(x) => f(*x, pol),
                Formula::Not(x) => go(x, pol.flip(), f),
                Formula::And(xs) | Formula::Or(xs) => {
                    for x in xs {
                        go(x, pol, f);
                    }
                }
                Formula::Implies(l, r) => {
                    go(l, pol.flip(), f);
                    go(r, pol, f);
                }
                // Each side occurs both positively and negatively.
                Formula::Iff(l, r) => {
                    go(l, Polarity::Both, f);
                    go(r, Polarity::Both, f);
                }
            }
        }
        go(self, Polarity::Positive, f)
    }

    /// Occurrence polarity of every distinct atom, in ascending atom order
    /// (the order of [`Formula::atom_set`]), from one walk.
    pub fn polarities(&self) -> Vec<(A, Polarity)> {
        let mut occurrences = Vec::new();
        self.for_each_polarity(&mut |a, p| occurrences.push((a, p)));
        occurrences.sort_unstable_by_key(|&(a, _)| a);
        occurrences.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 = kept.1.join(later.1);
            }
            same
        });
        occurrences
    }

    /// Occurrence polarity of `a`, or `None` if it does not occur.
    ///
    /// `↔` and the antecedents of `→` mix polarities in the usual way.
    pub fn polarity_of(&self, a: A) -> Option<Polarity> {
        let mut acc: Option<Polarity> = None;
        self.for_each_polarity(&mut |x, p| {
            if x == a {
                acc = Some(acc.map_or(p, |q| q.join(p)));
            }
        });
        acc
    }

    /// Substitutes atom `from` by atom `to` throughout. This is the paper's
    /// substitution `(α)^{from}_{to}` used by GUA Step 2 (at the semantic
    /// level; the indexed store performs the same operation in O(1)).
    pub fn rename_atom(&self, from: A, to: A) -> Formula<A> {
        self.map_atoms(&mut |x| if *x == from { to } else { *x })
    }

    /// Assigns a fixed truth value to atom `a` and constant-folds — the
    /// Shannon cofactor used by simplification and predicate-constant
    /// elimination.
    pub fn assign(&self, a: A, value: bool) -> Formula<A> {
        self.assign_with(|x| (*x == a).then_some(value))
    }

    /// Assigns every atom for which `value` answers `Some` that truth value,
    /// then constant-folds: one substitution walk and one fold, whatever
    /// the number of atoms assigned. Equal to a chain of
    /// [`Formula::assign`] calls over the same atoms in any order, because
    /// folding only drops `Truth` nodes and flattens `∧`/`∨`.
    pub fn assign_with<F: FnMut(&A) -> Option<bool>>(&self, mut value: F) -> Formula<A> {
        self.subst_atoms(&mut |x| value(x).map_or(Formula::Atom(*x), Formula::Truth))
            .fold_constants()
    }

    /// Propagates truth constants: `T ∧ x ⇒ x`, `¬F ⇒ T`, etc. The result
    /// contains no `Truth` node unless it *is* a `Truth` node.
    pub fn fold_constants(&self) -> Formula<A> {
        match self {
            Formula::Truth(b) => Formula::Truth(*b),
            Formula::Atom(a) => Formula::Atom(*a),
            Formula::Not(x) => match x.fold_constants() {
                Formula::Truth(b) => Formula::Truth(!b),
                other => Formula::Not(Box::new(other)),
            },
            Formula::And(xs) => Formula::and(xs.iter().map(Formula::fold_constants).collect()),
            Formula::Or(xs) => Formula::or(xs.iter().map(Formula::fold_constants).collect()),
            Formula::Implies(a, b) => match (a.fold_constants(), b.fold_constants()) {
                (Formula::Truth(false), _) => Formula::t(),
                (Formula::Truth(true), y) => y,
                (_, Formula::Truth(true)) => Formula::t(),
                (x, Formula::Truth(false)) => fold_not(x),
                (x, y) => Formula::Implies(Box::new(x), Box::new(y)),
            },
            Formula::Iff(a, b) => match (a.fold_constants(), b.fold_constants()) {
                (Formula::Truth(true), y) => y,
                (x, Formula::Truth(true)) => x,
                (Formula::Truth(false), y) => fold_not(y),
                (x, Formula::Truth(false)) => fold_not(x),
                (x, y) => Formula::Iff(Box::new(x), Box::new(y)),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(i: u32) -> Wff {
        Formula::Atom(AtomId(i))
    }

    #[test]
    fn and_or_identities() {
        assert_eq!(Wff::and(vec![]), Wff::t());
        assert_eq!(Wff::or(vec![]), Wff::f());
        assert_eq!(Wff::and(vec![a(1)]), a(1));
        assert_eq!(Wff::or(vec![a(1)]), a(1));
    }

    #[test]
    fn and_short_circuits_on_false() {
        assert_eq!(Wff::and(vec![a(1), Wff::f(), a(2)]), Wff::f());
        assert_eq!(Wff::or(vec![a(1), Wff::t(), a(2)]), Wff::t());
    }

    #[test]
    fn flattening() {
        let nested = Wff::And(vec![a(1), Wff::And(vec![a(2), a(3)])]);
        let flat = Wff::and(vec![nested]);
        assert_eq!(flat, Wff::And(vec![a(1), a(2), a(3)]));
    }

    #[test]
    fn eval_truth_tables() {
        let assignments = [(false, false), (false, true), (true, false), (true, true)];
        for (va, vb) in assignments {
            let mut env = |x: &AtomId| if x.0 == 0 { va } else { vb };
            assert_eq!(Wff::and2(a(0), a(1)).eval(&mut env), va && vb);
            assert_eq!(Wff::or2(a(0), a(1)).eval(&mut env), va || vb);
            assert_eq!(Wff::implies(a(0), a(1)).eval(&mut env), !va || vb);
            assert_eq!(Wff::iff(a(0), a(1)).eval(&mut env), va == vb);
            assert_eq!(a(0).not().eval(&mut env), !va);
        }
    }

    #[test]
    fn atom_set_and_occurrences() {
        let f = Wff::and2(Wff::or2(a(3), a(1)), a(3).not());
        assert_eq!(
            f.atom_set().into_iter().collect::<Vec<_>>(),
            vec![AtomId(1), AtomId(3)]
        );
        assert_eq!(f.num_atom_occurrences(), 3);
        assert!(f.contains_atom(AtomId(3)));
        assert!(!f.contains_atom(AtomId(2)));
    }

    #[test]
    fn polarity_basic() {
        let f = Wff::and2(a(1), a(2).not());
        assert_eq!(f.polarity_of(AtomId(1)), Some(Polarity::Positive));
        assert_eq!(f.polarity_of(AtomId(2)), Some(Polarity::Negative));
        assert_eq!(f.polarity_of(AtomId(9)), None);
    }

    #[test]
    fn polarity_through_implication() {
        // In a → b, a is negative and b is positive.
        let f = Wff::implies(a(1), a(2));
        assert_eq!(f.polarity_of(AtomId(1)), Some(Polarity::Negative));
        assert_eq!(f.polarity_of(AtomId(2)), Some(Polarity::Positive));
        // a occurring on both sides mixes.
        let g = Wff::implies(a(1), a(1));
        assert_eq!(g.polarity_of(AtomId(1)), Some(Polarity::Both));
    }

    #[test]
    fn polarity_iff_is_both() {
        let f = Wff::iff(a(1), a(2));
        assert_eq!(f.polarity_of(AtomId(1)), Some(Polarity::Both));
    }

    #[test]
    fn rename_atom_renames_all_occurrences() {
        let f = Wff::or2(a(1), Wff::and2(a(1), a(2)));
        let g = f.rename_atom(AtomId(1), AtomId(7));
        assert!(!g.contains_atom(AtomId(1)));
        assert_eq!(g.num_atom_occurrences(), 3);
        assert!(g.contains_atom(AtomId(7)));
    }

    #[test]
    fn assign_cofactor() {
        // (a ∨ b)[a := F] = b ; (a ∨ b)[a := T] = T.
        let f = Wff::or2(a(1), a(2));
        assert_eq!(f.assign(AtomId(1), false), a(2));
        assert_eq!(f.assign(AtomId(1), true), Wff::t());
    }

    #[test]
    fn fold_constants_implication_and_iff() {
        assert_eq!(Wff::implies(Wff::f(), a(1)).fold_constants(), Wff::t());
        assert_eq!(Wff::implies(Wff::t(), a(1)).fold_constants(), a(1));
        assert_eq!(Wff::implies(a(1), Wff::f()).fold_constants(), a(1).not());
        assert_eq!(Wff::iff(Wff::t(), a(1)).fold_constants(), a(1));
        assert_eq!(Wff::iff(Wff::f(), a(1)).fold_constants(), a(1).not());
    }

    #[test]
    fn size_counts_nodes() {
        let f = Wff::and2(a(1), a(2).not()); // And(a1, Not(a2)) = 4 nodes
        assert_eq!(f.size(), 4);
    }

    #[test]
    fn subst_atoms_replaces_with_formulas() {
        let f = Wff::or2(a(1), a(2));
        let g = f.subst_atoms(&mut |x: &AtomId| {
            if x.0 == 1 {
                Wff::and2(a(10), a(11))
            } else {
                Wff::atom(*x)
            }
        });
        assert!(g.contains_atom(AtomId(10)));
        assert!(g.contains_atom(AtomId(2)));
        assert!(!g.contains_atom(AtomId(1)));
    }
}
