//! The indexed formula store — the storage substrate of §3.6.
//!
//! The paper's cost model requires that:
//!
//! * "all ground atomic formulas in the non-axiomatic section of T must
//!   appear in indices … so that lookup and insertion time is O(log R)";
//! * "all occurrences of a ground atomic formula or predicate constant in
//!   the non-axiomatic section of T are linked together in a list whose
//!   head is an index entry, so that renaming may be done rapidly";
//! * "the names of ground atomic formulas cannot be physically stored with
//!   the non-axiomatic wffs they appear in; however, the non-axiomatic wffs
//!   may contain pointers into a separate name space".
//!
//! [`FormulaStore`] realizes this with *slot indirection*: stored formulas
//! hold [`SlotId`]s, and a side table maps each slot to its current
//! [`AtomId`]. All occurrences of an atom share one slot (the paper's
//! occurrence list head), so GUA Step 2's rename of `f` to a fresh
//! predicate constant `p_f` is a single table write — O(1) regardless of
//! how many occurrences `f` has.

use crate::error::TheoryError;
use rustc_hash::FxHashMap;
use smallvec::SmallVec;
use winslett_logic::{AtomId, Formula, Wff};

/// The default ceiling of the slot and formula tables: half the `u32`
/// identifier space. GUA checks it once, before its first mutation, and
/// no single update adds anywhere near 2³¹ entries, so an update admitted
/// below it cannot run the ids out.
const CEILING: u32 = 1 << 31;

/// Index of a slot in the store's indirection table.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SlotId(pub u32);

impl SlotId {
    /// Dense index of this slot.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Handle to a stored formula.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FormulaId(pub u32);

impl FormulaId {
    /// Dense index of this formula.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Clone, Debug)]
struct StoredFormula {
    body: Formula<SlotId>,
    /// Number of AST nodes, cached for O(1) size accounting.
    nodes: usize,
    live: bool,
}

/// The non-axiomatic section of an extended relational theory, stored with
/// the indirection structure of §3.6.
#[derive(Clone, Default, Debug)]
pub struct FormulaStore {
    formulas: Vec<StoredFormula>,
    /// Current atom of each slot (the "separate name space" pointers).
    slots: Vec<AtomId>,
    /// Live binding: which slots currently display each atom. In normal
    /// operation an atom has at most one slot; renames onto an existing
    /// atom (never done by GUA, which renames onto *fresh* predicate
    /// constants) can merge lists.
    atom_slots: FxHashMap<AtomId, SmallVec<[SlotId; 1]>>,
    /// Occurrence count per slot, for growth accounting.
    slot_occurrences: Vec<usize>,
    /// Total AST nodes over live formulas.
    live_nodes: usize,
    /// Number of live formulas.
    live_count: usize,
    /// Identifier-space ceilings (2³¹ unless lowered by
    /// [`FormulaStore::set_capacity`]), enforced by
    /// [`FormulaStore::check_capacity`].
    max_slots: Option<u32>,
    max_formulas: Option<u32>,
    /// Bumped on every semantic mutation (insert, remove, rename,
    /// replace_all); feeds [`Theory::generation`](crate::Theory) so cached
    /// entailment sessions notice staleness.
    version: u64,
}

impl FormulaStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live formulas.
    pub fn len(&self) -> usize {
        self.live_count
    }

    /// Whether no live formulas exist.
    pub fn is_empty(&self) -> bool {
        self.live_count == 0
    }

    /// Total AST nodes over live formulas — the store-size measure used in
    /// experiment E4 (O(g) growth per update).
    pub fn size_nodes(&self) -> usize {
        self.live_nodes
    }

    /// Monotone mutation counter: strictly increases on every insert,
    /// remove, rename, and wholesale replacement.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Lowers the identifier-space ceilings; a ceiling above the default
    /// 2³¹ is clamped to it. Used by tests to make the (otherwise
    /// ~2-billion-insert) capacity refusal reachable.
    pub fn set_capacity(&mut self, max_slots: u32, max_formulas: u32) {
        self.max_slots = Some(max_slots.min(CEILING));
        self.max_formulas = Some(max_formulas.min(CEILING));
    }

    /// Refuses with [`TheoryError::StoreCapacity`] unless the slot and
    /// formula tables are both below their ceilings. GUA checks this
    /// once, before Step 1: it is the only resource its steps can
    /// exhaust, so an update that passes the check cannot fail halfway.
    pub fn check_capacity(&self) -> Result<(), TheoryError> {
        for (what, len, ceiling) in [
            ("slots", self.slots.len(), self.max_slots),
            ("formulas", self.formulas.len(), self.max_formulas),
        ] {
            let limit = u64::from(ceiling.unwrap_or(CEILING));
            if len as u64 >= limit {
                return Err(TheoryError::StoreCapacity { what, limit });
            }
        }
        Ok(())
    }

    fn slot_for(&mut self, atom: AtomId) -> SlotId {
        if let Some(list) = self.atom_slots.get(&atom) {
            if let Some(&s) = list.first() {
                return s;
            }
        }
        let s = SlotId(u32::try_from(self.slots.len()).expect("slot ids fit in u32"));
        self.slots.push(atom);
        self.slot_occurrences.push(0);
        self.atom_slots.entry(atom).or_default().push(s);
        s
    }

    /// Inserts a wff, returning its handle.
    pub fn insert(&mut self, wff: &Wff) -> FormulaId {
        let body = wff.map_atoms(&mut |a: &AtomId| {
            let s = self.slot_for(*a);
            self.slot_occurrences[s.index()] += 1;
            s
        });
        let nodes = body.size();
        let id = FormulaId(u32::try_from(self.formulas.len()).expect("formula ids fit in u32"));
        self.live_nodes += nodes;
        self.live_count += 1;
        self.version += 1;
        self.formulas.push(StoredFormula {
            body,
            nodes,
            live: true,
        });
        id
    }

    /// Removes a formula (used by simplification). Idempotent.
    pub fn remove(&mut self, id: FormulaId) {
        let sf = &mut self.formulas[id.index()];
        if sf.live {
            sf.live = false;
            self.live_nodes -= sf.nodes;
            self.live_count -= 1;
            self.version += 1;
            // Occurrence counts are decremented so `occurrences_of` stays
            // accurate for simplification decisions.
            let body = sf.body.clone();
            body.for_each_atom(&mut |s: &SlotId| {
                self.slot_occurrences[s.index()] -= 1;
            });
        }
    }

    /// Whether `id` refers to a live formula.
    pub fn is_live(&self, id: FormulaId) -> bool {
        self.formulas.get(id.index()).is_some_and(|sf| sf.live)
    }

    /// Renames every occurrence of `from` to `to` in O(1) per slot (O(1)
    /// total in GUA, where `to` is always fresh). This is the paper's
    /// pointer-list renaming of Step 2.
    ///
    /// Returns the number of formula occurrences affected.
    pub fn rename_atom(&mut self, from: AtomId, to: AtomId) -> usize {
        let Some(list) = self.atom_slots.remove(&from) else {
            return 0;
        };
        self.version += 1;
        let mut occurrences = 0;
        for &s in &list {
            debug_assert_eq!(self.slots[s.index()], from);
            self.slots[s.index()] = to;
            occurrences += self.slot_occurrences[s.index()];
        }
        self.atom_slots.entry(to).or_default().extend(list);
        occurrences
    }

    /// Whether `atom` currently occurs in any live formula.
    pub fn contains_atom(&self, atom: AtomId) -> bool {
        self.occurrences_of(atom) > 0
    }

    /// Number of live occurrences of `atom`.
    pub fn occurrences_of(&self, atom: AtomId) -> usize {
        self.atom_slots
            .get(&atom)
            .map(|list| list.iter().map(|s| self.slot_occurrences[s.index()]).sum())
            .unwrap_or(0)
    }

    /// Resolves a stored formula back to a wff over atoms.
    pub fn resolve(&self, id: FormulaId) -> Wff {
        self.formulas[id.index()]
            .body
            .map_atoms(&mut |s: &SlotId| self.slots[s.index()])
    }

    /// Iterates over the live formulas as `(id, wff)`.
    pub fn iter(&self) -> impl Iterator<Item = (FormulaId, Wff)> + '_ {
        self.formulas
            .iter()
            .enumerate()
            .filter(|(_, sf)| sf.live)
            .map(|(i, sf)| {
                (
                    FormulaId(i as u32),
                    sf.body.map_atoms(&mut |s: &SlotId| self.slots[s.index()]),
                )
            })
    }

    /// Materializes all live formulas as wffs over atoms.
    pub fn wffs(&self) -> Vec<Wff> {
        self.iter().map(|(_, w)| w).collect()
    }

    /// The set of atoms with at least one live occurrence, in sorted order.
    pub fn live_atoms(&self) -> Vec<AtomId> {
        let mut out: Vec<AtomId> = self
            .atom_slots
            .iter()
            .filter(|(_, list)| list.iter().any(|s| self.slot_occurrences[s.index()] > 0))
            .map(|(&a, _)| a)
            .collect();
        out.sort_unstable();
        out
    }

    /// Replaces the entire store contents with `wffs` (used by the
    /// simplifier after a rewrite pass). Slot and occurrence bookkeeping is
    /// rebuilt from scratch.
    pub fn replace_all(&mut self, wffs: &[Wff]) {
        let (max_slots, max_formulas) = (self.max_slots, self.max_formulas);
        let version = self.version;
        *self = FormulaStore::new();
        self.max_slots = max_slots;
        self.max_formulas = max_formulas;
        // Carry the mutation counter forward (and advance it) so the reset
        // cannot rewind a generation another component has already observed.
        self.version = version + 1;
        for w in wffs {
            self.insert(w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use winslett_logic::Formula;

    fn a(i: u32) -> Wff {
        Formula::Atom(AtomId(i))
    }

    #[test]
    fn insert_and_resolve_roundtrip() {
        let mut s = FormulaStore::new();
        let w = Wff::and2(a(1), Wff::or2(a(2), a(1)).not());
        let id = s.insert(&w);
        assert_eq!(s.resolve(id), w);
        assert_eq!(s.len(), 1);
        assert_eq!(s.size_nodes(), w.size());
    }

    #[test]
    fn rename_affects_all_occurrences_across_formulas() {
        let mut s = FormulaStore::new();
        let f1 = s.insert(&Wff::or2(a(1), a(2)));
        let f2 = s.insert(&Wff::and2(a(1), a(3)));
        let n = s.rename_atom(AtomId(1), AtomId(99));
        assert_eq!(n, 2);
        assert_eq!(s.resolve(f1), Wff::or2(a(99), a(2)));
        assert_eq!(s.resolve(f2), Wff::and2(a(99), a(3)));
        assert!(!s.contains_atom(AtomId(1)));
        assert!(s.contains_atom(AtomId(99)));
    }

    #[test]
    fn rename_then_reinsert_uses_fresh_slot() {
        // After renaming a → p_a, a *new* occurrence of `a` must not be
        // captured by the old slot (GUA Step 3 re-introduces the original
        // atoms after Step 2's rename).
        let mut s = FormulaStore::new();
        let f1 = s.insert(&a(1));
        s.rename_atom(AtomId(1), AtomId(50));
        let f2 = s.insert(&a(1));
        assert_eq!(s.resolve(f1), a(50));
        assert_eq!(s.resolve(f2), a(1));
        assert_eq!(s.occurrences_of(AtomId(1)), 1);
        assert_eq!(s.occurrences_of(AtomId(50)), 1);
    }

    #[test]
    fn rename_missing_atom_is_noop() {
        let mut s = FormulaStore::new();
        s.insert(&a(1));
        assert_eq!(s.rename_atom(AtomId(7), AtomId(8)), 0);
        assert!(s.contains_atom(AtomId(1)));
    }

    #[test]
    fn rename_merge_onto_existing_atom() {
        // Not used by GUA (targets are fresh), but must stay correct.
        let mut s = FormulaStore::new();
        let f1 = s.insert(&a(1));
        let f2 = s.insert(&a(2));
        s.rename_atom(AtomId(1), AtomId(2));
        assert_eq!(s.resolve(f1), a(2));
        assert_eq!(s.resolve(f2), a(2));
        assert_eq!(s.occurrences_of(AtomId(2)), 2);
        // A further rename of the merged atom moves both slots.
        s.rename_atom(AtomId(2), AtomId(3));
        assert_eq!(s.resolve(f1), a(3));
        assert_eq!(s.resolve(f2), a(3));
    }

    #[test]
    fn remove_updates_accounting() {
        let mut s = FormulaStore::new();
        let w = Wff::or2(a(1), a(2));
        let id = s.insert(&w);
        let id2 = s.insert(&a(1));
        s.remove(id);
        assert_eq!(s.len(), 1);
        assert_eq!(s.size_nodes(), 1);
        assert_eq!(s.occurrences_of(AtomId(1)), 1);
        assert_eq!(s.occurrences_of(AtomId(2)), 0);
        assert!(!s.is_live(id));
        assert!(s.is_live(id2));
        // Removing twice is a no-op.
        s.remove(id);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn wffs_skips_dead_formulas() {
        let mut s = FormulaStore::new();
        let id = s.insert(&a(1));
        s.insert(&a(2));
        s.remove(id);
        assert_eq!(s.wffs(), vec![a(2)]);
    }

    #[test]
    fn live_atoms_sorted_and_filtered() {
        let mut s = FormulaStore::new();
        let id = s.insert(&Wff::and2(a(5), a(3)));
        s.insert(&a(9));
        assert_eq!(s.live_atoms(), vec![AtomId(3), AtomId(5), AtomId(9)]);
        s.remove(id);
        assert_eq!(s.live_atoms(), vec![AtomId(9)]);
    }

    #[test]
    fn replace_all_rebuilds() {
        let mut s = FormulaStore::new();
        s.insert(&a(1));
        s.rename_atom(AtomId(1), AtomId(2));
        s.replace_all(&[a(3), Wff::or2(a(4), a(3))]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.occurrences_of(AtomId(3)), 2);
        assert!(!s.contains_atom(AtomId(2)));
    }

    #[test]
    fn occurrence_accounting_after_merge_remove_reinsert() {
        // Regression: a merge rename (two slots now display one atom)
        // followed by remove and re-insert must keep per-atom occurrence
        // sums exact — `occurrences_of` drives simplification decisions
        // and `contains_atom` drives predicate-constant visibility.
        let mut s = FormulaStore::new();
        let f1 = s.insert(&Wff::or2(a(1), a(1)));
        let f2 = s.insert(&a(2));
        s.rename_atom(AtomId(1), AtomId(2)); // merge: atom 2 has two slots
        assert_eq!(s.occurrences_of(AtomId(2)), 3);
        s.remove(f1);
        assert_eq!(s.occurrences_of(AtomId(2)), 1);
        // Re-insert through the merged binding: the occurrence lands on
        // one of atom 2's slots and the total must reflect it.
        let f3 = s.insert(&Wff::and2(a(2), a(3)));
        assert_eq!(s.occurrences_of(AtomId(2)), 2);
        assert_eq!(s.occurrences_of(AtomId(3)), 1);
        assert_eq!(s.resolve(f3), Wff::and2(a(2), a(3)));
        assert_eq!(s.resolve(f2), a(2));
        // Removing everything zeroes the sums over *both* merged slots.
        s.remove(f2);
        s.remove(f3);
        assert_eq!(s.occurrences_of(AtomId(2)), 0);
        assert!(!s.contains_atom(AtomId(2)));
        assert_eq!(s.live_atoms(), Vec::<AtomId>::new());
    }

    #[test]
    fn rename_cost_is_independent_of_occurrences() {
        // Structural check on the O(1) claim: renaming touches only the
        // slot table, so the number of atom_slots entries visited equals
        // the number of slots for `from` (1 here), however many
        // occurrences exist.
        let mut s = FormulaStore::new();
        for _ in 0..1000 {
            s.insert(&Wff::or2(a(1), a(1)));
        }
        assert_eq!(s.occurrences_of(AtomId(1)), 2000);
        let affected = s.rename_atom(AtomId(1), AtomId(2));
        assert_eq!(affected, 2000);
        // Every stored formula now displays the new atom.
        assert!(s.iter().all(|(_, w)| !w.contains_atom(AtomId(1))));
    }
}
