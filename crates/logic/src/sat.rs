//! A small CDCL SAT solver.
//!
//! The paper's equivalence theorems (Theorems 3 and 4) and its query
//! semantics require deciding satisfiability and validity of ground wffs,
//! and enumerating the models of a theory ("alternative worlds"). Over the
//! finite atom universe these are propositional problems; this module
//! provides a conflict-driven clause-learning solver in the MiniSat style:
//! two-watched-literal unit propagation, first-UIP conflict analysis with
//! backjumping, and VSIDS-like variable activities kept in a binary
//! decision heap.
//!
//! The solver is deliberately one-shot per query: callers build a solver,
//! add clauses, and call [`Solver::solve`]. Model enumeration re-uses one
//! solver by adding blocking clauses between calls (see
//! [`crate::enumerate`]); [`Solver::add_clause`] backtracks to the root
//! level first, which makes that safe.

use std::fmt;

/// A propositional variable, numbered from 0.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Var(pub u32);

impl Var {
    /// Dense index of this variable.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A literal: a variable together with a sign.
///
/// Encoded as `var * 2 + (1 if negated)` so literals index watch lists
/// directly.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(pub u32);

impl Lit {
    /// The positive literal of `v`.
    #[inline]
    pub fn pos(v: Var) -> Lit {
        Lit(v.0 << 1)
    }

    /// The negative literal of `v`.
    #[inline]
    pub fn neg(v: Var) -> Lit {
        Lit((v.0 << 1) | 1)
    }

    /// Builds a literal from a variable and a sign (`true` = positive).
    #[inline]
    pub fn new(v: Var, positive: bool) -> Lit {
        if positive {
            Lit::pos(v)
        } else {
            Lit::neg(v)
        }
    }

    /// The underlying variable.
    #[inline]
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Whether the literal is positive.
    #[inline]
    pub fn is_pos(self) -> bool {
        self.0 & 1 == 0
    }

    /// The complementary literal.
    #[inline]
    pub fn negate(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    /// Dense code suitable for indexing (2 codes per variable).
    #[inline]
    pub fn code(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_pos() {
            write!(f, "x{}", self.var().0)
        } else {
            write!(f, "!x{}", self.var().0)
        }
    }
}

/// Outcome of [`Solver::solve`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SatResult {
    /// Satisfiable; the vector holds one truth value per variable.
    Sat(Vec<bool>),
    /// Unsatisfiable.
    Unsat,
}

impl SatResult {
    /// Whether the result is `Sat`.
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }
}

const ACTIVITY_DECAY: f64 = 0.95;
const ACTIVITY_RESCALE: f64 = 1e100;
/// `heap_pos` of a variable outside the decision heap.
const NOT_IN_HEAP: u32 = u32::MAX;

/// A CDCL SAT solver.
///
/// ```
/// use winslett_logic::{Lit, SatResult, Solver, Var};
///
/// let mut s = Solver::new(2);
/// s.add_clause(&[Lit::pos(Var(0)), Lit::pos(Var(1))]); // x0 ∨ x1
/// s.add_clause(&[Lit::neg(Var(0))]);                   // ¬x0
/// match s.solve() {
///     SatResult::Sat(model) => assert!(!model[0] && model[1]),
///     SatResult::Unsat => unreachable!(),
/// }
/// ```
pub struct Solver {
    num_vars: usize,
    clauses: Vec<Vec<Lit>>,
    /// For each literal code, the indices of clauses currently watching it.
    watches: Vec<Vec<u32>>,
    assign: Vec<Option<bool>>,
    /// Decision level at which each variable was assigned.
    level: Vec<u32>,
    /// The clause that implied each assignment (`None` for decisions).
    reason: Vec<Option<u32>>,
    trail: Vec<Lit>,
    /// `trail_lim[d]` = trail length when decision level `d+1` began.
    trail_lim: Vec<usize>,
    prop_head: usize,
    activity: Vec<f64>,
    act_inc: f64,
    /// Decision order: a binary max-heap of variables under
    /// [`Solver::before`]. Every unassigned variable is in it; assigned
    /// ones may linger until [`Solver::decide`] pops them.
    heap: Vec<u32>,
    /// Position of each variable in `heap`, or [`NOT_IN_HEAP`].
    heap_pos: Vec<u32>,
    /// Saved phases for decision polarity.
    phase: Vec<bool>,
    /// `false` once a top-level conflict has been derived.
    ok: bool,
    seen: Vec<bool>,
    /// Statistics: number of conflicts encountered.
    pub conflicts: u64,
    /// Statistics: number of decisions made.
    pub decisions: u64,
    /// Statistics: number of literal propagations.
    pub propagations: u64,
    /// Statistics: number of clauses learnt (and retained) from conflicts.
    pub learnt_clauses: u64,
    /// Runs the kernel as it was before the decision heap: every decision
    /// scans all variables, and every solve re-propagates the root trail.
    /// The differential tests compare the two kernels call for call.
    #[cfg(test)]
    reference: bool,
}

impl Solver {
    /// Creates a solver over `num_vars` variables (indices `0..num_vars`).
    pub fn new(num_vars: usize) -> Self {
        Solver {
            num_vars,
            clauses: Vec::new(),
            watches: vec![Vec::new(); num_vars * 2],
            assign: vec![None; num_vars],
            level: vec![0; num_vars],
            reason: vec![None; num_vars],
            trail: Vec::new(),
            trail_lim: Vec::new(),
            prop_head: 0,
            activity: vec![0.0; num_vars],
            act_inc: 1.0,
            // Equal activities order by index, so `0..n` is already a heap.
            heap: (0..num_vars as u32).collect(),
            heap_pos: (0..num_vars as u32).collect(),
            phase: vec![false; num_vars],
            ok: true,
            seen: vec![false; num_vars],
            conflicts: 0,
            decisions: 0,
            propagations: 0,
            learnt_clauses: 0,
            #[cfg(test)]
            reference: false,
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Grows the variable space to at least `n` variables.
    pub fn ensure_vars(&mut self, n: usize) {
        if n > self.num_vars {
            let old = self.num_vars;
            self.num_vars = n;
            self.watches.resize(n * 2, Vec::new());
            self.assign.resize(n, None);
            self.level.resize(n, 0);
            self.reason.resize(n, None);
            self.activity.resize(n, 0.0);
            self.heap_pos.resize(n, NOT_IN_HEAP);
            self.phase.resize(n, false);
            self.seen.resize(n, false);
            for v in old..n {
                self.heap_insert(v as u32);
            }
        }
    }

    #[inline]
    fn value(&self, l: Lit) -> Option<bool> {
        self.assign[l.var().index()].map(|v| v == l.is_pos())
    }

    fn current_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Adds a clause. Returns `false` if the solver is already in an
    /// unsatisfiable state (adding the empty clause, or a unit clause that
    /// conflicts at the root level).
    ///
    /// The solver backtracks to the root level before adding, so this may be
    /// called between [`Solver::solve`] calls (e.g. for blocking clauses).
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        if !self.ok {
            return false;
        }
        self.backtrack_to(0);

        // Normalize: sort, dedupe, drop root-level-false literals, detect
        // tautologies and root-level-true literals.
        let mut c: Vec<Lit> = lits.to_vec();
        c.sort_unstable();
        c.dedup();
        let mut out: Vec<Lit> = Vec::with_capacity(c.len());
        for (i, &l) in c.iter().enumerate() {
            debug_assert!(l.var().index() < self.num_vars, "literal out of range");
            if i + 1 < c.len() && c[i + 1] == l.negate() {
                return true; // tautology: trivially satisfied
            }
            match self.value(l) {
                Some(true) => return true, // satisfied at root level
                Some(false) => {}          // falsified at root: drop
                None => out.push(l),
            }
        }
        match out.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.enqueue(out[0], None);
                // Propagate eagerly so later add_clause calls see the
                // consequences at the root level.
                if self.propagate().is_some() {
                    self.ok = false;
                    false
                } else {
                    true
                }
            }
            _ => {
                self.attach_clause(out);
                true
            }
        }
    }

    fn attach_clause(&mut self, lits: Vec<Lit>) -> u32 {
        debug_assert!(lits.len() >= 2);
        let idx = self.clauses.len() as u32;
        self.watches[lits[0].code()].push(idx);
        self.watches[lits[1].code()].push(idx);
        self.clauses.push(lits);
        idx
    }

    fn enqueue(&mut self, l: Lit, reason: Option<u32>) {
        debug_assert!(self.value(l).is_none());
        let v = l.var().index();
        self.assign[v] = Some(l.is_pos());
        self.level[v] = self.current_level();
        self.reason[v] = reason;
        self.phase[v] = l.is_pos();
        self.trail.push(l);
    }

    /// Unit propagation. Returns the index of a conflicting clause, if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.prop_head < self.trail.len() {
            let lit = self.trail[self.prop_head];
            self.prop_head += 1;
            self.propagations += 1;
            let false_lit = lit.negate();
            let mut ws = std::mem::take(&mut self.watches[false_lit.code()]);
            let mut i = 0;
            while i < ws.len() {
                let ci = ws[i] as usize;
                // Make sure the falsified literal is in slot 1.
                if self.clauses[ci][0] == false_lit {
                    self.clauses[ci].swap(0, 1);
                }
                debug_assert_eq!(self.clauses[ci][1], false_lit);
                let first = self.clauses[ci][0];
                if self.value(first) == Some(true) {
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let mut moved = false;
                for k in 2..self.clauses[ci].len() {
                    if self.value(self.clauses[ci][k]) != Some(false) {
                        self.clauses[ci].swap(1, k);
                        let new_watch = self.clauses[ci][1];
                        self.watches[new_watch.code()].push(ci as u32);
                        ws.swap_remove(i);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                // Clause is unit or conflicting on `first`.
                match self.value(first) {
                    Some(false) => {
                        // Conflict: restore the watch list and report.
                        self.watches[false_lit.code()] = ws;
                        self.prop_head = self.trail.len();
                        return Some(ci as u32);
                    }
                    _ => {
                        self.enqueue(first, Some(ci as u32));
                        i += 1;
                    }
                }
            }
            self.watches[false_lit.code()] = ws;
        }
        None
    }

    fn backtrack_to(&mut self, target_level: u32) {
        while self.current_level() > target_level {
            let start = self.trail_lim.pop().expect("level > 0 implies limit");
            while self.trail.len() > start {
                let l = self.trail.pop().expect("trail shrink");
                let v = l.var().index();
                self.assign[v] = None;
                self.reason[v] = None;
                if self.heap_pos[v] == NOT_IN_HEAP {
                    self.heap_insert(v as u32);
                }
            }
        }
        self.prop_head = self.trail.len().min(self.prop_head);
    }

    fn bump_activity(&mut self, v: Var) {
        self.activity[v.index()] += self.act_inc;
        if self.activity[v.index()] > ACTIVITY_RESCALE {
            for a in &mut self.activity {
                *a /= ACTIVITY_RESCALE;
            }
            self.act_inc /= ACTIVITY_RESCALE;
            // Values that underflowed to equal now order by index.
            self.heap_rebuild();
        } else if self.heap_pos[v.index()] != NOT_IN_HEAP {
            self.sift_up(self.heap_pos[v.index()] as usize);
        }
    }

    // ----- decision heap -----------------------------------------------------

    /// The decision order: higher activity first, then lower index —
    /// exactly the variable a scan for the strict maximum picks.
    #[inline]
    fn before(&self, a: u32, b: u32) -> bool {
        let (x, y) = (self.activity[a as usize], self.activity[b as usize]);
        x > y || (x == y && a < b)
    }

    fn heap_insert(&mut self, v: u32) {
        self.heap_pos[v as usize] = self.heap.len() as u32;
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1);
    }

    /// Removes and returns the heap's first variable.
    fn heap_pop(&mut self) -> Option<u32> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty");
        self.heap_pos[top as usize] = NOT_IN_HEAP;
        if last != top {
            self.heap[0] = last;
            self.heap_pos[last as usize] = 0;
            self.sift_down(0);
        }
        Some(top)
    }

    fn sift_up(&mut self, mut i: usize) {
        let v = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            let p = self.heap[parent];
            if !self.before(v, p) {
                break;
            }
            self.heap[i] = p;
            self.heap_pos[p as usize] = i as u32;
            i = parent;
        }
        self.heap[i] = v;
        self.heap_pos[v as usize] = i as u32;
    }

    fn sift_down(&mut self, mut i: usize) {
        let v = self.heap[i];
        loop {
            let left = 2 * i + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let child = if right < self.heap.len() && self.before(self.heap[right], self.heap[left])
            {
                right
            } else {
                left
            };
            let c = self.heap[child];
            if !self.before(c, v) {
                break;
            }
            self.heap[i] = c;
            self.heap_pos[c as usize] = i as u32;
            i = child;
        }
        self.heap[i] = v;
        self.heap_pos[v as usize] = i as u32;
    }

    /// Restores the heap order over the current members.
    fn heap_rebuild(&mut self) {
        for i in (0..self.heap.len() / 2).rev() {
            self.sift_down(i);
        }
    }

    fn decay_activity(&mut self) {
        self.act_inc /= ACTIVITY_DECAY;
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first) and the backjump level.
    fn analyze(&mut self, mut confl: u32) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // placeholder for the UIP
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut idx = self.trail.len();
        let cur_level = self.current_level();

        let mut scratch: Vec<Lit> = Vec::new();
        loop {
            scratch.clear();
            scratch.extend_from_slice(&self.clauses[confl as usize]);
            for &q in &scratch {
                // When resolving on a trail literal `p`, skip `p` itself —
                // the reason clause contains it as its asserted literal.
                if Some(q) == p {
                    continue;
                }
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    self.bump_activity(v);
                    if self.level[v.index()] == cur_level {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select the next trail literal to resolve on.
            loop {
                idx -= 1;
                if self.seen[self.trail[idx].var().index()] {
                    break;
                }
            }
            let lit = self.trail[idx];
            self.seen[lit.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = lit.negate();
                break;
            }
            p = Some(lit);
            confl = self.reason[lit.var().index()]
                .expect("non-UIP literal at conflict level must have a reason");
        }

        // Compute the backjump level and clear the seen flags.
        let mut back_level = 0u32;
        let mut swap_pos = 1usize;
        for (i, l) in learnt.iter().enumerate().skip(1) {
            let lv = self.level[l.var().index()];
            if lv > back_level {
                back_level = lv;
                swap_pos = i;
            }
        }
        if learnt.len() > 1 {
            learnt.swap(1, swap_pos);
        }
        for l in &learnt {
            self.seen[l.var().index()] = false;
        }
        (learnt, back_level)
    }

    /// Opens a decision level on the most active unassigned variable, at
    /// its saved phase. Returns `false` when every variable is assigned.
    fn decide(&mut self) -> bool {
        #[cfg(test)]
        if self.reference {
            return self.decide_by_scan();
        }
        while let Some(v) = self.heap_pop() {
            if self.assign[v as usize].is_none() {
                self.open_decision(v as usize);
                return true;
            }
        }
        false
    }

    fn open_decision(&mut self, v: usize) {
        self.decisions += 1;
        self.trail_lim.push(self.trail.len());
        let phase = self.phase[v];
        self.enqueue(Lit::new(Var(v as u32), phase), None);
    }

    /// The decision rule the heap replaced: a scan for the strictly most
    /// active unassigned variable.
    #[cfg(test)]
    fn decide_by_scan(&mut self) -> bool {
        let mut best: Option<usize> = None;
        let mut best_act = f64::NEG_INFINITY;
        for v in 0..self.num_vars {
            if self.assign[v].is_none() && self.activity[v] > best_act {
                best = Some(v);
                best_act = self.activity[v];
            }
        }
        match best {
            None => false,
            Some(v) => {
                self.open_decision(v);
                true
            }
        }
    }

    /// Runs the CDCL main loop to completion.
    pub fn solve(&mut self) -> SatResult {
        self.solve_with(&[])
    }

    /// Solves under *assumptions*: literals treated as forced decisions for
    /// this call only. Learnt clauses persist across calls (they follow
    /// from the clause set alone), so repeated assumption queries share
    /// work — the incremental pattern behind backbone computation and
    /// certain-atom extraction.
    ///
    /// Returns `Unsat` when the clauses are unsatisfiable *under the
    /// assumptions*; unless the clause set itself is unsatisfiable, the
    /// solver remains usable for further calls.
    ///
    /// Every path that leaves level 0 propagates it first, and every
    /// return backtracks to it, so the root trail is fully propagated
    /// here and the call starts at the first assumption.
    pub fn solve_with(&mut self, assumptions: &[Lit]) -> SatResult {
        if !self.ok {
            return SatResult::Unsat;
        }
        self.backtrack_to(0);
        debug_assert_eq!(
            self.prop_head,
            self.trail.len(),
            "root trail not propagated"
        );
        #[cfg(test)]
        if self.reference {
            self.prop_head = 0;
        }
        loop {
            if let Some(confl) = self.propagate() {
                self.conflicts += 1;
                if self.current_level() == 0 {
                    // Conflict below every assumption: globally unsat.
                    self.ok = false;
                    return SatResult::Unsat;
                }
                let (learnt, back_level) = self.analyze(confl);
                self.backtrack_to(back_level);
                self.decay_activity();
                self.learnt_clauses += 1;
                let asserting = learnt[0];
                if learnt.len() == 1 {
                    debug_assert_eq!(self.current_level(), 0);
                    if self.value(asserting) == Some(false) {
                        self.ok = false;
                        return SatResult::Unsat;
                    }
                    if self.value(asserting).is_none() {
                        self.enqueue(asserting, None);
                    }
                } else {
                    let ci = self.attach_clause(learnt);
                    if self.value(asserting).is_none() {
                        self.enqueue(asserting, Some(ci));
                    }
                }
            } else {
                // Install pending assumptions as decisions, one level each.
                let mut installed = false;
                let mut refuted = false;
                while self.current_level() < assumptions.len() as u32 {
                    let p = assumptions[self.current_level() as usize];
                    match self.value(p) {
                        Some(true) => {
                            // Already true: open an empty level so the
                            // assumption index keeps advancing.
                            self.trail_lim.push(self.trail.len());
                        }
                        Some(false) => {
                            refuted = true;
                            break;
                        }
                        None => {
                            self.decisions += 1;
                            self.trail_lim.push(self.trail.len());
                            self.enqueue(p, None);
                            installed = true;
                            break;
                        }
                    }
                }
                if refuted {
                    // The clause set (plus earlier assumptions) falsifies
                    // this assumption: unsat under assumptions only.
                    self.backtrack_to(0);
                    return SatResult::Unsat;
                }
                if installed {
                    continue;
                }
                if !self.decide() {
                    // All variables assigned without conflict: a model.
                    let model: Vec<bool> = self
                        .assign
                        .iter()
                        .map(|v| v.expect("complete assignment"))
                        .collect();
                    // Leave the solver clean for the next incremental call.
                    self.backtrack_to(0);
                    return SatResult::Sat(model);
                }
            }
        }
    }
}

/// Computes the *backbone* of a clause set over the first `num_vars`
/// variables: for each variable, `Some(value)` when every model assigns it
/// that value, `None` when both values occur. Returns `None` for the whole
/// result when the clauses are unsatisfiable.
///
/// Implementation: one initial model, then one assumption query per
/// still-undetermined candidate, pruning candidates by intersecting with
/// each discovered model — all on a single solver, so learnt clauses
/// accumulate across queries.
pub fn backbone(solver: &mut Solver, num_vars: usize) -> Option<Vec<Option<bool>>> {
    let first = match solver.solve() {
        SatResult::Sat(m) => m,
        SatResult::Unsat => return None,
    };
    // Candidate backbone literals: the first model's assignments.
    let mut candidate: Vec<Option<bool>> = first.iter().copied().map(Some).collect();
    let mut result: Vec<Option<bool>> = vec![None; num_vars];
    for v in 0..num_vars.min(candidate.len()) {
        let Some(val) = candidate[v] else { continue };
        // Can the variable take the opposite value?
        match solver.solve_with(&[Lit::new(Var(v as u32), !val)]) {
            SatResult::Unsat => {
                result[v] = Some(val);
            }
            SatResult::Sat(m) => {
                // Every variable that flipped is not backbone: prune.
                for (i, c) in candidate.iter_mut().enumerate() {
                    if let Some(cv) = *c {
                        if m.get(i) != Some(&cv) {
                            *c = None;
                        }
                    }
                }
            }
        }
    }
    Some(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(v: i32) -> Lit {
        if v > 0 {
            Lit::pos(Var((v - 1) as u32))
        } else {
            Lit::neg(Var((-v - 1) as u32))
        }
    }

    /// Brute-force satisfiability check for cross-validation.
    fn brute_sat(num_vars: usize, clauses: &[Vec<Lit>]) -> bool {
        assert!(num_vars <= 20);
        'outer: for mask in 0u32..(1 << num_vars) {
            for c in clauses {
                let sat = c.iter().any(|&lit| {
                    let bit = (mask >> lit.var().0) & 1 == 1;
                    bit == lit.is_pos()
                });
                if !sat {
                    continue 'outer;
                }
            }
            return true;
        }
        false
    }

    fn check_model(model: &[bool], clauses: &[Vec<Lit>]) {
        for c in clauses {
            assert!(
                c.iter()
                    .any(|&lit| model[lit.var().index()] == lit.is_pos()),
                "model {model:?} violates clause {c:?}"
            );
        }
    }

    fn run(num_vars: usize, clauses: &[Vec<Lit>]) -> SatResult {
        let mut s = Solver::new(num_vars);
        for c in clauses {
            s.add_clause(c);
        }
        let r = s.solve();
        if let SatResult::Sat(m) = &r {
            check_model(m, clauses);
        }
        assert_eq!(
            r.is_sat(),
            brute_sat(num_vars, clauses),
            "disagrees with brute force"
        );
        r
    }

    #[test]
    fn lit_encoding() {
        let v = Var(3);
        assert_eq!(Lit::pos(v).var(), v);
        assert!(Lit::pos(v).is_pos());
        assert!(!Lit::neg(v).is_pos());
        assert_eq!(Lit::pos(v).negate(), Lit::neg(v));
        assert_eq!(Lit::neg(v).negate(), Lit::pos(v));
        assert_eq!(Lit::new(v, true), Lit::pos(v));
    }

    #[test]
    fn empty_formula_is_sat() {
        assert!(run(3, &[]).is_sat());
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new(1);
        assert!(!s.add_clause(&[]));
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn unit_clauses() {
        let r = run(2, &[vec![l(1)], vec![l(-2)]]);
        match r {
            SatResult::Sat(m) => {
                assert!(m[0]);
                assert!(!m[1]);
            }
            _ => panic!("expected sat"),
        }
    }

    #[test]
    fn contradictory_units_unsat() {
        assert_eq!(run(1, &[vec![l(1)], vec![l(-1)]]), SatResult::Unsat);
    }

    #[test]
    fn tautological_clause_ignored() {
        let mut s = Solver::new(2);
        assert!(s.add_clause(&[l(1), l(-1)]));
        assert!(s.solve().is_sat());
    }

    #[test]
    fn duplicate_literals_deduped() {
        assert!(run(1, &[vec![l(1), l(1), l(1)]]).is_sat());
    }

    #[test]
    fn chain_of_implications() {
        // x1 & (x1->x2) & ... & (x9->x10) forces all true.
        let mut clauses = vec![vec![l(1)]];
        for i in 1..10 {
            clauses.push(vec![l(-i), l(i + 1)]);
        }
        let r = run(10, &clauses);
        match r {
            SatResult::Sat(m) => assert!(m.iter().all(|&b| b)),
            _ => panic!("expected sat"),
        }
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // p_{ij}: pigeon i in hole j. 3 pigeons, 2 holes.
        // var index = i*2 + j + 1 (1-based for `l`).
        let p = |i: i32, j: i32| i * 2 + j + 1;
        let mut clauses = Vec::new();
        for i in 0..3 {
            clauses.push(vec![l(p(i, 0)), l(p(i, 1))]);
        }
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    clauses.push(vec![l(-p(i1, j)), l(-p(i2, j))]);
                }
            }
        }
        assert_eq!(run(6, &clauses), SatResult::Unsat);
    }

    #[test]
    fn random_3sat_matches_brute_force() {
        // Deterministic pseudo-random instance generation (xorshift).
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..200 {
            let nv = 3 + (next() % 8) as usize; // 3..=10 vars
            let nc = 2 + (next() % 30) as usize;
            let mut clauses = Vec::with_capacity(nc);
            for _ in 0..nc {
                let width = 1 + (next() % 3) as usize;
                let mut c = Vec::with_capacity(width);
                for _ in 0..width {
                    let v = (next() % nv as u64) as u32;
                    let sign = next() % 2 == 0;
                    c.push(Lit::new(Var(v), sign));
                }
                clauses.push(c);
            }
            let _ = run(nv, &clauses); // run() asserts agreement with brute force
            let _ = trial;
        }
    }

    #[test]
    fn blocking_clauses_after_solve() {
        // Enumerate all 4 models of "no constraints over 2 vars" by blocking.
        let mut s = Solver::new(2);
        let mut models = Vec::new();
        while let SatResult::Sat(m) = s.solve() {
            {
                {
                    let block: Vec<Lit> = m
                        .iter()
                        .enumerate()
                        .map(|(i, &b)| Lit::new(Var(i as u32), !b))
                        .collect();
                    models.push(m);
                    if !s.add_clause(&block) {
                        break;
                    }
                }
            }
        }
        assert_eq!(models.len(), 4);
        models.sort();
        models.dedup();
        assert_eq!(models.len(), 4);
    }

    #[test]
    fn assumptions_are_temporary() {
        // x0 ∨ x1; assuming ¬x0 forces x1; afterwards both free again.
        let mut s = Solver::new(2);
        s.add_clause(&[l(1), l(2)]);
        match s.solve_with(&[l(-1)]) {
            SatResult::Sat(m) => {
                assert!(!m[0]);
                assert!(m[1]);
            }
            SatResult::Unsat => panic!("satisfiable under assumption"),
        }
        // Contradictory assumptions: unsat under assumptions only.
        assert_eq!(s.solve_with(&[l(1), l(-1)]), SatResult::Unsat);
        // Solver still alive.
        assert!(s.solve().is_sat());
        assert!(s.solve_with(&[l(1)]).is_sat());
    }

    #[test]
    fn assumptions_respect_learnt_units() {
        let mut s = Solver::new(2);
        s.add_clause(&[l(1)]); // x0 forced
        assert_eq!(s.solve_with(&[l(-1)]), SatResult::Unsat);
        assert!(s.solve().is_sat()); // still globally sat
    }

    #[test]
    fn assumptions_match_clause_conditioning() {
        // Cross-check: solve_with(a) must equal solving a fresh solver with
        // the assumption added as a unit clause.
        let mut state = 0x600D_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..100 {
            let nv = 3 + (next() % 5) as usize;
            let nc = 2 + (next() % 15) as usize;
            let clauses: Vec<Vec<Lit>> = (0..nc)
                .map(|_| {
                    (0..(1 + next() % 3))
                        .map(|_| Lit::new(Var((next() % nv as u64) as u32), next() % 2 == 0))
                        .collect()
                })
                .collect();
            let mut incremental = Solver::new(nv);
            let mut base_ok = true;
            for c in &clauses {
                base_ok &= incremental.add_clause(c);
            }
            for trial in 0..4 {
                let a = Lit::new(Var((next() % nv as u64) as u32), next() % 2 == 0);
                let inc = incremental.solve_with(&[a]).is_sat();
                let mut fresh = Solver::new(nv);
                let mut ok = true;
                for c in &clauses {
                    ok &= fresh.add_clause(c);
                }
                ok &= fresh.add_clause(&[a]);
                let reference = ok && fresh.solve().is_sat();
                assert_eq!(inc, reference, "trial {trial}, assumption {a:?}");
            }
            let _ = base_ok;
        }
    }

    #[test]
    fn backbone_detects_forced_variables() {
        // x0, x0→x1, x2 free: backbone is {x0: true, x1: true, x2: –}.
        let mut s = Solver::new(3);
        s.add_clause(&[l(1)]);
        s.add_clause(&[l(-1), l(2)]);
        let bb = backbone(&mut s, 3).expect("satisfiable");
        assert_eq!(bb, vec![Some(true), Some(true), None]);
    }

    #[test]
    fn backbone_of_unsat_is_none() {
        let mut s = Solver::new(1);
        s.add_clause(&[l(1)]);
        s.add_clause(&[l(-1)]);
        assert_eq!(backbone(&mut s, 1), None);
    }

    #[test]
    fn backbone_matches_enumeration() {
        let mut state = 0xBB_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..100 {
            let nv = 2 + (next() % 5) as usize;
            let nc = 1 + (next() % 12) as usize;
            let clauses: Vec<Vec<Lit>> = (0..nc)
                .map(|_| {
                    (0..(1 + next() % 3))
                        .map(|_| Lit::new(Var((next() % nv as u64) as u32), next() % 2 == 0))
                        .collect()
                })
                .collect();
            // Reference: sweep all assignments.
            let mut always: Vec<Option<Option<bool>>> = vec![None; nv]; // None=unseen
            let mut any = false;
            'outer: for mask in 0u32..(1 << nv) {
                for c in &clauses {
                    if !c
                        .iter()
                        .any(|lit| ((mask >> lit.var().0) & 1 == 1) == lit.is_pos())
                    {
                        continue 'outer;
                    }
                }
                any = true;
                for (v, slot) in always.iter_mut().enumerate() {
                    let bit = (mask >> v) & 1 == 1;
                    *slot = match *slot {
                        None => Some(Some(bit)),
                        Some(Some(prev)) if prev == bit => Some(Some(bit)),
                        _ => Some(None),
                    };
                }
            }
            let mut s = Solver::new(nv);
            let mut ok = true;
            for c in &clauses {
                ok &= s.add_clause(c);
            }
            let bb = backbone(&mut s, nv);
            if !any {
                assert_eq!(bb, None);
            } else {
                let expected: Vec<Option<bool>> =
                    always.iter().map(|o| o.unwrap_or(None)).collect();
                assert_eq!(bb, Some(expected), "clauses: {clauses:?} ok: {ok}");
            }
        }
    }

    #[test]
    fn ensure_vars_grows() {
        let mut s = Solver::new(1);
        s.ensure_vars(5);
        assert!(s.add_clause(&[l(5)]));
        assert!(s.solve().is_sat());
    }

    /// A solver running the kernel the decision heap replaced.
    fn reference_solver(num_vars: usize) -> Solver {
        let mut s = Solver::new(num_vars);
        s.reference = true;
        s
    }

    /// A random 3-SAT instance at the satisfiability threshold (4.26
    /// clauses per variable), three distinct variables per clause.
    fn threshold_3sat(next: &mut impl FnMut() -> u64, nv: usize) -> Vec<Vec<Lit>> {
        let nc = (nv as f64 * 4.26).round() as usize;
        (0..nc)
            .map(|_| {
                let mut vars: Vec<u32> = Vec::with_capacity(3);
                while vars.len() < 3 {
                    let v = (next() % nv as u64) as u32;
                    if !vars.contains(&v) {
                        vars.push(v);
                    }
                }
                vars.into_iter()
                    .map(|v| Lit::new(Var(v), next().is_multiple_of(2)))
                    .collect()
            })
            .collect()
    }

    /// Feeds the same clauses and the same assumption solves to the heap
    /// kernel and the reference kernel and asserts identical results,
    /// models included. Returns the conflicts the heap kernel met.
    fn assert_kernels_agree(
        next: &mut impl FnMut() -> u64,
        nv: usize,
        clauses: &[Vec<Lit>],
        solves: usize,
    ) -> u64 {
        let mut heap = Solver::new(nv);
        let mut scan = reference_solver(nv);
        for c in clauses {
            assert_eq!(heap.add_clause(c), scan.add_clause(c));
        }
        for round in 0..solves {
            let assumptions: Vec<Lit> = (0..next() % 4)
                .map(|_| Lit::new(Var((next() % nv as u64) as u32), next().is_multiple_of(2)))
                .collect();
            let got = heap.solve_with(&assumptions);
            assert_eq!(
                got,
                scan.solve_with(&assumptions),
                "solve {round} under {assumptions:?} diverged"
            );
            if let SatResult::Sat(m) = &got {
                check_model(m, clauses);
                // Block the model now and then, so later solves start
                // from a changed clause set.
                if next().is_multiple_of(3) {
                    let block: Vec<Lit> = m
                        .iter()
                        .enumerate()
                        .map(|(i, &b)| Lit::new(Var(i as u32), !b))
                        .collect();
                    assert_eq!(heap.add_clause(&block), scan.add_clause(&block));
                }
            }
            assert_eq!(heap.decisions, scan.decisions, "solve {round}");
            assert_eq!(heap.conflicts, scan.conflicts, "solve {round}");
        }
        heap.conflicts
    }

    #[test]
    fn heap_kernel_matches_the_scan_kernel_on_threshold_3sat() {
        let mut state = 0xD1FF_5EEDu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut conflicts = 0;
        for _ in 0..80 {
            let nv = 20 + (next() % 100) as usize;
            let clauses = threshold_3sat(&mut next, nv);
            conflicts += assert_kernels_agree(&mut next, nv, &clauses, 8);
        }
        assert!(
            conflicts > 1000,
            "instances too easy: {conflicts} conflicts"
        );
    }

    #[test]
    fn heap_kernel_matches_the_scan_kernel_past_an_activity_rescale() {
        // The increment grows by 1/0.95 per conflict, so the first bump
        // past 1e100 (a rescale) comes after at most ~4 490 conflicts.
        let rescale_after = (ACTIVITY_RESCALE.ln() / (1.0 / ACTIVITY_DECAY).ln()).ceil() as u64;
        let mut state = 0x4E5C_A1E5u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let nv = 150;
        let clauses = threshold_3sat(&mut next, nv);
        let conflicts = assert_kernels_agree(&mut next, nv, &clauses, 12);
        assert!(
            conflicts > rescale_after,
            "{conflicts} conflicts never reached a rescale (needs {rescale_after})"
        );
    }

    #[test]
    fn a_rescale_reorders_activities_that_underflow_to_equal() {
        let mut s = Solver::new(3);
        s.activity = vec![1e-300, 2e-300, 0.0];
        s.heap_rebuild();
        // One bump of x2 past the threshold divides every activity by
        // 1e100: x0's and x1's both underflow to 0 and tie, so index
        // order puts x0 first again.
        s.act_inc = 2.0 * ACTIVITY_RESCALE;
        s.bump_activity(Var(2));
        assert_eq!(s.activity[0], s.activity[1]);
        assert!(s.decide() && s.decide());
        assert_eq!(s.trail, vec![l(-3), l(-1)]);
    }

    #[test]
    fn root_trail_is_propagated_before_every_solve() {
        // Units added between solves propagate as they are added, so a
        // solve never needs to revisit the root trail.
        let mut s = Solver::new(4);
        s.add_clause(&[l(-1), l(2)]);
        s.add_clause(&[l(-2), l(3)]);
        assert!(s.solve().is_sat());
        s.add_clause(&[l(1)]);
        assert_eq!(s.prop_head, s.trail.len());
        assert_eq!(s.trail.len(), 3, "x1 → x2 → x3 at the root");
        let before = s.propagations;
        match s.solve_with(&[l(-4)]) {
            SatResult::Sat(m) => assert_eq!(m, vec![true, true, true, false]),
            SatResult::Unsat => panic!("satisfiable"),
        }
        assert_eq!(s.propagations - before, 1, "only the assumption propagates");
    }
}
