//! The `query` experiment behind `BENCH_query.json`: incremental
//! entailment sessions measured against the legacy fresh-solver-per-check
//! path on a repeated-entailment query workload.
//!
//! The workload is the E11 shape: an Orders(r) theory with residual
//! disjunctive facts (so certain and possible answers genuinely differ), a
//! mixed query set — a full scan, a multi-relation join, and a
//! constant-bound query with safe negation — evaluated `rounds` times over.
//! Both decision strategies run in the same binary over *identical*
//! candidate sets:
//!
//! * **legacy** — what `Theory::consistent_with`/`Theory::entails` did
//!   before the session refactor: every check Tseitin-encodes the whole
//!   model-constraint section plus the candidate wff into a fresh solver,
//!   solves once, and throws everything away.
//! * **session** — one [`winslett_logic::EntailmentSession`] built from the same
//!   constraints: the base is encoded once, every candidate wff is encoded
//!   once behind an activation literal, and every check is an
//!   assumption-solve that keeps learnt clauses alive.
//!
//! Verdicts must agree check-for-check, and the session verdicts are also
//! cross-checked against the production [`Query::evaluate`] path. The
//! emitted JSON is validated by re-parsing into [`QueryBench`] — the shape
//! gate behind `make bench-smoke`.

use crate::kernel;
use crate::report::Table;
use serde::{Deserialize, Serialize};
use std::time::Instant;
use winslett_core::{Query, Workload};
use winslett_logic::{cnf::Tseitin, Wff};
use winslett_theory::Theory;

/// Solver-side counters for one decision strategy's full run.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct SolveCounters {
    /// SAT solves performed (two per candidate binding that is possible,
    /// one per candidate that is not).
    pub solves: u64,
    /// Wff-to-CNF encodings performed. Legacy re-encodes the constraint
    /// section for every solve; the session encodes each wff once.
    pub encodes: u64,
    /// Encodings skipped because the wff's activation literal was already
    /// cached (always 0 for the legacy path).
    pub encode_reuse_hits: u64,
    /// Unit propagations across all solves.
    pub propagations: u64,
    /// Conflicts across all solves.
    pub conflicts: u64,
}

/// One decision strategy's measured run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PathRun {
    /// Wall time of the full workload, µs (for the session path this
    /// includes building the session from the theory).
    pub total_us: f64,
    /// Solver counters accumulated over the run.
    pub stats: SolveCounters,
}

/// The complete `BENCH_query.json` document.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct QueryBench {
    /// Format version, for forward compatibility.
    pub version: u32,
    /// Experiment id — always `"query"`.
    pub experiment: String,
    /// Human description of the workload.
    pub workload: String,
    /// Times the whole query set was evaluated.
    pub rounds: u64,
    /// Distinct queries in the set.
    pub queries: u64,
    /// Candidate bindings per round, summed over the query set.
    pub candidate_bindings: u64,
    /// `std::thread::available_parallelism()` on the measuring host.
    pub host_parallelism: u64,
    /// Whether legacy and session verdicts agreed on every check *and* the
    /// session verdicts reproduce `Query::evaluate`. Must be `true`.
    pub identical_answers: bool,
    /// Legacy total time / session total time.
    pub session_speedup: f64,
    /// The fresh-solver-per-check run.
    pub legacy: PathRun,
    /// The incremental-session run.
    pub session: PathRun,
    /// Free-form observations.
    pub notes: Vec<String>,
}

/// Per-candidate verdicts, `(possible, certain)`, in workload order.
type Verdicts = Vec<(bool, bool)>;

/// The legacy decision path: a fresh Tseitin encoding and solver per
/// check, exactly as `Theory::consistent_with`/`Theory::entails` worked
/// before the session refactor (minus their per-call reconstruction of the
/// constraint list, which is hoisted here — flattering the legacy path).
fn run_legacy(
    constraints: &[Wff],
    num_atoms: usize,
    rounds: usize,
    candidate_sets: &[Vec<(Vec<String>, Wff)>],
) -> (PathRun, Verdicts) {
    let mut stats = SolveCounters::default();
    let mut verdicts = Vec::new();
    let solve = |stats: &mut SolveCounters, query_wff: &Wff, negated: bool| -> bool {
        let mut ts = Tseitin::new(num_atoms);
        for c in constraints {
            ts.assert_true(c);
        }
        if negated {
            ts.assert_false(query_wff);
        } else {
            ts.assert_true(query_wff);
        }
        let mut solver = ts.finish().into_solver();
        let sat = solver.solve().is_sat();
        stats.solves += 1;
        stats.encodes += constraints.len() as u64 + 1;
        stats.propagations += solver.propagations;
        stats.conflicts += solver.conflicts;
        sat
    };
    let start = Instant::now();
    for _ in 0..rounds {
        for cands in candidate_sets {
            for (_, wff) in cands {
                let possible = solve(&mut stats, wff, false);
                let certain = possible && !solve(&mut stats, wff, true);
                verdicts.push((possible, certain));
            }
        }
    }
    let total_us = start.elapsed().as_secs_f64() * 1e6;
    (PathRun { total_us, stats }, verdicts)
}

/// The session decision path: one [`winslett_logic::EntailmentSession`] over the same
/// constraints, reused across every check of every round.
fn run_session(
    theory: &Theory,
    rounds: usize,
    candidate_sets: &[Vec<(Vec<String>, Wff)>],
) -> (PathRun, Verdicts) {
    let mut verdicts = Vec::new();
    let start = Instant::now();
    let mut session = theory.fresh_entailment_session();
    for _ in 0..rounds {
        for cands in candidate_sets {
            for (_, wff) in cands {
                let l = session.literal_for(wff);
                let possible = session.satisfiable_under(&[l]);
                let certain = possible && !session.satisfiable_under(&[l.negate()]);
                verdicts.push((possible, certain));
            }
        }
    }
    let total_us = start.elapsed().as_secs_f64() * 1e6;
    let s = session.stats();
    let stats = SolveCounters {
        solves: s.assumption_solves,
        encodes: s.base_wffs + s.encoded_wffs,
        encode_reuse_hits: s.encode_reuse_hits,
        propagations: session.solver_mut().propagations,
        conflicts: session.solver_mut().conflicts,
    };
    (PathRun { total_us, stats }, verdicts)
}

/// Builds the E11-style workload, measures both decision paths, and
/// assembles the `BENCH_query.json` document.
pub fn run_query_bench(r: usize, rounds: usize) -> QueryBench {
    let mut w = Workload::new(0x9E11);
    let (mut theory, _) = w.orders_theory(r);
    // Residual incompleteness: disjunctive facts over fresh Orders atoms,
    // loaded directly as wffs. Their atoms are possible but not certain,
    // so the two solves per candidate genuinely diverge.
    for i in 0..(r / 8).max(2) {
        let u = w.disjunctive_insert(&mut theory, 2, i);
        theory.assert_wff(&u.to_insert().omega);
    }
    let texts = [
        "?- Orders(?o, ?p, ?q)",
        "?- Orders(?o, ?p, ?q) & InStock(?p, ?q)",
        "?- Orders(?o, 32, ?q) & !InStock(32, ?q)",
    ];
    let parsed: Vec<Query> = texts
        .iter()
        .map(|t| Query::parse(t, &theory).expect("workload queries parse"))
        .collect();
    let candidate_sets: Vec<Vec<(Vec<String>, Wff)>> = parsed
        .iter()
        .map(|q| {
            q.candidate_instances(&theory)
                .expect("candidates enumerate")
        })
        .collect();
    let candidate_bindings: u64 = candidate_sets.iter().map(|c| c.len() as u64).sum();

    let constraints = theory.model_constraints();
    let num_atoms = theory.num_atoms();
    let (legacy, legacy_verdicts) = run_legacy(&constraints, num_atoms, rounds, &candidate_sets);
    let (session, session_verdicts) = run_session(&theory, rounds, &candidate_sets);

    // Check-for-check agreement, plus agreement with the production path:
    // answers assembled from the first round of session verdicts must
    // reproduce `Query::evaluate` exactly.
    let mut identical_answers = legacy_verdicts == session_verdicts;
    let mut offset = 0;
    for (q, cands) in parsed.iter().zip(&candidate_sets) {
        let production = q.evaluate(&theory).expect("production evaluate");
        let mut certain: Vec<Vec<String>> = Vec::new();
        let mut possible: Vec<Vec<String>> = Vec::new();
        for (i, (row, _)) in cands.iter().enumerate() {
            let (p, c) = session_verdicts[offset + i];
            if p {
                if c {
                    certain.push(row.clone());
                }
                possible.push(row.clone());
            }
        }
        offset += cands.len();
        certain.sort();
        certain.dedup();
        possible.sort();
        possible.dedup();
        identical_answers &= certain == production.certain && possible == production.possible;
    }

    let host_parallelism = kernel::host_parallelism();
    let session_speedup = legacy.total_us / session.total_us;
    let notes = vec![
        format!(
            "legacy re-encodes the {}-wff constraint section for every solve \
             ({} encodings total); the session encodes it once and reuses \
             {} cached activation literals.",
            constraints.len(),
            legacy.stats.encodes,
            session.stats.encode_reuse_hits
        ),
        "certain is only solved for possible candidates on both paths, so \
         solve counts match and the speedup isolates encoding reuse plus \
         retained learnt clauses."
            .to_owned(),
    ];
    QueryBench {
        version: 1,
        experiment: "query".to_owned(),
        workload: format!(
            "E11-style: {} queries × {rounds} rounds over Orders({r}) with \
             {} disjunctive residual facts",
            texts.len(),
            (r / 8).max(2)
        ),
        rounds: rounds as u64,
        queries: texts.len() as u64,
        candidate_bindings,
        host_parallelism,
        identical_answers,
        session_speedup,
        legacy,
        session,
        notes,
    }
}

/// Shape-validates `BENCH_query.json` text by re-parsing it into
/// [`QueryBench`] and checking the cross-field invariants. Returns the
/// parsed document on success; `make bench-smoke` fails on `Err`.
pub fn validate_query_bench(text: &str) -> Result<QueryBench, String> {
    let b: QueryBench = kernel::parse(text, "query", 1)?;
    if b.rounds == 0 || b.queries == 0 || b.candidate_bindings == 0 {
        return Err(
            "workload collapsed: rounds, queries, and candidate_bindings must be > 0".into(),
        );
    }
    if !b.identical_answers {
        return Err("legacy and session paths disagree on some verdict".into());
    }
    for (label, run) in [("legacy", &b.legacy), ("session", &b.session)] {
        if run.stats.solves == 0 {
            return Err(format!("{label} run performed no solves"));
        }
        kernel::positive(run.total_us, &format!("{label} total_us"))?;
    }
    if b.legacy.stats.solves != b.session.stats.solves {
        return Err(format!(
            "solve counts diverge: legacy {} vs session {} — the paths did \
             different logical work",
            b.legacy.stats.solves, b.session.stats.solves
        ));
    }
    if b.session.stats.encodes >= b.legacy.stats.encodes {
        return Err(format!(
            "session encoded {} wffs, legacy {} — the session is not \
             amortizing encodings",
            b.session.stats.encodes, b.legacy.stats.encodes
        ));
    }
    if b.session.stats.encode_reuse_hits == 0 {
        return Err("session recorded no encode-reuse hits on a repeated workload".into());
    }
    if b.legacy.stats.encode_reuse_hits != 0 {
        return Err("legacy path cannot have encode-reuse hits".into());
    }
    if !(b.session_speedup.is_finite() && b.session_speedup >= 2.0) {
        return Err(format!(
            "session_speedup is {:.2}, below the ×2 acceptance floor",
            b.session_speedup
        ));
    }
    if b.host_parallelism == 0 {
        return Err("host_parallelism is 0".into());
    }
    Ok(b)
}

/// Renders the bench result as a harness table.
pub fn query_table(b: &QueryBench) -> Table {
    let mut t = Table::new(
        "QUERY",
        "incremental entailment session vs fresh solver per check (repeated query workload)",
        &[
            "path",
            "total µs",
            "solves",
            "encodes",
            "reuse hits",
            "propagations",
            "conflicts",
        ],
    );
    for (label, r) in [("legacy", &b.legacy), ("session", &b.session)] {
        t.row(vec![
            label.to_owned(),
            format!("{:.1}", r.total_us),
            r.stats.solves.to_string(),
            r.stats.encodes.to_string(),
            r.stats.encode_reuse_hits.to_string(),
            r.stats.propagations.to_string(),
            r.stats.conflicts.to_string(),
        ]);
    }
    t.note(format!(
        "{} queries × {} rounds, {} candidate bindings/round; host parallelism {}",
        b.queries, b.rounds, b.candidate_bindings, b.host_parallelism
    ));
    t.note(format!(
        "session speedup ×{:.2}, identical answers: {}",
        b.session_speedup, b.identical_answers
    ));
    t.notes.extend(b.notes.iter().cloned());
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_bench_runs_and_round_trips() {
        let b = run_query_bench(8, 2);
        assert!(b.identical_answers);
        assert_eq!(b.queries, 3);
        assert!(b.candidate_bindings > 0);
        assert_eq!(b.legacy.stats.solves, b.session.stats.solves);
        assert!(b.session.stats.encode_reuse_hits > 0);
        let text = serde_json::to_string_pretty(&b).expect("serializes");
        let back = validate_query_bench(&text).expect("validates");
        assert_eq!(back.rounds, 2);
    }

    #[test]
    fn validation_rejects_broken_documents() {
        let b = run_query_bench(8, 2);
        let mut bad = b.clone();
        bad.identical_answers = false;
        let text = serde_json::to_string_pretty(&bad).expect("serializes");
        assert!(validate_query_bench(&text)
            .unwrap_err()
            .contains("disagree"));
        let mut bad = b.clone();
        bad.session_speedup = 1.1;
        let text = serde_json::to_string_pretty(&bad).expect("serializes");
        assert!(validate_query_bench(&text)
            .unwrap_err()
            .contains("acceptance floor"));
        let mut bad = b.clone();
        bad.session.stats.encodes = bad.legacy.stats.encodes;
        let text = serde_json::to_string_pretty(&bad).expect("serializes");
        assert!(validate_query_bench(&text)
            .unwrap_err()
            .contains("amortizing"));
        assert!(validate_query_bench("{").is_err());
    }

    #[test]
    fn table_renders_both_rows() {
        let b = run_query_bench(8, 2);
        let rendered = query_table(&b).render();
        assert!(rendered.contains("legacy"));
        assert!(rendered.contains("session"));
    }
}
