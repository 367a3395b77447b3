//! The `worlds` experiment behind `BENCH_worlds.json`: the parallel
//! possible-worlds engine measured against its own sequential path on an
//! E7-style branching workload.
//!
//! `k` disjunctive inserts of width 2 over the Orders theory multiply the
//! world count by 3 each (ω = g₁ ∨ g₂ has three satisfying valuations), so
//! the script ends at 3^k worlds — 6561 ≥ 2^12 at the default k = 8. The
//! same update script runs twice, once `with_threads(1)` and once with the
//! requested worker count; the result records wall times, the engine's
//! [`EngineStats`] counters, and whether the two runs produced byte-
//! identical canonical world vectors (they must — see the proptest in
//! `tests/commutative_diagram.rs`).
//!
//! Everything is (de)serializable, so the harness validates the emitted
//! JSON by re-parsing it into [`WorldsBench`] — the shape check behind
//! `make bench-smoke`.

use crate::kernel;
use crate::report::Table;
use serde::{Deserialize, Serialize};
use std::time::Instant;
use winslett_core::Workload;
use winslett_ldml::Update;
use winslett_logic::{BitSet, ModelLimit};
use winslett_worlds::{EngineStats, WorldsEngine};

/// Portable snapshot of [`EngineStats`] (the non-timing counters; wall
/// times live on [`EngineRun`], measured around the whole script).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StatsDump {
    /// Update applications performed.
    pub applies: u64,
    /// Total worlds fed into those applies.
    pub worlds_in: u64,
    /// Total worlds remaining after rule 3 and dedup.
    pub worlds_out: u64,
    /// Candidate models produced by the §3.2 semantics, pre-filter.
    pub models_produced: u64,
    /// Candidates discarded by rule 3 (type/dependency axioms).
    pub rule3_filtered: u64,
    /// Compilations skipped thanks to the `apply_all` cache.
    pub compile_reuse_hits: u64,
}

impl From<&EngineStats> for StatsDump {
    fn from(s: &EngineStats) -> Self {
        StatsDump {
            applies: s.applies,
            worlds_in: s.worlds_in,
            worlds_out: s.worlds_out,
            models_produced: s.models_produced,
            rule3_filtered: s.rule3_filtered,
            compile_reuse_hits: s.compile_reuse_hits,
        }
    }
}

/// One engine configuration's measured run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EngineRun {
    /// Pinned worker thread count.
    pub threads: u64,
    /// Wall time of the full update script, µs.
    pub apply_us: f64,
    /// Wall time of the certain-truth probe, µs.
    pub entails_us: f64,
    /// Engine counters after the script.
    pub stats: StatsDump,
}

/// The complete `BENCH_worlds.json` document.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WorldsBench {
    /// Format version, for forward compatibility.
    pub version: u32,
    /// Experiment id — always `"worlds"`.
    pub experiment: String,
    /// Human description of the workload.
    pub workload: String,
    /// Number of branching updates in the script (`k`).
    pub branching_updates: u64,
    /// Worlds after the full script (3^k).
    pub final_worlds: u64,
    /// `std::thread::available_parallelism()` on the measuring host —
    /// speedups are only meaningful relative to this.
    pub host_parallelism: u64,
    /// Whether the sequential and parallel runs produced byte-identical
    /// canonical world vectors. Must be `true`.
    pub identical_worlds: bool,
    /// Sequential apply time / parallel apply time.
    pub apply_speedup: f64,
    /// Sequential entails time / parallel entails time.
    pub entails_speedup: f64,
    /// The `with_threads(1)` run.
    pub sequential: EngineRun,
    /// The multi-threaded run.
    pub parallel: EngineRun,
    /// Free-form observations.
    pub notes: Vec<String>,
}

/// Runs the workload at a pinned thread count and snapshots the result.
fn run_config(
    theory: &winslett_theory::Theory,
    updates: &[Update],
    probe: &winslett_logic::Wff,
    threads: usize,
) -> (EngineRun, Vec<BitSet>) {
    let mut engine = WorldsEngine::from_theory(theory, ModelLimit::default())
        .expect("E7-style workload materializes")
        .with_threads(threads);
    let start = Instant::now();
    engine.apply_all(updates, theory).expect("updates apply");
    let apply_us = start.elapsed().as_secs_f64() * 1e6;
    let start = Instant::now();
    let entailed = engine.entails(probe);
    let entails_us = start.elapsed().as_secs_f64() * 1e6;
    assert!(entailed, "the inserted ω must be certain in every world");
    let run = EngineRun {
        threads: threads as u64,
        apply_us,
        entails_us,
        stats: engine.stats().into(),
    };
    (run, engine.worlds().to_vec())
}

/// Builds the E7-style script, measures sequential vs `par_threads`, and
/// assembles the `BENCH_worlds.json` document.
pub fn run_worlds_bench(k: usize, par_threads: usize) -> WorldsBench {
    let mut w = Workload::new(0xE7);
    let (mut theory, _) = w.orders_theory(4);
    let updates: Vec<Update> = (0..k)
        .map(|i| w.disjunctive_insert(&mut theory, 2, i))
        .collect();
    let probe = updates[0].to_insert().omega;

    let (sequential, seq_worlds) = run_config(&theory, &updates, &probe, 1);
    let (parallel, par_worlds) = run_config(&theory, &updates, &probe, par_threads);

    let host_parallelism = kernel::host_parallelism();
    let identical_worlds = seq_worlds == par_worlds;
    let apply_speedup = sequential.apply_us / parallel.apply_us;
    let entails_speedup = sequential.entails_us / parallel.entails_us;
    let mut notes = vec![format!(
        "k disjunctive inserts of width 2 over Orders(4): worlds grow 3^k \
         (here 3^{k} = {}).",
        seq_worlds.len()
    )];
    if host_parallelism < parallel.threads {
        notes.push(format!(
            "host exposes only {host_parallelism} hardware thread(s); with \
             {} workers oversubscribed, speedup ≈ 1 is the honest expectation \
             — thread-count independence of the *result* is what the \
             identical_worlds flag and the proptest certify.",
            parallel.threads
        ));
    }
    WorldsBench {
        version: 1,
        experiment: "worlds".to_owned(),
        workload: format!("E7-style: {k} disjunctive inserts (width 2) over Orders(4)"),
        branching_updates: k as u64,
        final_worlds: seq_worlds.len() as u64,
        host_parallelism,
        identical_worlds,
        apply_speedup,
        entails_speedup,
        sequential,
        parallel,
        notes,
    }
}

/// Shape-validates `BENCH_worlds.json` text by re-parsing it into
/// [`WorldsBench`] and checking the cross-field invariants. Returns the
/// parsed document on success; `make bench-smoke` fails on `Err`.
pub fn validate_worlds_bench(text: &str) -> Result<WorldsBench, String> {
    let b: WorldsBench = kernel::parse(text, "worlds", 1)?;
    if b.final_worlds == 0 {
        return Err("final_worlds is 0 — the workload collapsed".to_owned());
    }
    if !b.identical_worlds {
        return Err("sequential and parallel runs disagree on the world set".to_owned());
    }
    if b.sequential.threads != 1 {
        return Err(format!(
            "sequential run used {} threads, expected 1",
            b.sequential.threads
        ));
    }
    if b.parallel.threads < 2 {
        return Err(format!(
            "parallel run used {} thread(s), expected ≥ 2",
            b.parallel.threads
        ));
    }
    for (label, run) in [("sequential", &b.sequential), ("parallel", &b.parallel)] {
        if run.stats.applies != b.branching_updates {
            return Err(format!(
                "{label} run records {} applies for {} updates",
                run.stats.applies, b.branching_updates
            ));
        }
        if run.stats.worlds_out < b.final_worlds {
            return Err(format!(
                "{label} run's cumulative worlds_out ({}) is below final_worlds ({})",
                run.stats.worlds_out, b.final_worlds
            ));
        }
        kernel::positive(run.apply_us, &format!("{label} apply_us"))?;
    }
    kernel::positive(b.apply_speedup, "apply_speedup")?;
    if b.host_parallelism == 0 {
        return Err("host_parallelism is 0".to_owned());
    }
    Ok(b)
}

/// Renders the bench result as a harness table.
pub fn worlds_table(b: &WorldsBench) -> Table {
    let mut t = Table::new(
        "WORLDS",
        "parallel worlds engine vs sequential (E7-style branching script)",
        &[
            "engine",
            "threads",
            "apply µs",
            "entails µs",
            "models produced",
            "rule3 filtered",
            "reuse hits",
        ],
    );
    for (label, r) in [("sequential", &b.sequential), ("parallel", &b.parallel)] {
        t.row(vec![
            label.to_owned(),
            r.threads.to_string(),
            format!("{:.1}", r.apply_us),
            format!("{:.1}", r.entails_us),
            r.stats.models_produced.to_string(),
            r.stats.rule3_filtered.to_string(),
            r.stats.compile_reuse_hits.to_string(),
        ]);
    }
    t.note(format!(
        "k = {} branching updates → {} final worlds; host parallelism {}",
        b.branching_updates, b.final_worlds, b.host_parallelism
    ));
    t.note(format!(
        "apply speedup ×{:.2}, entails speedup ×{:.2}, identical worlds: {}",
        b.apply_speedup, b.entails_speedup, b.identical_worlds
    ));
    t.notes.extend(b.notes.iter().cloned());
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_bench_runs_and_round_trips() {
        let b = run_worlds_bench(3, 2);
        assert_eq!(b.final_worlds, 27); // 3^3
        assert!(b.identical_worlds);
        assert_eq!(b.sequential.stats.applies, 3);
        assert_eq!(b.parallel.stats.applies, 3);
        let text = serde_json::to_string_pretty(&b).expect("serializes");
        let back = validate_worlds_bench(&text).expect("validates");
        assert_eq!(back.final_worlds, 27);
    }

    #[test]
    fn validation_rejects_broken_documents() {
        let b = run_worlds_bench(2, 2);
        let mut bad = b.clone();
        bad.identical_worlds = false;
        let text = serde_json::to_string_pretty(&bad).expect("serializes");
        assert!(validate_worlds_bench(&text)
            .unwrap_err()
            .contains("disagree"));
        let mut bad = b.clone();
        bad.sequential.threads = 3;
        let text = serde_json::to_string_pretty(&bad).expect("serializes");
        assert!(validate_worlds_bench(&text)
            .unwrap_err()
            .contains("expected 1"));
        assert!(validate_worlds_bench("{").is_err());
    }

    #[test]
    fn table_renders_both_rows() {
        let b = run_worlds_bench(2, 2);
        let rendered = worlds_table(&b).render();
        assert!(rendered.contains("sequential"));
        assert!(rendered.contains("parallel"));
    }
}
