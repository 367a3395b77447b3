//! The `compaction` experiment behind `BENCH_compaction.json`: does
//! background Full compaction bound theory growth under a sustained
//! update stream, without changing a single query verdict?
//!
//! One fixed statement stream — a small key set cycled through
//! conditional INSERT/MODIFY/DELETE phases under persistently uncertain
//! flags, the §4 worst case where every uncertain update leaves frame
//! residue behind — runs twice over [`DurableDatabase`]:
//!
//! * **off**: inline `Fast` simplify only, the writer's own pass;
//! * **on**: the same stream, plus the three-phase compaction protocol
//!   (`begin_compaction` → off-lock `Full` simplify → `install_compacted`)
//!   every `period` statements, with one statement of the stream executed
//!   *inside* each capture window so every swap replays a racing write.
//!
//! Both runs sample store size on the same statement counts and evaluate
//! an identical probe panel (certain/possible per probe) at every sample
//! point; the harness proves verdict identity sample-by-sample and
//! compares the final alternative-world sets. Both runs end with a
//! checkpoint so the on-disk snapshot shrink is measured too.

use crate::kernel;
use crate::report::Table;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::time::Instant;
use winslett_core::wal::{DurableDatabase, SyncPolicy, WalOptions, SNAPSHOT_FILE};
use winslett_core::{DbOptions, MemStorage};
use winslett_gua::{simplify, SimplifyLevel};

/// Store size and probe verdicts at one point of the stream.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CompactionSample {
    /// Statements executed so far.
    pub statements: u64,
    /// Store nodes (§3.6 cost measure) at this point.
    pub nodes: u64,
    /// Live formulas at this point.
    pub formulas: u64,
    /// One char per probe: `C` certain, `P` possible but not certain,
    /// `F` impossible. Compared verbatim between the two runs.
    pub verdicts: String,
}

/// One run of the stream (with or without compaction).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CompactionRun {
    /// `"compaction-on"` or `"compaction-off"`.
    pub label: String,
    /// Store size + verdict samples over the stream.
    pub samples: Vec<CompactionSample>,
    /// Store nodes after the full stream.
    pub final_nodes: u64,
    /// Live formulas after the full stream.
    pub final_formulas: u64,
    /// Compaction rounds performed (0 for the off run).
    pub compactions: u64,
    /// Store nodes reclaimed across all swaps.
    pub nodes_reclaimed: u64,
    /// WAL records replayed onto compacted copies across all swaps —
    /// proof the racing-write path was exercised.
    pub swap_replayed: u64,
    /// Size of the final checkpoint snapshot, bytes.
    pub checkpoint_bytes: u64,
    /// Mean latency of one probe (certain + possible) on the final
    /// theory, µs.
    pub probe_mean_us: f64,
}

/// The complete `BENCH_compaction.json` document.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CompactionBench {
    /// Format version, for forward compatibility.
    pub version: u32,
    /// Experiment id — always `"compaction"`.
    pub experiment: String,
    /// Human description of the workload.
    pub workload: String,
    /// Statements in the stream (identical for both runs).
    pub statements: u64,
    /// Compaction period of the on run, in statements.
    pub period: u64,
    /// Probe panel size.
    pub probes: u64,
    /// Every sampled probe verdict matches between the runs. Must be
    /// `true`: compaction is semantically invisible.
    pub verdicts_identical: bool,
    /// The final alternative-world sets are identical. Must be `true`.
    pub worlds_match: bool,
    /// Off-run growth: final nodes / nodes at the first sample.
    pub growth_ratio_off: f64,
    /// On-run plateau: mean nodes over the last quarter of samples /
    /// mean over the second quarter. ≈1 for a plateau; grows without
    /// bound for a leak.
    pub plateau_ratio_on: f64,
    /// off final nodes / on final nodes — the headline contrast.
    pub nodes_ratio: f64,
    /// off checkpoint bytes / on checkpoint bytes.
    pub checkpoint_ratio: f64,
    /// The compacted run.
    pub on: CompactionRun,
    /// The inline-Fast-only run.
    pub off: CompactionRun,
    /// Free-form observations.
    pub notes: Vec<String>,
}

/// The fixed statement stream: `steps` update steps over 8 Item keys and
/// 4 Flags, flattened to individual statements. Phase 3 resolves one flag
/// and immediately re-opens fresh uncertainty, so the stream never runs
/// out of frame residue to accumulate.
fn stream(steps: usize) -> Vec<String> {
    let mut v = Vec::new();
    for i in 0..steps {
        let k = i % 8;
        let f = i % 4;
        match (i / 8) % 4 {
            0 => v.push(format!("INSERT Item({k},v0) WHERE Flag({f})")),
            1 => v.push(format!(
                "MODIFY Item({k},v0) TO BE Item({k},v1) WHERE Flag({f})"
            )),
            2 => v.push(format!("DELETE Item({k},v1) WHERE Flag({f})")),
            _ => {
                v.push(format!("ASSERT Flag({f})"));
                v.push(format!(
                    "INSERT Flag({}) | !Flag({}) WHERE T",
                    (f + 1) % 4,
                    (f + 2) % 4
                ));
            }
        }
    }
    v
}

/// The probe panel both runs answer at every sample point.
fn probe_panel() -> Vec<String> {
    let mut p = Vec::new();
    for k in 0..8 {
        p.push(format!("Item({k},v0)"));
        p.push(format!("Item({k},v1)"));
    }
    for f in 0..4 {
        p.push(format!("Flag({f})"));
    }
    p.push("Item(0,v1) | Item(1,v1)".to_owned());
    p.push("Flag(0) & Item(0,v0)".to_owned());
    p
}

fn open_db() -> DurableDatabase<MemStorage> {
    let wal_options = WalOptions {
        policy: SyncPolicy::Manual,
        // The WAL's own size-triggered checkpointing stays out of the way:
        // the experiment controls when snapshots are cut.
        compact_growth_factor: None,
        compact_min_nodes: 0,
    };
    let (mut ddb, _) = DurableDatabase::open(MemStorage::new(), DbOptions::default(), wal_options)
        .expect("bench open");
    ddb.declare_relation("Item", 2).expect("declare Item");
    ddb.declare_relation("Flag", 1).expect("declare Flag");
    // Seed persistent uncertainty: two disjunctions the stream conditions
    // every update on.
    ddb.execute("INSERT Flag(0) | Flag(1) WHERE T")
        .expect("seed");
    ddb.execute("INSERT Flag(2) | Flag(3) WHERE T")
        .expect("seed");
    // Pre-intern the probe vocabulary so early samples can parse probes
    // mentioning constants the stream has not introduced yet. Both runs
    // do this identically, so verdicts stay comparable.
    for k in 0..8 {
        ddb.db_mut().theory_mut().constant(&k.to_string());
    }
    ddb.db_mut().theory_mut().constant("v0");
    ddb.db_mut().theory_mut().constant("v1");
    ddb
}

/// Answers the panel on the current theory as one verdict string.
fn panel_verdicts(ddb: &mut DurableDatabase<MemStorage>, panel: &[String]) -> String {
    panel
        .iter()
        .map(|src| {
            let certain = ddb.db_mut().is_certain(src).expect("probe parses");
            if certain {
                'C'
            } else if ddb.db_mut().is_possible(src).expect("probe parses") {
                'P'
            } else {
                'F'
            }
        })
        .collect()
}

/// Runs the stream once. `period` = 0 disables compaction. Returns the
/// run record plus the final world set for cross-run comparison.
fn run_stream(
    statements: &[String],
    period: usize,
    sample_every: usize,
    panel: &[String],
) -> (CompactionRun, BTreeSet<Vec<String>>) {
    let mut ddb = open_db();
    let mut samples = Vec::new();
    let mut compactions = 0u64;
    let mut nodes_reclaimed = 0u64;
    let mut swap_replayed = 0u64;
    let mut since_compact = 0usize;
    let mut i = 0usize;
    let mut executed = 0u64;
    while i < statements.len() {
        if period > 0 && since_compact >= period {
            since_compact = 0;
            // Three-phase swap with a genuine racing write: the next
            // statement of the stream lands inside the capture window, so
            // install_compacted must replay it onto the compacted copy.
            let (mut copy, from_lsn) = ddb.begin_compaction();
            ddb.execute(&statements[i]).expect("bench update");
            i += 1;
            executed += 1;
            simplify(&mut copy, SimplifyLevel::Full);
            let outcome = ddb
                .install_compacted(copy, from_lsn, false)
                .expect("swap succeeds");
            compactions += 1;
            nodes_reclaimed += outcome.nodes_reclaimed() as u64;
            swap_replayed += outcome.replayed as u64;
        } else {
            ddb.execute(&statements[i]).expect("bench update");
            i += 1;
            executed += 1;
            since_compact += 1;
        }
        if executed.is_multiple_of(sample_every as u64) {
            let verdicts = panel_verdicts(&mut ddb, panel);
            samples.push(CompactionSample {
                statements: executed,
                nodes: ddb.db().theory().store_nodes() as u64,
                formulas: ddb.db().theory().store.len() as u64,
                verdicts,
            });
        }
    }

    // Probe latency on the final theory.
    let start = Instant::now();
    let _ = panel_verdicts(&mut ddb, panel);
    let probe_mean_us = start.elapsed().as_secs_f64() * 1e6 / panel.len() as f64;

    let final_nodes = ddb.db().theory().store_nodes() as u64;
    let final_formulas = ddb.db().theory().store.len() as u64;
    ddb.checkpoint().expect("final checkpoint");
    let checkpoint_bytes = ddb
        .storage()
        .get(SNAPSHOT_FILE)
        .expect("snapshot written")
        .len() as u64;
    let worlds: BTreeSet<Vec<String>> = ddb
        .db()
        .world_names()
        .expect("worlds materialize")
        .into_iter()
        .collect();

    let run = CompactionRun {
        label: if period > 0 {
            "compaction-on".to_owned()
        } else {
            "compaction-off".to_owned()
        },
        samples,
        final_nodes,
        final_formulas,
        compactions,
        nodes_reclaimed,
        swap_replayed,
        checkpoint_bytes,
        probe_mean_us,
    };
    (run, worlds)
}

/// Mean nodes over `samples[lo..hi]`, at least 1 to keep ratios finite.
fn mean_nodes(samples: &[CompactionSample], lo: usize, hi: usize) -> f64 {
    let slice = &samples[lo.min(samples.len())..hi.min(samples.len())];
    if slice.is_empty() {
        return 1.0;
    }
    (slice.iter().map(|s| s.nodes).sum::<u64>() as f64 / slice.len() as f64).max(1.0)
}

/// Runs the stream with and without compaction and assembles the
/// `BENCH_compaction.json` document. `steps` is update steps (the stream
/// is slightly longer in statements), `period` the compaction cadence in
/// statements.
pub fn run_compaction_bench(steps: usize, period: usize) -> CompactionBench {
    let statements = stream(steps);
    let sample_every = (statements.len() / 24).max(1);
    let panel = probe_panel();
    let (on, on_worlds) = run_stream(&statements, period, sample_every, &panel);
    let (off, off_worlds) = run_stream(&statements, 0, sample_every, &panel);

    let verdicts_identical = on.samples.len() == off.samples.len()
        && on
            .samples
            .iter()
            .zip(&off.samples)
            .all(|(a, b)| a.statements == b.statements && a.verdicts == b.verdicts);
    let worlds_match = on_worlds == off_worlds;

    let n = on.samples.len();
    let plateau_ratio_on =
        mean_nodes(&on.samples, 3 * n / 4, n) / mean_nodes(&on.samples, n / 4, n / 2);
    let growth_ratio_off = off.final_nodes.max(1) as f64
        / off.samples.first().map(|s| s.nodes.max(1)).unwrap_or(1) as f64;
    let nodes_ratio = off.final_nodes.max(1) as f64 / on.final_nodes.max(1) as f64;
    let checkpoint_ratio = off.checkpoint_bytes.max(1) as f64 / on.checkpoint_bytes.max(1) as f64;

    let notes = vec![
        format!(
            "{} statements over 8 Item keys / 4 Flags; every update is \
             conditioned on a persistently uncertain flag, so inline Fast \
             simplify cannot discharge the frame residue — the §4 \
             motivating regime.",
            statements.len()
        ),
        format!(
            "Each of the {} compaction rounds captured the snapshot, ran \
             Full simplify off-line, and replayed {} racing writes in \
             total at install time.",
            on.compactions, on.swap_replayed
        ),
        "Verdict identity is checked per sample point and on the final \
         alternative-world sets: the compacted run must be observationally \
         indistinguishable from the uncompacted one."
            .to_owned(),
    ];
    CompactionBench {
        version: 1,
        experiment: "compaction".to_owned(),
        workload: format!(
            "{steps} update steps (conditional INSERT/MODIFY/DELETE under \
             uncertain flags) with compaction every {period} statements"
        ),
        statements: statements.len() as u64,
        period: period as u64,
        probes: panel.len() as u64,
        verdicts_identical,
        worlds_match,
        growth_ratio_off,
        plateau_ratio_on,
        nodes_ratio,
        checkpoint_ratio,
        on,
        off,
        notes,
    }
}

/// Shape-validates `BENCH_compaction.json` text by re-parsing it into
/// [`CompactionBench`] and checking the cross-field invariants — above
/// all that compaction bounded the theory (plateau, not monotone growth)
/// while the uncompacted run grew, and that not one verdict differed.
/// Returns the parsed document on success; `make compaction-smoke` fails
/// on `Err`.
pub fn validate_compaction_bench(text: &str) -> Result<CompactionBench, String> {
    let b: CompactionBench = kernel::parse(text, "compaction", 1)?;
    if b.statements == 0 || b.period == 0 || b.probes == 0 {
        return Err("statements, period, and probes must all be positive".to_owned());
    }
    if !b.verdicts_identical {
        return Err("a sampled probe verdict differed between the runs".to_owned());
    }
    if !b.worlds_match {
        return Err("final alternative-world sets differ between the runs".to_owned());
    }
    // Re-derive verdict identity from the raw samples: the flag must not
    // be taken on faith.
    if b.on.samples.len() != b.off.samples.len()
        || b.on
            .samples
            .iter()
            .zip(&b.off.samples)
            .any(|(x, y)| x.statements != y.statements || x.verdicts != y.verdicts)
    {
        return Err("verdicts_identical is set but the samples disagree".to_owned());
    }
    for (label, run, want_compactions) in [("on", &b.on, true), ("off", &b.off, false)] {
        if run.samples.len() < 8 {
            return Err(format!(
                "{label} run has only {} samples",
                run.samples.len()
            ));
        }
        if run.final_nodes == 0 {
            return Err(format!("{label} run ended with an empty store"));
        }
        if run.checkpoint_bytes == 0 {
            return Err(format!("{label} run wrote no checkpoint"));
        }
        kernel::positive(run.probe_mean_us, &format!("{label} probe_mean_us"))?;
        if want_compactions && (run.compactions == 0 || run.swap_replayed == 0) {
            return Err("on run performed no compactions or replayed no racing writes".to_owned());
        }
        if !want_compactions && run.compactions != 0 {
            return Err("off run performed compactions".to_owned());
        }
    }
    if b.on.nodes_reclaimed == 0 {
        return Err("compaction reclaimed no nodes".to_owned());
    }
    // The headline claims: off grows monotonically (final well past its
    // early samples), on plateaus (late quarter ≈ mid quarter), and the
    // contrast between the two finals is material.
    if b.growth_ratio_off < 2.0 {
        return Err(format!(
            "off run grew only ×{:.2} — the workload is not growth-bound",
            b.growth_ratio_off
        ));
    }
    if b.plateau_ratio_on > 1.75 {
        return Err(format!(
            "on run's late/mid node ratio is ×{:.2} — that is growth, not a plateau",
            b.plateau_ratio_on
        ));
    }
    if b.nodes_ratio < 2.0 {
        return Err(format!(
            "off/on final node ratio is only ×{:.2}",
            b.nodes_ratio
        ));
    }
    if b.checkpoint_ratio < 1.0 {
        return Err(format!(
            "compacted checkpoint is larger than the uncompacted one (ratio ×{:.2})",
            b.checkpoint_ratio
        ));
    }
    Ok(b)
}

/// Renders the bench result as a harness table.
pub fn compaction_table(b: &CompactionBench) -> Table {
    let mut t = Table::new(
        "COMPACTION",
        "background Full compaction vs inline Fast only: theory size, checkpoint size, probe latency",
        &[
            "run",
            "final nodes",
            "final formulas",
            "compactions",
            "reclaimed",
            "replayed",
            "ckpt bytes",
            "probe µs",
        ],
    );
    for r in [&b.on, &b.off] {
        t.row(vec![
            r.label.clone(),
            r.final_nodes.to_string(),
            r.final_formulas.to_string(),
            r.compactions.to_string(),
            r.nodes_reclaimed.to_string(),
            r.swap_replayed.to_string(),
            r.checkpoint_bytes.to_string(),
            format!("{:.1}", r.probe_mean_us),
        ]);
    }
    t.note(format!(
        "{} statements, compaction every {}; off grew ×{:.1} while on's late/mid ratio is ×{:.2}; final contrast ×{:.1} nodes, ×{:.1} checkpoint bytes",
        b.statements, b.period, b.growth_ratio_off, b.plateau_ratio_on, b.nodes_ratio, b.checkpoint_ratio
    ));
    t.note(format!(
        "verdict identity over {} probes × {} sample points: {}; world sets match: {}",
        b.probes,
        b.on.samples.len(),
        b.verdicts_identical,
        b.worlds_match
    ));
    t.notes.extend(b.notes.iter().cloned());
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_bench_runs_and_round_trips() {
        let b = run_compaction_bench(160, 20);
        assert!(b.verdicts_identical);
        assert!(b.worlds_match);
        assert!(b.on.compactions > 0);
        assert!(b.on.swap_replayed > 0);
        assert!(b.off.final_nodes > b.on.final_nodes);
        let text = serde_json::to_string_pretty(&b).expect("serializes");
        let back = validate_compaction_bench(&text).expect("validates");
        assert_eq!(back.statements, b.statements);
    }

    #[test]
    fn validation_rejects_broken_documents() {
        let b = run_compaction_bench(160, 20);
        let mut bad = b.clone();
        bad.verdicts_identical = false;
        let text = serde_json::to_string_pretty(&bad).expect("serializes");
        assert!(validate_compaction_bench(&text)
            .unwrap_err()
            .contains("verdict"));
        let mut bad = b.clone();
        bad.on.samples[0].verdicts.push('C');
        let text = serde_json::to_string_pretty(&bad).expect("serializes");
        assert!(validate_compaction_bench(&text)
            .unwrap_err()
            .contains("samples disagree"));
        let mut bad = b.clone();
        bad.plateau_ratio_on = 3.0;
        let text = serde_json::to_string_pretty(&bad).expect("serializes");
        assert!(validate_compaction_bench(&text)
            .unwrap_err()
            .contains("plateau"));
        let mut bad = b;
        bad.on.nodes_reclaimed = 0;
        let text = serde_json::to_string_pretty(&bad).expect("serializes");
        assert!(validate_compaction_bench(&text)
            .unwrap_err()
            .contains("reclaimed"));
        assert!(validate_compaction_bench("{").is_err());
    }

    #[test]
    fn table_renders_both_rows() {
        let b = run_compaction_bench(160, 20);
        let rendered = compaction_table(&b).render();
        assert!(rendered.contains("compaction-on"));
        assert!(rendered.contains("compaction-off"));
    }
}
