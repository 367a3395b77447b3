//! The `server` experiment behind `BENCH_server.json`: a load generator
//! fanning client threads against one live `winslett-serve` server.
//!
//! For each reader level `r`, the bench runs `r` reader connections
//! (each looping pin → 16 entailment checks → unpin, measuring
//! per-check latency) concurrently with one writer connection that
//! commits journaled updates as fast as the server acknowledges them,
//! for a fixed wall-clock window. It records aggregate read throughput
//! and read and write latency percentiles. After the load quiesces, the
//! kernel's final-state check requires every probe answered through a
//! pinned server snapshot to answer exactly what the reopened
//! post-shutdown database and the §4 serial replay of the acknowledged
//! writes say.
//!
//! On single-CPU hosts (CI containers) the reader threads time-share one
//! core, so aggregate throughput cannot scale; the validated invariant
//! is therefore *non-collapse* (aggregate throughput at the deepest
//! level stays within a constant factor of the single-reader level) plus
//! the host-independent final-state check. `host_parallelism` is
//! recorded so multi-core results can be read for the scaling claim.

use crate::kernel::{self, FinalCheck, Seed, Unit};
use crate::report::Table;
use serde::{Deserialize, Serialize};
use std::net::SocketAddr;
use std::time::Duration;
use winslett_serve::ServerOptions;

/// Checks issued per pinned snapshot before re-pinning.
const CHECKS_PER_PIN: usize = 16;

/// One reader-count level of the sweep.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ReaderLevel {
    /// Concurrent reader connections.
    pub readers: u64,
    /// Entailment checks answered across all readers in the window.
    pub total_reads: u64,
    /// Aggregate reads per second across all readers.
    pub reads_per_sec: f64,
    /// Per-check latency percentiles, µs.
    pub read_p50_us: f64,
    /// 95th percentile, µs.
    pub read_p95_us: f64,
    /// 99th percentile, µs.
    pub read_p99_us: f64,
    /// Updates the concurrent writer committed during the window — must
    /// be > 0: readers never starve the writer.
    pub writer_updates: u64,
    /// Per-update commit latency percentiles for that writer, µs.
    pub write_p50_us: f64,
    /// 95th percentile, µs.
    pub write_p95_us: f64,
}

/// The complete `BENCH_server.json` document.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ServerBench {
    /// Format version, for forward compatibility.
    pub version: u32,
    /// Experiment id — always `"server"`.
    pub experiment: String,
    /// Human description of the workload.
    pub workload: String,
    /// Measurement window per reader level, milliseconds.
    pub window_ms: u64,
    /// `std::thread::available_parallelism()` on the measuring host. On
    /// 1, reader scaling is time-sharing; read the throughput column as
    /// a non-collapse check, not a speedup curve.
    pub host_parallelism: u64,
    /// The sweep, in increasing reader count.
    pub levels: Vec<ReaderLevel>,
    /// The kernel's final-state check of the one server all levels ran
    /// against.
    pub final_state: FinalCheck,
    /// Per-check latency of the same probes asked directly of the
    /// library (no server, no socket), µs — the protocol-overhead
    /// baseline.
    pub direct_check_us: f64,
    /// Free-form observations.
    pub notes: Vec<String>,
}

/// The paper's Orders/InStock schema, branched once so certain and
/// possible differ and checks do real SAT work (5 writes: LSNs 0..=4).
/// Shared with the replication bench.
pub(crate) fn orders_seed() -> Seed {
    let mut seed = Seed::default();
    seed.relation("Orders", 3)
        .relation("InStock", 2)
        .fact("Orders", [700, 32, 9])
        .fact("InStock", [32, 1])
        .statement("INSERT Orders(100,32,1) | Orders(100,32,7) WHERE T");
    seed
}

/// Probes every reader asks; also the final-state checklist. Shared with
/// the replication bench.
pub(crate) fn probes() -> Vec<String> {
    ["Orders(700,32,9)", "Orders(100,32,1)", "InStock(32,1)"]
        .map(String::from)
        .to_vec()
}

/// The writer's bounded update script: toggles membership over a small
/// atom pool so the theory stays compact however long the window is.
/// Shared with the replication bench.
pub(crate) fn writer_statement(i: usize) -> String {
    let k = i % 6;
    if (i / 6).is_multiple_of(2) {
        format!("INSERT InStock({k},{k}) WHERE T")
    } else {
        format!("DELETE InStock({k},{k}) WHERE T")
    }
}

/// Runs one reader level: `readers` pin/check/unpin loops plus one
/// flat-out writer, for `window`. Returns the level and the writer's
/// acknowledged units.
fn run_level(addr: SocketAddr, readers: usize, window: Duration) -> (ReaderLevel, Vec<Unit>) {
    let probes = probes();
    let w = kernel::closed_loop(
        window,
        (0..readers)
            .map(|_| kernel::reader(addr, &probes, CHECKS_PER_PIN, Duration::ZERO))
            .collect(),
        vec![kernel::writer(addr, 0, writer_statement)],
    );
    let level = ReaderLevel {
        readers: readers as u64,
        total_reads: w.reads.count(),
        reads_per_sec: w.reads.per_sec(w.elapsed_s),
        read_p50_us: w.reads.p(0.50),
        read_p95_us: w.reads.p(0.95),
        read_p99_us: w.reads.p(0.99),
        writer_updates: w.writes.count(),
        write_p50_us: w.writes.p(0.50),
        write_p95_us: w.writes.p(0.95),
    };
    (level, w.writes.acked)
}

/// Runs the full sweep and assembles the `BENCH_server.json` document.
pub fn run_server_bench(reader_levels: &[usize], window_ms: u64) -> ServerBench {
    let seed = orders_seed();
    let served = kernel::boot(ServerOptions::default(), &seed);
    let window = Duration::from_millis(window_ms);
    let mut acked = Vec::new();
    let mut levels = Vec::new();
    for &r in reader_levels {
        let (level, mut units) = run_level(served.addr, r, window);
        levels.push(level);
        acked.append(&mut units);
    }
    let finished = kernel::finish(served, &seed, &acked, &probes());

    let notes = vec![
        format!(
            "Each reader loops pin → {CHECKS_PER_PIN} checks → unpin; one writer \
             commits toggling updates flat-out for the whole window."
        ),
        "Reads run on published snapshots and never take the writer lock; \
         writer_updates > 0 at every level is the no-starvation witness."
            .to_owned(),
        "On host_parallelism 1 the levels time-share one core, so judge \
         scaling by non-collapse of aggregate throughput, not speedup."
            .to_owned(),
    ];
    ServerBench {
        version: 2,
        experiment: "server".to_owned(),
        workload: format!(
            "{} reader levels × {window_ms} ms against one winslett-serve \
             instance (MemStorage, one sync per writer pass)",
            reader_levels.len()
        ),
        window_ms,
        host_parallelism: kernel::host_parallelism(),
        levels,
        final_state: finished.check,
        direct_check_us: finished.direct_check_us,
        notes,
    }
}

/// Shape-validates `BENCH_server.json` text by re-parsing it into
/// [`ServerBench`] and checking the cross-field invariants. Returns the
/// parsed document on success; `make bench-smoke` fails on `Err`.
pub fn validate_server_bench(text: &str) -> Result<ServerBench, String> {
    let b: ServerBench = kernel::parse(text, "server", 2)?;
    if b.window_ms == 0 {
        return Err("window_ms is 0 — nothing was measured".to_owned());
    }
    let rates = b.levels.iter().map(|l| (l.readers, l.reads_per_sec));
    kernel::non_collapse(rates, "reader")?;
    for level in &b.levels {
        let at = format!("level {}", level.readers);
        let reads = [level.read_p50_us, level.read_p95_us, level.read_p99_us];
        if level.total_reads == 0 {
            return Err(format!("{at} served no reads"));
        }
        kernel::positive(level.reads_per_sec, &format!("{at} reads_per_sec"))?;
        kernel::ordered(&reads, &format!("{at} read"))?;
        if level.writer_updates == 0 {
            return Err(format!(
                "{at} starved the writer — snapshot reads must not block writes"
            ));
        }
        kernel::ordered(
            &[level.write_p50_us, level.write_p95_us],
            &format!("{at} write"),
        )?;
    }
    kernel::final_state(&b.final_state, "server")?;
    kernel::positive(b.direct_check_us, "direct_check_us")?;
    if b.host_parallelism == 0 {
        return Err("host_parallelism is 0".to_owned());
    }
    Ok(b)
}

/// Renders the bench result as a harness table.
pub fn server_table(b: &ServerBench) -> Table {
    let mut t = Table::new(
        "SERVER",
        "winslett-serve under load: snapshot-read throughput vs reader count with one live writer",
        &[
            "readers",
            "reads/s",
            "read p50 µs",
            "read p95 µs",
            "read p99 µs",
            "writer upd",
            "write p50 µs",
        ],
    );
    for level in &b.levels {
        t.row(vec![
            level.readers.to_string(),
            format!("{:.0}", level.reads_per_sec),
            format!("{:.1}", level.read_p50_us),
            format!("{:.1}", level.read_p95_us),
            format!("{:.1}", level.read_p99_us),
            level.writer_updates.to_string(),
            format!("{:.1}", level.write_p50_us),
        ]);
    }
    t.note(format!(
        "{} ms window per level; final state matches storage / serial replay: \
         {} / {}; direct per-check baseline {:.1} µs; host parallelism {}",
        b.window_ms,
        b.final_state.matches_storage,
        b.final_state.matches_replay,
        b.direct_check_us,
        b.host_parallelism
    ));
    t.notes.extend(b.notes.iter().cloned());
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_bench_runs_and_round_trips() {
        let b = run_server_bench(&[1, 2], 80);
        assert!(kernel::final_state(&b.final_state, "server").is_ok());
        assert_eq!(b.levels.len(), 2);
        let text = serde_json::to_string_pretty(&b).expect("serializes");
        let back = validate_server_bench(&text).expect("validates");
        assert_eq!(back.levels[0].readers, 1);
        assert!(back.levels.iter().all(|l| l.writer_updates > 0));
    }

    #[test]
    fn validation_rejects_broken_documents() {
        let b = run_server_bench(&[1, 2], 60);
        let mut bad = b.clone();
        bad.final_state.matches_storage = false;
        let text = serde_json::to_string_pretty(&bad).expect("serializes");
        assert!(validate_server_bench(&text).unwrap_err().contains("differ"));
        let mut bad = b.clone();
        bad.final_state.matches_replay = false;
        let text = serde_json::to_string_pretty(&bad).expect("serializes");
        assert!(validate_server_bench(&text)
            .unwrap_err()
            .contains("serial replay"));
        let mut bad = b.clone();
        bad.levels[1].writer_updates = 0;
        let text = serde_json::to_string_pretty(&bad).expect("serializes");
        assert!(validate_server_bench(&text)
            .unwrap_err()
            .contains("starved"));
        let mut bad = b.clone();
        bad.levels[1].reads_per_sec = 0.1 * bad.levels[0].reads_per_sec;
        let text = serde_json::to_string_pretty(&bad).expect("serializes");
        assert!(validate_server_bench(&text)
            .unwrap_err()
            .contains("collapsed"));
        assert!(validate_server_bench("{").is_err());
    }

    #[test]
    fn table_renders_every_level() {
        let b = run_server_bench(&[1], 60);
        let rendered = server_table(&b).render();
        assert!(rendered.contains("reads/s"));
        assert!(rendered.contains("serial replay"));
    }
}
