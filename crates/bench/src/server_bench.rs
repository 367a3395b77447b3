//! The `server` experiment behind `BENCH_server.json`: a load generator
//! fanning client threads against one live `winslett-serve` server.
//!
//! For each reader level `r`, the bench runs `r` reader connections
//! (each looping pin → 16 entailment checks → unpin, measuring
//! per-check latency) concurrently with one writer connection that
//! commits journaled updates as fast as the server acknowledges them,
//! for a fixed wall-clock window. It records aggregate read throughput,
//! read and write latency percentiles, and — after the load quiesces —
//! a **verdict-identity check**: every probe answered through a pinned
//! server snapshot must answer exactly what direct library calls on the
//! reopened post-shutdown database say.
//!
//! On single-CPU hosts (CI containers) the reader threads time-share one
//! core, so aggregate throughput cannot scale; the validated invariant
//! is therefore *non-collapse* (aggregate throughput at the deepest
//! level stays within a constant factor of the single-reader level) plus
//! the host-independent `verdicts_match`. `host_parallelism` is recorded
//! so multi-core results can be read for the scaling claim.

use crate::report::{percentile, Table};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use winslett_core::{DbOptions, DurableDatabase, MemStorage, SyncPolicy, WalOptions};
use winslett_serve::{Client, Server, ServerOptions};

/// Probes every reader asks; also the verdict-identity checklist.
const PROBES: &[&str] = &["Orders(700,32,9)", "Orders(100,32,1)", "InStock(32,1)"];

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
    /// Whether every probe's `(possible, certain)` over a pinned server
    /// snapshot equals direct library calls on the reopened
    /// post-shutdown database. Must be `true`.
    pub verdicts_match: bool,
    /// Per-check latency of the same probes asked directly of the
    /// library (no server, no socket), µs — the protocol-overhead
    /// baseline.
    pub direct_check_us: f64,
    /// Free-form observations.
    pub notes: Vec<String>,
}

fn boot() -> (
    std::thread::JoinHandle<Result<MemStorage, winslett_core::DbError>>,
    std::net::SocketAddr,
) {
    let (server, _report) = Server::bind(
        ("127.0.0.1", 0),
        MemStorage::new(),
        DbOptions::default(),
        WalOptions {
            policy: SyncPolicy::GroupCommit(8),
            ..WalOptions::default()
        },
        ServerOptions {
            max_connections: 64,
            idle_timeout: Duration::from_secs(30),
            ..ServerOptions::default()
        },
    )
    .expect("bench server bind");
    let addr = server.local_addr();
    (std::thread::spawn(move || server.run()), addr)
}

/// Seeds the paper's Orders/InStock schema through the wire.
fn seed(client: &mut Client) {
    client.declare_relation("Orders", 3).expect("declare");
    client.declare_relation("InStock", 2).expect("declare");
    client
        .load_fact("Orders", &["700", "32", "9"])
        .expect("seed fact");
    client
        .load_fact("InStock", &["32", "1"])
        .expect("seed fact");
    // Branch once so certain/possible differ and checks do real SAT work.
    client
        .execute("INSERT Orders(100,32,1) | Orders(100,32,7) WHERE T")
        .expect("seed branch");
}

/// The writer's bounded update script: toggles membership over a small
/// atom pool so the theory stays compact however long the window is.
fn writer_statement(i: usize) -> String {
    let k = i % 6;
    if (i / 6).is_multiple_of(2) {
        format!("INSERT InStock({k},{k}) WHERE T")
    } else {
        format!("DELETE InStock({k},{k}) WHERE T")
    }
}

/// Runs one reader level: `readers` pin/check/unpin loops plus one
/// flat-out writer, for `window`.
fn run_level(addr: std::net::SocketAddr, readers: usize, window: Duration) -> ReaderLevel {
    let stop = Arc::new(AtomicBool::new(false));
    let mut reader_handles = Vec::new();
    for _ in 0..readers {
        let stop = Arc::clone(&stop);
        reader_handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("reader connect");
            let mut latencies_us = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                client.pin().expect("pin");
                for i in 0..CHECKS_PER_PIN {
                    let probe = PROBES[i % PROBES.len()];
                    let start = Instant::now();
                    client.check(probe).expect("check");
                    latencies_us.push(start.elapsed().as_secs_f64() * 1e6);
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
                client.unpin().expect("unpin");
            }
            latencies_us
        }));
    }
    let writer_stop = Arc::clone(&stop);
    let writer = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("writer connect");
        let mut latencies_us = Vec::new();
        let mut i = 0usize;
        while !writer_stop.load(Ordering::Relaxed) {
            let start = Instant::now();
            client.execute(&writer_statement(i)).expect("bench update");
            latencies_us.push(start.elapsed().as_secs_f64() * 1e6);
            i += 1;
        }
        latencies_us
    });

    let started = Instant::now();
    std::thread::sleep(window);
    stop.store(true, Ordering::Relaxed);
    let mut read_latencies: Vec<f64> = Vec::new();
    for h in reader_handles {
        read_latencies.extend(h.join().expect("reader thread"));
    }
    let mut write_latencies = writer.join().expect("writer thread");
    let elapsed = started.elapsed().as_secs_f64();

    read_latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    write_latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    ReaderLevel {
        readers: readers as u64,
        total_reads: read_latencies.len() as u64,
        reads_per_sec: read_latencies.len() as f64 / elapsed,
        read_p50_us: percentile(&read_latencies, 0.50),
        read_p95_us: percentile(&read_latencies, 0.95),
        read_p99_us: percentile(&read_latencies, 0.99),
        writer_updates: write_latencies.len() as u64,
        write_p50_us: percentile(&write_latencies, 0.50),
        write_p95_us: percentile(&write_latencies, 0.95),
    }
}

/// Runs the full sweep and assembles the `BENCH_server.json` document.
pub fn run_server_bench(reader_levels: &[usize], window_ms: u64) -> ServerBench {
    let (running, addr) = boot();
    let mut setup = Client::connect(addr).expect("setup connect");
    seed(&mut setup);

    let window = Duration::from_millis(window_ms);
    let levels: Vec<ReaderLevel> = reader_levels
        .iter()
        .map(|&r| run_level(addr, r, window))
        .collect();

    // Quiesce, then collect the verdict checklist over a pinned server
    // snapshot of the final state.
    let server_verdicts: Vec<(bool, bool)> = {
        let mut client = Client::connect(addr).expect("verdict connect");
        client.pin().expect("pin final");
        PROBES
            .iter()
            .map(|p| {
                let t = client.check(p).expect("final check");
                (t.possible, t.certain)
            })
            .collect()
    };

    setup.shutdown().expect("shutdown");
    let storage = running.join().expect("server thread").expect("server run");

    // Reopen the storage the server flushed on close and ask the library
    // directly — the ground truth for verdict identity, and the
    // no-protocol latency baseline.
    let (reopened, _) = DurableDatabase::open(storage, DbOptions::default(), WalOptions::default())
        .expect("bench reopen");
    let mut direct = reopened;
    let start = Instant::now();
    let direct_verdicts: Vec<(bool, bool)> = PROBES
        .iter()
        .map(|p| {
            let possible = direct.db_mut().is_possible(p).expect("direct possible");
            let certain = direct.db_mut().is_certain(p).expect("direct certain");
            (possible, certain)
        })
        .collect();
    let direct_check_us = start.elapsed().as_secs_f64() * 1e6 / (PROBES.len() * 2) as f64;
    let verdicts_match = server_verdicts == direct_verdicts;

    let host_parallelism = std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1);
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
        version: 1,
        experiment: "server".to_owned(),
        workload: format!(
            "{} reader levels × {window_ms} ms against one winslett-serve \
             instance (MemStorage, group commit 8)",
            reader_levels.len()
        ),
        window_ms,
        host_parallelism,
        levels,
        verdicts_match,
        direct_check_us,
        notes,
    }
}

/// Shape-validates `BENCH_server.json` text by re-parsing it into
/// [`ServerBench`] and checking the cross-field invariants. Returns the
/// parsed document on success; `make bench-smoke` fails on `Err`.
pub fn validate_server_bench(text: &str) -> Result<ServerBench, String> {
    let b: ServerBench =
        serde_json::from_str(text).map_err(|e| format!("BENCH_server.json does not parse: {e}"))?;
    if b.version != 1 {
        return Err(format!("unknown version {}", b.version));
    }
    if b.experiment != "server" {
        return Err(format!(
            "experiment is {:?}, expected \"server\"",
            b.experiment
        ));
    }
    if b.window_ms == 0 {
        return Err("window_ms is 0 — nothing was measured".to_owned());
    }
    if b.levels.is_empty() {
        return Err("no reader levels recorded".to_owned());
    }
    let mut prev_readers = 0;
    for level in &b.levels {
        if level.readers <= prev_readers {
            return Err("reader levels must strictly increase".to_owned());
        }
        prev_readers = level.readers;
        if level.total_reads == 0 {
            return Err(format!("level {} served no reads", level.readers));
        }
        if !(level.reads_per_sec.is_finite() && level.reads_per_sec > 0.0) {
            return Err(format!(
                "level {} reads_per_sec is not positive finite",
                level.readers
            ));
        }
        let ordered = level.read_p50_us <= level.read_p95_us
            && level.read_p95_us <= level.read_p99_us
            && level.read_p50_us > 0.0
            && level.read_p99_us.is_finite();
        if !ordered {
            return Err(format!(
                "level {} read percentiles are not ordered positive finite",
                level.readers
            ));
        }
        if level.writer_updates == 0 {
            return Err(format!(
                "level {} starved the writer — snapshot reads must not block writes",
                level.readers
            ));
        }
        if !(level.write_p50_us > 0.0 && level.write_p95_us >= level.write_p50_us) {
            return Err(format!(
                "level {} write percentiles are not ordered positive",
                level.readers
            ));
        }
    }
    // Non-collapse: adding readers must keep aggregate throughput within
    // a constant factor of the single-connection level (true scaling on
    // multi-core hosts; fair time-sharing on one core).
    let first = &b.levels[0];
    let last = &b.levels[b.levels.len() - 1];
    if last.reads_per_sec < 0.3 * first.reads_per_sec {
        return Err(format!(
            "aggregate read throughput collapsed: {:.0}/s at {} readers vs {:.0}/s at {}",
            last.reads_per_sec, last.readers, first.reads_per_sec, first.readers
        ));
    }
    if !b.verdicts_match {
        return Err("server snapshot verdicts differ from direct library calls".to_owned());
    }
    if !(b.direct_check_us.is_finite() && b.direct_check_us > 0.0) {
        return Err("direct_check_us is not positive finite".to_owned());
    }
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
        "{} ms window per level; verdicts match direct library calls: {}; \
         direct per-check baseline {:.1} µs; host parallelism {}",
        b.window_ms, b.verdicts_match, b.direct_check_us, b.host_parallelism
    ));
    for n in &b.notes {
        t.note(n.clone());
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_bench_runs_and_round_trips() {
        let b = run_server_bench(&[1, 2], 80);
        assert!(b.verdicts_match);
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
        bad.verdicts_match = false;
        let text = serde_json::to_string_pretty(&bad).expect("serializes");
        assert!(validate_server_bench(&text).unwrap_err().contains("differ"));
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
        assert!(rendered.contains("verdicts match"));
    }
}
