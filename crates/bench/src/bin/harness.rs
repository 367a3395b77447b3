//! The experiment harness: regenerates every row recorded in
//! EXPERIMENTS.md.
//!
//! ```sh
//! cargo run --release -p winslett-bench --bin harness            # all
//! cargo run --release -p winslett-bench --bin harness -- e3 e5   # subset
//! cargo run --release -p winslett-bench --bin harness -- --json  # JSON rows
//! cargo run --release -p winslett-bench --bin harness -- --quick # small sizes
//! cargo run --release -p winslett-bench --bin harness -- --out results/
//! ```

use serde::Serialize;
use winslett_bench::{
    compaction_bench, conflicts_bench, connections_bench, experiments, query_bench,
    replication_bench, server_bench, txn_bench, wal_bench, worlds_bench, Table, DOCUMENTS,
};

/// One of E1–E9, run at a size.
type Experiment = fn(usize) -> Table;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let quick = args.iter().any(|a| a == "--quick");
    let out_dir: Option<String> = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned());
    let mut skip_next = false;
    let selected: Vec<String> = args
        .iter()
        .filter(|a| {
            if skip_next {
                skip_next = false;
                return false;
            }
            if *a == "--out" {
                skip_next = true;
                return false;
            }
            !a.starts_with("--")
        })
        .map(|a| a.to_lowercase())
        .collect();
    let want = |id: &str| selected.is_empty() || selected.iter().any(|s| s == id);

    let mut tables: Vec<Table> = Vec::new();
    let scale = if quick { 1 } else { 4 };

    let runs: [(&str, Experiment, usize); 9] = [
        ("e1", experiments::e1, 40 * scale),
        ("e2", experiments::e2, 150 * scale),
        ("e3", experiments::e3, 50 * scale),
        ("e4", experiments::e4, 50 * scale),
        ("e5", experiments::e5, 5 * scale),
        ("e6", experiments::e6, 30 * scale),
        ("e7", experiments::e7, if quick { 5 } else { 8 }),
        ("e8", experiments::e8, if quick { 16 } else { 64 }),
        ("e9", experiments::e9, if quick { 5 } else { 8 }),
    ];
    for (id, run, size) in runs {
        if want(id) {
            tables.push(run(size));
        }
    }

    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    let out = out_dir.as_deref();

    if want("worlds") {
        let bench = worlds_bench::run_worlds_bench(if quick { 5 } else { 8 }, 4);
        tables.push(worlds_bench::worlds_table(&bench));
        emit(out, "worlds", &bench);
    }
    if want("wal") {
        let bench = wal_bench::run_wal_bench(if quick { 64 } else { 256 }, 8);
        tables.push(wal_bench::wal_table(&bench));
        emit(out, "wal", &bench);
    }
    if want("query") {
        let bench =
            query_bench::run_query_bench(if quick { 24 } else { 64 }, if quick { 3 } else { 8 });
        tables.push(query_bench::query_table(&bench));
        emit(out, "query", &bench);
    }
    if want("server") {
        let bench = server_bench::run_server_bench(
            if quick { &[1, 2] } else { &[1, 2, 4] },
            if quick { 150 } else { 1000 },
        );
        tables.push(server_bench::server_table(&bench));
        emit(out, "server", &bench);
    }
    if want("compaction") {
        let bench = compaction_bench::run_compaction_bench(if quick { 240 } else { 1200 }, 25);
        tables.push(compaction_bench::compaction_table(&bench));
        emit(out, "compaction", &bench);
    }
    if want("replication") {
        let bench = replication_bench::run_replication_bench(
            if quick { &[1, 2] } else { &[1, 2, 4] },
            if quick { 150 } else { 1000 },
        );
        tables.push(replication_bench::replication_table(&bench));
        emit(out, "replication", &bench);
    }
    if want("connections") {
        let bench = connections_bench::run_connections_bench(
            if quick {
                &[50, 200]
            } else {
                &[100, 1000, 10000]
            },
            if quick { 60 } else { 200 },
        );
        tables.push(connections_bench::connections_table(&bench));
        emit(out, "connections", &bench);
    }
    if want("conflicts") {
        // ≥3 writers: each writer has one request in flight, and
        // coalescing needs ≥2 writes queued together while the writer
        // thread is busy with the previous run.
        let bench = conflicts_bench::run_conflicts_bench(
            if quick { 3 } else { 4 },
            if quick { 150 } else { 1000 },
        );
        tables.push(conflicts_bench::conflicts_table(&bench));
        emit(out, "conflicts", &bench);
    }
    if want("txn") {
        let bench =
            txn_bench::run_txn_bench(if quick { 3 } else { 4 }, if quick { 200 } else { 1000 });
        tables.push(txn_bench::txn_table(&bench));
        emit(out, "txn", &bench);
    }
    for t in &tables {
        if json {
            println!("{}", serde_json::to_string(t).expect("serializable"));
        } else {
            println!("{}", t.render());
        }
        if let Some(dir) = &out_dir {
            let path = format!("{dir}/{}.json", t.id.to_lowercase());
            std::fs::write(
                &path,
                serde_json::to_string_pretty(t).expect("serializable"),
            )
            .expect("write result file");
        }
    }
}

/// Writes `bench` as `BENCH_<name>.json` (into `out`, else the working
/// directory), re-reads what actually landed on disk and validates it:
/// the shape gate behind the smoke targets. Exits 1 on a failed check.
fn emit(out: Option<&str>, name: &str, bench: &impl Serialize) {
    let path = match out {
        Some(dir) => format!("{dir}/BENCH_{name}.json"),
        None => format!("BENCH_{name}.json"),
    };
    let text = serde_json::to_string_pretty(bench).expect("serializable");
    std::fs::write(&path, &text).expect("write BENCH document");
    let reread = std::fs::read_to_string(&path).expect("read back BENCH document");
    let (_, validate) = DOCUMENTS
        .iter()
        .find(|(doc, _)| *doc == name)
        .expect("every BENCH document has a validator");
    match validate(&reread) {
        Ok(()) => eprintln!("{path}: shape OK"),
        Err(e) => {
            eprintln!("{path}: shape validation FAILED: {e}");
            std::process::exit(1);
        }
    }
}
