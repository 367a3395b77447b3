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

use winslett_bench::Table;
use winslett_bench::{
    compaction_bench, conflicts_bench, connections_bench, experiments, query_bench,
    replication_bench, server_bench, txn_bench, wal_bench, worlds_bench,
};

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

    if want("e1") {
        tables.push(experiments::e1(40 * scale));
    }
    if want("e2") {
        tables.push(experiments::e2(150 * scale));
    }
    if want("e3") {
        tables.push(experiments::e3(50 * scale));
    }
    if want("e4") {
        tables.push(experiments::e4(50 * scale));
    }
    if want("e5") {
        tables.push(experiments::e5(5 * scale));
    }
    if want("e6") {
        tables.push(experiments::e6(30 * scale));
    }
    if want("e7") {
        tables.push(experiments::e7(if quick { 5 } else { 8 }));
    }
    if want("e8") {
        tables.push(experiments::e8(if quick { 16 } else { 64 }));
    }
    if want("e9") {
        tables.push(experiments::e9(if quick { 5 } else { 8 }));
    }

    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).expect("create output directory");
    }

    if want("worlds") {
        let bench = worlds_bench::run_worlds_bench(if quick { 5 } else { 8 }, 4);
        tables.push(worlds_bench::worlds_table(&bench));
        let path = match &out_dir {
            Some(dir) => format!("{dir}/BENCH_worlds.json"),
            None => "BENCH_worlds.json".to_owned(),
        };
        let text = serde_json::to_string_pretty(&bench).expect("serializable");
        std::fs::write(&path, &text).expect("write BENCH_worlds.json");
        // Validate the emitted document by re-reading what actually landed
        // on disk — the shape gate behind `make bench-smoke`.
        let reread = std::fs::read_to_string(&path).expect("read back BENCH_worlds.json");
        match worlds_bench::validate_worlds_bench(&reread) {
            Ok(_) => eprintln!("{path}: shape OK"),
            Err(e) => {
                eprintln!("{path}: shape validation FAILED: {e}");
                std::process::exit(1);
            }
        }
    }
    if want("wal") {
        let bench = wal_bench::run_wal_bench(if quick { 64 } else { 256 }, 8);
        tables.push(wal_bench::wal_table(&bench));
        let path = match &out_dir {
            Some(dir) => format!("{dir}/BENCH_wal.json"),
            None => "BENCH_wal.json".to_owned(),
        };
        let text = serde_json::to_string_pretty(&bench).expect("serializable");
        std::fs::write(&path, &text).expect("write BENCH_wal.json");
        // Same re-read-and-validate gate as BENCH_worlds.json.
        let reread = std::fs::read_to_string(&path).expect("read back BENCH_wal.json");
        match wal_bench::validate_wal_bench(&reread) {
            Ok(_) => eprintln!("{path}: shape OK"),
            Err(e) => {
                eprintln!("{path}: shape validation FAILED: {e}");
                std::process::exit(1);
            }
        }
    }
    if want("query") {
        let bench =
            query_bench::run_query_bench(if quick { 24 } else { 64 }, if quick { 3 } else { 8 });
        tables.push(query_bench::query_table(&bench));
        let path = match &out_dir {
            Some(dir) => format!("{dir}/BENCH_query.json"),
            None => "BENCH_query.json".to_owned(),
        };
        let text = serde_json::to_string_pretty(&bench).expect("serializable");
        std::fs::write(&path, &text).expect("write BENCH_query.json");
        // Same re-read-and-validate gate as BENCH_worlds.json.
        let reread = std::fs::read_to_string(&path).expect("read back BENCH_query.json");
        match query_bench::validate_query_bench(&reread) {
            Ok(_) => eprintln!("{path}: shape OK"),
            Err(e) => {
                eprintln!("{path}: shape validation FAILED: {e}");
                std::process::exit(1);
            }
        }
    }
    if want("server") {
        let bench = server_bench::run_server_bench(
            if quick { &[1, 2] } else { &[1, 2, 4] },
            if quick { 150 } else { 1000 },
        );
        tables.push(server_bench::server_table(&bench));
        let path = match &out_dir {
            Some(dir) => format!("{dir}/BENCH_server.json"),
            None => "BENCH_server.json".to_owned(),
        };
        let text = serde_json::to_string_pretty(&bench).expect("serializable");
        std::fs::write(&path, &text).expect("write BENCH_server.json");
        // Same re-read-and-validate gate as BENCH_worlds.json.
        let reread = std::fs::read_to_string(&path).expect("read back BENCH_server.json");
        match server_bench::validate_server_bench(&reread) {
            Ok(_) => eprintln!("{path}: shape OK"),
            Err(e) => {
                eprintln!("{path}: shape validation FAILED: {e}");
                std::process::exit(1);
            }
        }
    }
    if want("compaction") {
        let bench = compaction_bench::run_compaction_bench(if quick { 240 } else { 1200 }, 25);
        tables.push(compaction_bench::compaction_table(&bench));
        let path = match &out_dir {
            Some(dir) => format!("{dir}/BENCH_compaction.json"),
            None => "BENCH_compaction.json".to_owned(),
        };
        let text = serde_json::to_string_pretty(&bench).expect("serializable");
        std::fs::write(&path, &text).expect("write BENCH_compaction.json");
        let reread = std::fs::read_to_string(&path).expect("read back BENCH_compaction.json");
        match compaction_bench::validate_compaction_bench(&reread) {
            Ok(_) => eprintln!("{path}: shape OK"),
            Err(e) => {
                eprintln!("{path}: shape validation FAILED: {e}");
                std::process::exit(1);
            }
        }
    }
    if want("replication") {
        let bench = replication_bench::run_replication_bench(
            if quick { &[1, 2] } else { &[1, 2, 4] },
            if quick { 150 } else { 1000 },
        );
        tables.push(replication_bench::replication_table(&bench));
        let path = match &out_dir {
            Some(dir) => format!("{dir}/BENCH_replication.json"),
            None => "BENCH_replication.json".to_owned(),
        };
        let text = serde_json::to_string_pretty(&bench).expect("serializable");
        std::fs::write(&path, &text).expect("write BENCH_replication.json");
        // Same re-read-and-validate gate as BENCH_worlds.json.
        let reread = std::fs::read_to_string(&path).expect("read back BENCH_replication.json");
        match replication_bench::validate_replication_bench(&reread) {
            Ok(_) => eprintln!("{path}: shape OK"),
            Err(e) => {
                eprintln!("{path}: shape validation FAILED: {e}");
                std::process::exit(1);
            }
        }
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
        let path = match &out_dir {
            Some(dir) => format!("{dir}/BENCH_connections.json"),
            None => "BENCH_connections.json".to_owned(),
        };
        let text = serde_json::to_string_pretty(&bench).expect("serializable");
        std::fs::write(&path, &text).expect("write BENCH_connections.json");
        // Same re-read-and-validate gate as BENCH_worlds.json.
        let reread = std::fs::read_to_string(&path).expect("read back BENCH_connections.json");
        match connections_bench::validate_connections_bench(&reread) {
            Ok(_) => eprintln!("{path}: shape OK"),
            Err(e) => {
                eprintln!("{path}: shape validation FAILED: {e}");
                std::process::exit(1);
            }
        }
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
        let path = match &out_dir {
            Some(dir) => format!("{dir}/BENCH_conflicts.json"),
            None => "BENCH_conflicts.json".to_owned(),
        };
        let text = serde_json::to_string_pretty(&bench).expect("serializable");
        std::fs::write(&path, &text).expect("write BENCH_conflicts.json");
        // Same re-read-and-validate gate as BENCH_worlds.json.
        let reread = std::fs::read_to_string(&path).expect("read back BENCH_conflicts.json");
        match conflicts_bench::validate_conflicts_bench(&reread) {
            Ok(_) => eprintln!("{path}: shape OK"),
            Err(e) => {
                eprintln!("{path}: shape validation FAILED: {e}");
                std::process::exit(1);
            }
        }
    }
    if want("txn") {
        let bench =
            txn_bench::run_txn_bench(if quick { 3 } else { 4 }, if quick { 150 } else { 1000 });
        tables.push(txn_bench::txn_table(&bench));
        let path = match &out_dir {
            Some(dir) => format!("{dir}/BENCH_txn.json"),
            None => "BENCH_txn.json".to_owned(),
        };
        let text = serde_json::to_string_pretty(&bench).expect("serializable");
        std::fs::write(&path, &text).expect("write BENCH_txn.json");
        // Same re-read-and-validate gate as BENCH_worlds.json.
        let reread = std::fs::read_to_string(&path).expect("read back BENCH_txn.json");
        match txn_bench::validate_txn_bench(&reread) {
            Ok(_) => eprintln!("{path}: shape OK"),
            Err(e) => {
                eprintln!("{path}: shape validation FAILED: {e}");
                std::process::exit(1);
            }
        }
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
