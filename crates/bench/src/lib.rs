//! Experiment implementations for EXPERIMENTS.md.
//!
//! The paper (PODS 1986) has no tables or figures; its evaluation artifacts
//! are theorems and the §3.6 cost analysis. Each experiment E1–E8 turns one
//! of those claims into a measurable run. The functions here are shared by
//! the `harness` binary (which prints the rows recorded in EXPERIMENTS.md)
//! and the Criterion benches (which time the same hot paths rigorously).

pub mod compaction_bench;
pub mod conflicts_bench;
pub mod connections_bench;
pub mod experiments;
pub mod kernel;
pub mod query_bench;
pub mod replication_bench;
pub mod report;
pub mod server_bench;
pub mod txn_bench;
pub mod wal_bench;
pub mod worlds_bench;

pub use compaction_bench::{
    compaction_table, run_compaction_bench, validate_compaction_bench, CompactionBench,
};
pub use conflicts_bench::{
    conflicts_table, run_conflicts_bench, validate_conflicts_bench, ConflictsBench,
};
pub use connections_bench::{
    connections_table, run_connections_bench, validate_connections_bench, ConnectionsBench,
};
pub use query_bench::{query_table, run_query_bench, validate_query_bench, QueryBench};
pub use replication_bench::{
    replication_table, run_replication_bench, validate_replication_bench, ReplicationBench,
};
pub use report::Table;
pub use server_bench::{run_server_bench, server_table, validate_server_bench, ServerBench};
pub use txn_bench::{run_txn_bench, txn_table, validate_txn_bench, TxnBench};
pub use wal_bench::{run_wal_bench, validate_wal_bench, wal_table, WalBench};
pub use worlds_bench::{run_worlds_bench, validate_worlds_bench, worlds_table, WorldsBench};

/// A `BENCH_*.json` shape gate: `Err` names the first failed check.
pub type Validator = fn(&str) -> Result<(), String>;

/// Every committed `BENCH_<name>.json` document by name, with the
/// validator that gates it.
pub const DOCUMENTS: &[(&str, Validator)] = &[
    ("compaction", |t| validate_compaction_bench(t).map(drop)),
    ("conflicts", |t| validate_conflicts_bench(t).map(drop)),
    ("connections", |t| validate_connections_bench(t).map(drop)),
    ("query", |t| validate_query_bench(t).map(drop)),
    ("replication", |t| validate_replication_bench(t).map(drop)),
    ("server", |t| validate_server_bench(t).map(drop)),
    ("txn", |t| validate_txn_bench(t).map(drop)),
    ("wal", |t| validate_wal_bench(t).map(drop)),
    ("worlds", |t| validate_worlds_bench(t).map(drop)),
];
