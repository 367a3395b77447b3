//! # winslett-core
//!
//! The user-facing façade of the Winslett (PODS 1986) reproduction: a
//! logical database with incomplete information, updated by GUA and
//! queried by entailment.
//!
//! * [`LogicalDatabase`] — schema declaration, fact loading, textual LDML
//!   execution, certain/possible wff checks, conjunctive [`Query`]
//!   answering, world inspection, and the §3.5 type-axiom widening layer.
//! * [`NullCatalog`] — null values via finite-domain Skolem expansion.
//! * [`ReplayDatabase`] — the §4 strawman that logs updates and recomputes
//!   on query (the comparison system of experiment E8).
//! * [`Workload`] — deterministic workload generators for the experiment
//!   harness and benches.

pub mod db;
pub mod error;
pub mod explain;
pub mod nulls;
pub mod op;
pub mod persist;
pub mod query;
pub mod relational;
pub mod replay;
pub mod snapshot;
pub mod txn;
pub mod vars;
pub mod wal;
pub mod workload;

pub use db::{DbOptions, LogicalDatabase};
pub use error::DbError;
pub use explain::{explain, Explanation, Verdict};
pub use nulls::{NullCatalog, NullableArg};
pub use op::{apply_op, Op, UpdateDump};
pub use persist::{
    dump_theory, load_theory, restore_theory, save_theory, TheoryDump, DUMP_VERSION,
};
pub use query::{Answers, Query, QueryAtom, QueryTerm, SupportedAnswer};
pub use relational::{certain_database, from_world, possible_database, RelationalDatabase};
pub use replay::{replay_updates, ReplayDatabase};
pub use snapshot::{SnapshotReader, TheorySnapshot};
pub use txn::{LockMode, LockRequest, LockTable, GLOBAL_KEY};
pub use vars::{PatternWff, VarAtom, VarStatement, VarTerm, VarUpdate};
pub use wal::{
    Catchup, CompactionOutcome, DirStorage, DurableDatabase, FailpointStorage, MemStorage,
    RecoveryReport, Settled, Storage, SyncPolicy, TxnSettle, WalEntry, WalOptions, WalRecord,
    WalSnapshot, WalStats, MAX_RECORD_LEN,
};
pub use workload::Workload;
