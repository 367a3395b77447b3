//! Error type for the database façade.

use std::fmt;

/// Errors surfaced by [`crate::LogicalDatabase`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DbError {
    /// From the theory layer.
    Theory(winslett_theory::TheoryError),
    /// From LDML parsing/validation.
    Ldml(winslett_ldml::LdmlError),
    /// From the update algorithm.
    Gua(winslett_gua::GuaError),
    /// From world materialization.
    Worlds(winslett_worlds::WorldsError),
    /// From the logic kernel (query parsing).
    Logic(winslett_logic::LogicError),
    /// A query used an unknown variable or malformed syntax.
    Query {
        /// Description of the defect.
        message: String,
    },
    /// A null value was declared with an empty candidate domain.
    EmptyNullDomain {
        /// The null's name.
        name: String,
    },
    /// A persisted artifact (theory dump or WAL) carries a format version
    /// this build does not understand. Refusing loudly beats silently
    /// misreading a future format.
    UnsupportedVersion {
        /// Which artifact: `"theory dump"` or `"wal"`.
        what: &'static str,
        /// The version found in the artifact.
        found: u32,
        /// The newest version this build supports.
        supported: u32,
    },
    /// An update handed to [`crate::ReplayDatabase`] references atom ids
    /// that were never interned in that database's theory — it was parsed
    /// against a different (richer) theory. Use
    /// [`crate::ReplayDatabase::update_synced`] to adopt the richer
    /// language first.
    ForeignUpdate {
        /// The first out-of-range atom id in the update.
        atom_id: u32,
        /// The number of atoms interned in the replay theory.
        num_atoms: usize,
    },
    /// The WAL suffix does not meet the checkpoint: the first surviving
    /// record's LSN skips past the LSN the snapshot is current through,
    /// so replaying it would reconstruct a state the primary never
    /// acknowledged. Raised by recovery and by replica catch-up.
    LsnGap {
        /// Highest LSN the suffix may start at (the snapshot's LSN, or
        /// the subscriber's requested cursor).
        expected: u64,
        /// The LSN actually found at the boundary.
        found: u64,
    },
    /// A record was refused at mint time because its serialized payload
    /// exceeds [`crate::wal::MAX_RECORD_LEN`] — the bound that keeps every
    /// WAL record shippable inside one wire frame. The database state is
    /// unchanged; nothing was journaled.
    RecordTooLarge {
        /// Serialized payload length.
        len: usize,
        /// The enforced maximum.
        max: usize,
    },
    /// A storage-layer failure (I/O error, or an injected fault in tests).
    Storage {
        /// Stringified cause.
        message: String,
    },
    /// A persisted artifact is structurally corrupt beyond the WAL's
    /// tolerate-and-truncate tail handling (e.g. bad magic bytes).
    Corrupt {
        /// What was found wrong.
        message: String,
    },
    /// Misuse of the background-compaction protocol on
    /// [`crate::DurableDatabase`] (e.g. installing a compacted theory
    /// without an outstanding capture).
    Compaction {
        /// What went wrong.
        message: String,
    },
    /// A write conflicts with locks held by an open transaction and the
    /// caller cannot (or will not) wait for them.
    TxnConflict {
        /// What conflicted, naming the contended lock key.
        message: String,
    },
    /// A transactional statement's footprint locks were still contended
    /// at its deadline — the deadlock-avoidance bound; the transaction
    /// is rolled back.
    TxnTimeout {
        /// What timed out, naming the contended lock key.
        message: String,
    },
    /// A transaction operation referenced an id that is not open (never
    /// begun, or already committed/rolled back).
    TxnUnknown {
        /// The offending transaction id.
        txn: u64,
    },
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Theory(e) => write!(f, "{e}"),
            DbError::Ldml(e) => write!(f, "{e}"),
            DbError::Gua(e) => write!(f, "{e}"),
            DbError::Worlds(e) => write!(f, "{e}"),
            DbError::Logic(e) => write!(f, "{e}"),
            DbError::Query { message } => write!(f, "query error: {message}"),
            DbError::EmptyNullDomain { name } => {
                write!(f, "null value `{name}` has an empty candidate domain")
            }
            DbError::UnsupportedVersion {
                what,
                found,
                supported,
            } => write!(
                f,
                "unsupported {what} version {found} (this build reads up to version {supported})"
            ),
            DbError::ForeignUpdate { atom_id, num_atoms } => write!(
                f,
                "update references atom id {atom_id} but only {num_atoms} atoms are interned \
                 in this theory; the update was built against a different theory \
                 (use update_synced)"
            ),
            DbError::LsnGap { expected, found } => write!(
                f,
                "lsn gap at the checkpoint boundary: suffix starts at lsn {found} but the \
                 snapshot is only current through lsn {expected}; replaying it would skip \
                 acknowledged operations"
            ),
            DbError::RecordTooLarge { len, max } => write!(
                f,
                "record refused at write time: serialized payload is {len} bytes \
                 (max {max}); nothing was journaled"
            ),
            DbError::Storage { message } => write!(f, "storage error: {message}"),
            DbError::Corrupt { message } => write!(f, "corrupt artifact: {message}"),
            DbError::Compaction { message } => write!(f, "compaction error: {message}"),
            DbError::TxnConflict { message } => write!(f, "transaction conflict: {message}"),
            DbError::TxnTimeout { message } => write!(f, "transaction timeout: {message}"),
            DbError::TxnUnknown { txn } => {
                write!(f, "transaction {txn} is not open on this database")
            }
        }
    }
}

impl std::error::Error for DbError {}

impl From<winslett_theory::TheoryError> for DbError {
    fn from(e: winslett_theory::TheoryError) -> Self {
        DbError::Theory(e)
    }
}

impl From<winslett_ldml::LdmlError> for DbError {
    fn from(e: winslett_ldml::LdmlError) -> Self {
        DbError::Ldml(e)
    }
}

impl From<winslett_gua::GuaError> for DbError {
    fn from(e: winslett_gua::GuaError) -> Self {
        DbError::Gua(e)
    }
}

impl From<winslett_worlds::WorldsError> for DbError {
    fn from(e: winslett_worlds::WorldsError) -> Self {
        DbError::Worlds(e)
    }
}

impl From<std::io::Error> for DbError {
    fn from(e: std::io::Error) -> Self {
        DbError::Storage {
            message: e.to_string(),
        }
    }
}

impl From<winslett_logic::LogicError> for DbError {
    fn from(e: winslett_logic::LogicError) -> Self {
        DbError::Logic(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversion() {
        let e: DbError = winslett_theory::TheoryError::Inconsistent.into();
        assert!(e.to_string().contains("no models"));
        let e = DbError::Query {
            message: "variable ?x unbound".into(),
        };
        assert!(e.to_string().contains("?x"));
    }
}
