//! Footprint-granular lock table for multi-statement transactions.
//!
//! The §4 update semantics are defined statement-at-a-time; transactions
//! group statements into an atomic, isolated unit. Isolation is enforced
//! here with strict two-phase locking over **footprint atoms**: every
//! statement's read/write sets (the same
//! `winslett_analyze::ConflictAnalyzer` footprints PR 6's write batching
//! uses) become shared/exclusive locks held until commit or rollback.
//! Theorems 3 and 4 of the paper justify the granularity — updates whose
//! footprints are disjoint commute, so interleaving lock-disjoint
//! transactions through the single writer path is equivalent to *some*
//! serial order of them (commit order is always a valid witness, because
//! a later-committing transaction's statements were all computed against
//! states that already contained every earlier-committed effect on the
//! atoms they touch).
//!
//! Keys are canonical atom renderings (`"R(a,b)"`), plus the reserved
//! [`GLOBAL_KEY`] that conflicts with everything — taken in exclusive
//! mode by statements whose footprint the analyzer cannot bound (schema
//! changes, loads, unparseable sources, pruning updates).
//!
//! Acquisition is all-or-nothing per statement (no partial grants) and
//! never blocks: [`LockTable::try_lock`] either grants the whole request
//! set or names a contended key. The server's writer thread parks a
//! contended statement and retries it; deadlock handling is avoidance by
//! timeout, not detection — a statement still contended at its deadline
//! aborts its transaction with a typed
//! [`crate::DbError::TxnTimeout`], releasing whatever it held.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::AtomicU64;
use std::sync::{Mutex, PoisonError};

/// The reserved whole-database key: conflicts with every other key (and
/// itself). Statements without a bounded footprint lock this exclusively.
pub const GLOBAL_KEY: &str = "*";

/// Lock strength.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockMode {
    /// Shared: compatible with other shared holders of the same key.
    Shared,
    /// Exclusive: compatible with nothing.
    Exclusive,
}

/// One lock demand: a key plus the strength required.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LockRequest {
    /// Canonical atom rendering, or [`GLOBAL_KEY`].
    pub key: String,
    /// Required strength.
    pub mode: LockMode,
}

impl LockRequest {
    /// A shared-mode request.
    pub fn shared(key: impl Into<String>) -> Self {
        LockRequest {
            key: key.into(),
            mode: LockMode::Shared,
        }
    }

    /// An exclusive-mode request.
    pub fn exclusive(key: impl Into<String>) -> Self {
        LockRequest {
            key: key.into(),
            mode: LockMode::Exclusive,
        }
    }

    /// The whole-database exclusive request.
    pub fn global() -> Self {
        LockRequest::exclusive(GLOBAL_KEY)
    }
}

/// Who holds one key.
#[derive(Debug, Default)]
struct Holders {
    /// Exclusive holder, if any (excludes all shared holders but itself).
    exclusive: Option<u64>,
    /// Shared holders.
    shared: HashSet<u64>,
}

impl Holders {
    fn is_free(&self) -> bool {
        self.exclusive.is_none() && self.shared.is_empty()
    }

    /// Whether `txn` (or anyone, when `txn` is `None`) can take this key
    /// in `mode` right now. A transaction is never blocked by locks it
    /// already holds (re-entrant grants and S→X upgrades with no other
    /// holders are allowed).
    fn grantable(&self, txn: Option<u64>, mode: LockMode) -> bool {
        let foreign_x = self.exclusive.is_some() && self.exclusive != txn;
        if foreign_x {
            return false;
        }
        match mode {
            LockMode::Shared => true,
            LockMode::Exclusive => self.shared.iter().all(|holder| Some(*holder) == txn),
        }
    }

    fn grant(&mut self, txn: u64, mode: LockMode) {
        match mode {
            LockMode::Shared => {
                if self.exclusive != Some(txn) {
                    self.shared.insert(txn);
                }
            }
            LockMode::Exclusive => {
                self.shared.remove(&txn);
                self.exclusive = Some(txn);
            }
        }
    }
}

#[derive(Debug, Default)]
struct Tables {
    locks: HashMap<String, Holders>,
    /// Keys held per transaction, so release is O(held).
    owned: HashMap<u64, HashSet<String>>,
}

impl Tables {
    /// First request in `requests` that cannot be granted to `txn` right
    /// now, or `None` if the whole set is grantable at once.
    fn blocked_on(&self, txn: Option<u64>, requests: &[LockRequest]) -> Option<String> {
        for req in requests {
            if let Some(h) = self.locks.get(&req.key) {
                if !h.grantable(txn, req.mode) {
                    return Some(req.key.clone());
                }
            }
            // The global key conflicts with every held key, and every
            // key conflicts with a held global lock.
            if req.key == GLOBAL_KEY {
                let foreign = self
                    .owned
                    .iter()
                    .any(|(owner, keys)| Some(*owner) != txn && !keys.is_empty());
                if foreign {
                    return Some(GLOBAL_KEY.to_string());
                }
            } else if let Some(h) = self.locks.get(GLOBAL_KEY) {
                if !h.grantable(txn, LockMode::Exclusive) {
                    return Some(GLOBAL_KEY.to_string());
                }
            }
        }
        None
    }

    fn grant_all(&mut self, txn: u64, requests: &[LockRequest]) {
        let owned = self.owned.entry(txn).or_default();
        for req in requests {
            self.locks
                .entry(req.key.clone())
                .or_default()
                .grant(txn, req.mode);
            owned.insert(req.key.clone());
        }
    }
}

/// Counters the server surfaces through `Stats`.
#[derive(Debug, Default)]
pub struct LockStats {
    /// Acquisitions that had to wait at least once.
    pub waits: AtomicU64,
    /// Acquisitions that gave up at the deadline.
    pub timeouts: AtomicU64,
}

/// The lock table: S/X locks on footprint-atom keys, all-or-nothing
/// acquisition per statement, strict 2PL release at commit/rollback.
#[derive(Debug, Default)]
pub struct LockTable {
    tables: Mutex<Tables>,
    /// Wait/timeout counters.
    pub stats: LockStats,
}

impl LockTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    fn tables(&self) -> std::sync::MutexGuard<'_, Tables> {
        self.tables.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Non-blocking all-or-nothing acquisition — the writer thread's path
    /// (it must never wait, since it is also the thread that releases
    /// locks; contended statements are requeued with a retry deadline
    /// instead). `Err` carries the contended key.
    pub fn try_lock(&self, txn: u64, requests: &[LockRequest]) -> Result<(), String> {
        if requests.is_empty() {
            return Ok(());
        }
        let mut tables = self.tables();
        match tables.blocked_on(Some(txn), requests) {
            None => {
                tables.grant_all(txn, requests);
                Ok(())
            }
            Some(key) => Err(key),
        }
    }

    /// Whether a non-transactional write with these demands would
    /// conflict with any held transaction lock. Checked under the writer
    /// lock immediately before the write applies, so the answer cannot go
    /// stale against a transaction statement (which journals under the
    /// same writer lock *after* acquiring its locks). `Some(key)` names a
    /// contended key.
    pub fn would_block(&self, requests: &[LockRequest]) -> Option<String> {
        if requests.is_empty() {
            return None;
        }
        self.tables().blocked_on(None, requests)
    }

    /// Releases everything `txn` holds (strict 2PL release point).
    pub fn release_all(&self, txn: u64) {
        let mut tables = self.tables();
        let Some(keys) = tables.owned.remove(&txn) else {
            return;
        };
        for key in keys {
            if let Some(h) = tables.locks.get_mut(&key) {
                if h.exclusive == Some(txn) {
                    h.exclusive = None;
                }
                h.shared.remove(&txn);
                if h.is_free() {
                    tables.locks.remove(&key);
                }
            }
        }
    }

    /// Number of transactions currently holding at least one lock.
    pub fn holders(&self) -> usize {
        self.tables().owned.len()
    }

    /// Whether `txn` already holds every request at (at least) the
    /// requested strength: a shared request is satisfied by a held S or
    /// X lock, an exclusive request only by a held X lock, and the
    /// global key only by holding it exclusively. Used to skip
    /// workspace refreshes: an atom continuously held since it was
    /// first locked cannot have been changed by any other writer, so a
    /// statement confined to held atoms sees current values in a stale
    /// workspace. Conservative on anything else (returns `false`).
    pub fn holds_all(&self, txn: u64, requests: &[LockRequest]) -> bool {
        if requests.is_empty() {
            return false;
        }
        let tables = self.tables();
        requests.iter().all(|req| {
            let Some(h) = tables.locks.get(&req.key) else {
                return false;
            };
            match req.mode {
                LockMode::Exclusive => h.exclusive == Some(txn),
                LockMode::Shared => h.exclusive == Some(txn) || h.shared.contains(&txn),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_locks_coexist_exclusive_excludes() {
        let t = LockTable::new();
        t.try_lock(1, &[LockRequest::shared("R(a)")]).unwrap();
        t.try_lock(2, &[LockRequest::shared("R(a)")]).unwrap();
        assert_eq!(
            t.try_lock(3, &[LockRequest::exclusive("R(a)")]),
            Err("R(a)".to_string())
        );
        t.release_all(1);
        t.release_all(2);
        t.try_lock(3, &[LockRequest::exclusive("R(a)")]).unwrap();
        assert_eq!(
            t.try_lock(1, &[LockRequest::shared("R(a)")]),
            Err("R(a)".to_string())
        );
        assert_eq!(t.holders(), 1);
    }

    #[test]
    fn reentrant_grants_and_upgrade() {
        let t = LockTable::new();
        t.try_lock(1, &[LockRequest::shared("R(a)")]).unwrap();
        // Upgrade with no other holders is allowed; re-granting is a no-op.
        t.try_lock(1, &[LockRequest::exclusive("R(a)")]).unwrap();
        t.try_lock(1, &[LockRequest::shared("R(a)")]).unwrap();
        assert_eq!(
            t.try_lock(2, &[LockRequest::shared("R(a)")]),
            Err("R(a)".to_string())
        );
        // Upgrade *with* another shared holder must refuse.
        t.release_all(1);
        t.try_lock(1, &[LockRequest::shared("R(b)")]).unwrap();
        t.try_lock(2, &[LockRequest::shared("R(b)")]).unwrap();
        assert_eq!(
            t.try_lock(1, &[LockRequest::exclusive("R(b)")]),
            Err("R(b)".to_string())
        );
    }

    #[test]
    fn global_key_conflicts_with_everything() {
        let t = LockTable::new();
        t.try_lock(1, &[LockRequest::shared("R(a)")]).unwrap();
        assert_eq!(
            t.try_lock(2, &[LockRequest::global()]),
            Err("*".to_string())
        );
        t.release_all(1);
        t.try_lock(2, &[LockRequest::global()]).unwrap();
        assert_eq!(
            t.try_lock(1, &[LockRequest::shared("S(q)")]),
            Err("*".to_string())
        );
        assert!(t.would_block(&[LockRequest::shared("anything")]).is_some());
        t.release_all(2);
        assert!(t.would_block(&[LockRequest::exclusive("S(q)")]).is_none());
    }

    #[test]
    fn holds_all_matches_granted_strength() {
        let t = LockTable::new();
        t.try_lock(
            1,
            &[LockRequest::exclusive("R(a)"), LockRequest::shared("S(a)")],
        )
        .unwrap();
        // Exclusive covers both strengths; shared covers only shared.
        assert!(t.holds_all(1, &[LockRequest::exclusive("R(a)")]));
        assert!(t.holds_all(1, &[LockRequest::shared("R(a)")]));
        assert!(t.holds_all(1, &[LockRequest::shared("S(a)")]));
        assert!(!t.holds_all(1, &[LockRequest::exclusive("S(a)")]));
        // Any unheld key, another txn, an empty footprint, or the
        // global key is never covered.
        assert!(!t.holds_all(
            1,
            &[LockRequest::shared("R(a)"), LockRequest::shared("R(b)")]
        ));
        assert!(!t.holds_all(2, &[LockRequest::shared("R(a)")]));
        assert!(!t.holds_all(1, &[]));
        assert!(!t.holds_all(1, &[LockRequest::global()]));
        t.release_all(1);
        assert!(!t.holds_all(1, &[LockRequest::shared("R(a)")]));
    }

    #[test]
    fn all_or_nothing_acquisition() {
        let t = LockTable::new();
        t.try_lock(1, &[LockRequest::exclusive("R(b)")]).unwrap();
        // Txn 2 wants a and b; b is taken, so *nothing* may be granted.
        assert!(t
            .try_lock(
                2,
                &[
                    LockRequest::exclusive("R(a)"),
                    LockRequest::exclusive("R(b)")
                ]
            )
            .is_err());
        assert!(t.would_block(&[LockRequest::exclusive("R(a)")]).is_none());
    }
}
