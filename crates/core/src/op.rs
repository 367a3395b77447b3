//! One write operation, from the wire to the WAL.
//!
//! An [`Op`] is the unit every layer hands along: the server's `Write`
//! request carries one, its writer thread queues it,
//! [`DurableDatabase::apply`](crate::wal::DurableDatabase::apply) and
//! [`DurableDatabase::txn_apply`](crate::wal::DurableDatabase::txn_apply)
//! journal it, and [`apply_op`] applies it — live, on recovery, on the
//! compaction swap, in transaction workspaces and on replicas. The JSON
//! of an `Op` is both the WAL's record and the wire's write request.
//! Adding an operation kind touches `Op`, [`apply_op`] and the server's
//! lock rule, nothing else.

use crate::db::LogicalDatabase;
use crate::error::DbError;
use crate::persist::{self, DependencyDump};
use serde::{Deserialize, Serialize};
use winslett_gua::UpdateReport;
use winslett_ldml::Update;
use winslett_logic::{display_wff, parse_wff, AtomId, Formula, ParseContext, PredId, Wff};
use winslett_theory::{Theory, TheoryError};

/// A journaled update, rendered in the portable name-based concrete
/// syntax of [`winslett_logic::parse_wff`] (the same convention as
/// [`crate::TheoryDump`]), so records survive re-interning.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum UpdateDump {
    /// `INSERT ω WHERE φ` as `(ω, φ)`.
    Insert(String, String),
    /// `DELETE t WHERE φ ∧ t` as `(t, φ)`.
    Delete(String, String),
    /// `MODIFY t TO BE ω WHERE φ ∧ t` as `(t, ω, φ)`.
    Modify(String, String, String),
    /// `ASSERT φ` as `(φ)`.
    Assert(String),
}

/// One logical write.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Op {
    /// `declare_attribute(name)`.
    DeclareAttribute(String),
    /// `declare_relation(name, arity)`.
    DeclareRelation(String, usize),
    /// `declare_typed_relation(name, attribute names)`: a relation under
    /// a §3.5 type axiom.
    DeclareTypedRelation(String, Vec<String>),
    /// `add_dependency`, in the portable form of [`DependencyDump`].
    AddDependency(DependencyDump),
    /// `load_fact(pred, args)`.
    LoadFact(String, Vec<String>),
    /// `load_wff(src)`.
    LoadWff(String),
    /// One LDML update in its **effective** (§3.5-widened) form — exactly
    /// what GUA applied, so replay does not widen again. The journal form
    /// of an `Execute`; the server refuses it from clients.
    Apply(UpdateDump),
    /// One LDML statement's source. Never journaled: the log records its
    /// effective `Apply`.
    Execute(String),
}

/// Applies `op` to `db` in place — the only code that applies an
/// [`Op`]. Recovery, the compaction swap, transaction workspaces,
/// replicas and catch-up followers replay journaled ops through it,
/// feeding it what [`crate::TxnSettle`] releases. An `Apply` runs GUA at
/// `db`'s own simplification level: recovery and replicas replay at
/// [`winslett_gua::SimplifyLevel::None`] and fold once with
/// [`LogicalDatabase::simplify`], while workspaces and the compaction
/// swap replay at the live level. Declarations and loads report no GUA
/// work.
///
/// A refused op leaves the theory's store, registry, schema,
/// dependencies and worlds as it found them; only names its parse
/// interned may stay. GUA refuses before its Step 1, and declarations
/// check before they declare. The journaled write paths, recovery and
/// the replica tailer all rely on this rule: none of them undoes a
/// refused op.
pub fn apply_op(db: &mut LogicalDatabase, op: &Op) -> Result<UpdateReport, DbError> {
    match op {
        Op::DeclareAttribute(name) => {
            db.declare_attribute(name)?;
        }
        Op::DeclareRelation(name, arity) => {
            db.declare_relation(name, *arity)?;
        }
        Op::DeclareTypedRelation(name, attrs) => {
            let vocab = &db.theory().vocab;
            let ids = attrs
                .iter()
                .map(|a| {
                    vocab
                        .find_predicate(a)
                        .ok_or_else(|| TheoryError::UnknownPredicate { name: a.clone() })
                })
                .collect::<Result<Vec<PredId>, _>>()?;
            db.declare_typed_relation(name, &ids)?;
        }
        Op::AddDependency(dd) => {
            let dep = persist::restore_dependency(dd, db.theory_mut())?;
            db.add_dependency(dep);
        }
        Op::LoadFact(pred, args) => {
            let refs: Vec<&str> = args.iter().map(String::as_str).collect();
            db.load_fact(pred, &refs)?;
        }
        Op::LoadWff(src) => db.load_wff(src)?,
        Op::Apply(ud) => {
            let u = restore_update(ud, db.theory_mut())?;
            return db.apply_effective(&u);
        }
        Op::Execute(src) => return db.execute(src),
    }
    Ok(UpdateReport::default())
}

/// An op resolved against the database it is about to change: the op
/// the log records, plus an `Execute`'s parsed effective update, which
/// then applies without re-parsing its own dump.
pub(crate) struct Resolved {
    /// What the log records.
    pub(crate) journal: Op,
    effective: Option<Update>,
}

impl Resolved {
    /// Resolves `op` against `db`: an `Execute` is parsed, widened (§3.5)
    /// and validated into its effective `Apply`; any other op journals as
    /// itself.
    pub(crate) fn new(op: Op, db: &mut LogicalDatabase) -> Result<Self, DbError> {
        match op {
            Op::Execute(src) => {
                let parsed = db.parse_update(&src)?;
                Self::update(&parsed, db)
            }
            journal => Ok(Resolved {
                journal,
                effective: None,
            }),
        }
    }

    /// Resolves an update AST into its effective `Apply`.
    pub(crate) fn update(update: &Update, db: &mut LogicalDatabase) -> Result<Self, DbError> {
        let effective = db.effective_update(update);
        let t = db.theory();
        effective.validate(&t.vocab, &t.atoms)?;
        Ok(Resolved {
            journal: Op::Apply(dump_update(&effective, t)),
            effective: Some(effective),
        })
    }

    /// Applies the resolved op to `db`.
    pub(crate) fn apply(&self, db: &mut LogicalDatabase) -> Result<UpdateReport, DbError> {
        match &self.effective {
            Some(u) => db.apply_effective(u),
            None => apply_op(db, &self.journal),
        }
    }
}

fn dump_update(u: &Update, t: &Theory) -> UpdateDump {
    let wff = |w: &Wff| display_wff(w, &t.vocab, &t.atoms).to_string();
    let atom = |a: AtomId| t.atoms.resolve(a).display(&t.vocab).to_string();
    match u {
        Update::Insert { omega, phi } => UpdateDump::Insert(wff(omega), wff(phi)),
        Update::Delete { t: tt, phi } => UpdateDump::Delete(atom(*tt), wff(phi)),
        Update::Modify { t: tt, omega, phi } => UpdateDump::Modify(atom(*tt), wff(omega), wff(phi)),
        Update::Assert { phi } => UpdateDump::Assert(wff(phi)),
    }
}

fn parse_journaled_wff(src: &str, theory: &mut Theory) -> Result<Wff, DbError> {
    let mut ctx = ParseContext {
        vocab: &mut theory.vocab,
        atoms: &mut theory.atoms,
        declare: true, // constants may be new to the snapshot
        allow_predicate_constants: true,
    };
    Ok(parse_wff(src, &mut ctx)?)
}

fn parse_journaled_atom(src: &str, theory: &mut Theory) -> Result<AtomId, DbError> {
    match parse_journaled_wff(src, theory)? {
        Formula::Atom(id) => Ok(id),
        other => Err(DbError::Corrupt {
            message: format!("journaled target `{src}` is not an atom: {other:?}"),
        }),
    }
}

fn restore_update(d: &UpdateDump, theory: &mut Theory) -> Result<Update, DbError> {
    Ok(match d {
        UpdateDump::Insert(omega, phi) => Update::Insert {
            omega: parse_journaled_wff(omega, theory)?,
            phi: parse_journaled_wff(phi, theory)?,
        },
        UpdateDump::Delete(t, phi) => Update::Delete {
            t: parse_journaled_atom(t, theory)?,
            phi: parse_journaled_wff(phi, theory)?,
        },
        UpdateDump::Modify(t, omega, phi) => Update::Modify {
            t: parse_journaled_atom(t, theory)?,
            omega: parse_journaled_wff(omega, theory)?,
            phi: parse_journaled_wff(phi, theory)?,
        },
        UpdateDump::Assert(phi) => Update::Assert {
            phi: parse_journaled_wff(phi, theory)?,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::DbOptions;
    use crate::persist::{dump_theory, HeadDump, TermDump};
    use winslett_gua::SimplifyLevel;
    use winslett_logic::PredicateKind;

    /// `P/2` and `Q/1`, declared through `apply_op`.
    fn p2_q1() -> LogicalDatabase {
        let mut db = LogicalDatabase::with_options(DbOptions {
            simplify: SimplifyLevel::None,
            ..DbOptions::default()
        });
        apply_op(&mut db, &Op::DeclareRelation("P".into(), 2)).unwrap();
        apply_op(&mut db, &Op::DeclareRelation("Q".into(), 1)).unwrap();
        db
    }

    /// `body → Q(x)` over variables `x = 0`, `y = 1`.
    fn into_q(body: Vec<(String, Vec<TermDump>)>) -> Op {
        Op::AddDependency(DependencyDump {
            name: "dep".into(),
            num_vars: 2,
            body,
            head: HeadDump::Atom("Q".into(), vec![TermDump::V(0)]),
        })
    }

    /// Applies `op`, which must be refused as a user error, and checks
    /// that the refusal left the theory unchanged.
    fn refused(db: &mut LogicalDatabase, op: &Op) -> TheoryError {
        let before = dump_theory(db.theory());
        let err = apply_op(db, op).unwrap_err();
        assert_eq!(
            dump_theory(db.theory()),
            before,
            "refusal changed the theory"
        );
        match err {
            DbError::Theory(e) => e,
            other => panic!("expected a typed user error, got {other:?}"),
        }
    }

    #[test]
    fn dependency_at_the_wrong_arity_is_refused() {
        let mut db = p2_q1();
        // P(x,y) → Q(x,y): Q has arity 1.
        let op = Op::AddDependency(DependencyDump {
            name: "dep".into(),
            num_vars: 2,
            body: vec![("P".into(), vec![TermDump::V(0), TermDump::V(1)])],
            head: HeadDump::Atom("Q".into(), vec![TermDump::V(0), TermDump::V(1)]),
        });
        let err = refused(&mut db, &op);
        assert!(
            matches!(
                err,
                TheoryError::ArityMismatch {
                    expected: 1,
                    got: 2,
                    ..
                }
            ),
            "{err:?}"
        );
        assert!(db.theory().deps.is_empty());
        // The refused axiom cannot wipe the worlds of a later insert.
        db.execute("INSERT P(a,b) WHERE T").unwrap();
        assert!(db.is_certain("P(a,b)").unwrap());
        assert!(db.is_consistent());
    }

    #[test]
    fn dependency_on_an_undeclared_predicate_is_refused() {
        let mut db = p2_q1();
        let op = into_q(vec![("Ghost".into(), vec![TermDump::V(0)])]);
        let err = refused(&mut db, &op);
        assert_eq!(
            err,
            TheoryError::UnknownPredicate {
                name: "Ghost".into()
            }
        );
    }

    #[test]
    fn dependency_on_a_predicate_constant_is_refused() {
        let mut db = p2_q1();
        db.execute("INSERT P(a,b) WHERE T").unwrap();
        db.execute("DELETE P(a,b) WHERE T").unwrap();
        let minted = db
            .theory()
            .vocab
            .predicates()
            .find(|(_, p)| p.kind == PredicateKind::PredicateConstant)
            .map(|(_, p)| p.name.clone())
            .expect("GUA minted a predicate constant");
        let op = into_q(vec![(minted.clone(), Vec::new())]);
        let err = refused(&mut db, &op);
        assert_eq!(err, TheoryError::UnknownPredicate { name: minted });
    }

    #[test]
    fn typed_relation_over_an_unknown_attribute_is_a_user_error() {
        let mut db = p2_q1();
        let op = Op::DeclareTypedRelation("T2".into(), vec!["Nope".into()]);
        let err = refused(&mut db, &op);
        assert_eq!(
            err,
            TheoryError::UnknownPredicate {
                name: "Nope".into()
            }
        );
    }
}
