//! Saving and loading logical databases.
//!
//! A [`Theory`] serializes to a self-contained JSON document holding the
//! schema (attributes, relations, type axioms), the dependency axioms, the
//! completion-axiom registry (as atom strings), and the non-axiomatic
//! section (as wff strings in the concrete syntax of
//! [`winslett_logic::parse_wff`]). Everything is name-based, so a dump is
//! stable across interning orders and readable in a code review — the
//! moral equivalent of a `.sql` dump for a logical database.
//!
//! Predicate constants minted by GUA are preserved (they carry the
//! residual update history), and the fresh-name counter is bumped past
//! them on load so future updates cannot collide.

use crate::error::DbError;
use serde::{Deserialize, Serialize};
use winslett_logic::{display_wff, parse_wff, ParseContext, PredId, PredicateKind};
use winslett_theory::{AtomPattern, Dependency, HeadFormula, Term, Theory, TheoryError};

/// The newest dump format version this build writes and reads.
pub const DUMP_VERSION: u32 = 2;

/// The serialized form of a theory.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct TheoryDump {
    /// Format version, for forward compatibility.
    pub version: u32,
    /// The vocabulary's fresh-name counter at dump time (version ≥ 2).
    /// Restoring it keeps GUA-minted predicate-constant names disjoint
    /// from every name the saved theory ever used — including `__pN` names
    /// that simplification freed, which appear nowhere else in the dump.
    pub fresh_counter: u64,
    /// Attribute predicate names.
    pub attributes: Vec<String>,
    /// Relations: `(name, arity, type axiom attribute names if any)`.
    pub relations: Vec<(String, usize, Option<Vec<String>>)>,
    /// Predicate constants present in the store (names).
    pub predicate_constants: Vec<String>,
    /// Dependency axioms, in a portable structural form.
    pub dependencies: Vec<DependencyDump>,
    /// Registered atoms, as rendered atom strings (completion axioms).
    pub registered: Vec<String>,
    /// The non-axiomatic section, one wff string per formula.
    pub wffs: Vec<String>,
}

// Hand-written so a version-1 document (which predates `fresh_counter`)
// still deserializes, defaulting the counter to 0; `restore_theory` then
// reconstructs a safe counter from the minted names themselves.
impl serde::Deserialize for TheoryDump {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let entries = v
            .as_object()
            .ok_or_else(|| serde::DeError::new("expected object for TheoryDump"))?;
        let fresh_counter = match serde::field(entries, "fresh_counter") {
            Ok(fv) => serde::Deserialize::from_value(fv)?,
            Err(_) => 0,
        };
        Ok(TheoryDump {
            version: serde::Deserialize::from_value(serde::field(entries, "version")?)?,
            fresh_counter,
            attributes: serde::Deserialize::from_value(serde::field(entries, "attributes")?)?,
            relations: serde::Deserialize::from_value(serde::field(entries, "relations")?)?,
            predicate_constants: serde::Deserialize::from_value(serde::field(
                entries,
                "predicate_constants",
            )?)?,
            dependencies: serde::Deserialize::from_value(serde::field(entries, "dependencies")?)?,
            registered: serde::Deserialize::from_value(serde::field(entries, "registered")?)?,
            wffs: serde::Deserialize::from_value(serde::field(entries, "wffs")?)?,
        })
    }
}

/// Portable form of a template dependency.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DependencyDump {
    /// Label.
    pub name: String,
    /// Number of variables.
    pub num_vars: u16,
    /// Body patterns: `(pred name, terms)` where a term is either
    /// `{"v": i}` or `{"c": "name"}`.
    pub body: Vec<(String, Vec<TermDump>)>,
    /// Head, structurally.
    pub head: HeadDump,
}

impl DependencyDump {
    /// The functional dependency of `relation`'s non-key columns on its
    /// `key` columns, in portable form (a client's
    /// [`crate::Op::AddDependency`]).
    pub fn functional(
        name: &str,
        relation: &str,
        arity: usize,
        key: &[usize],
    ) -> Result<Self, DbError> {
        let mut t = Theory::new();
        let p = t.declare_relation(relation, arity)?;
        Ok(dump_dependency(
            &Dependency::functional(name, p, arity, key)?,
            &t,
        ))
    }
}

/// Portable term.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum TermDump {
    /// Variable index.
    V(u16),
    /// Constant name.
    C(String),
}

/// Portable head formula.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum HeadDump {
    /// Truth constant.
    Truth(bool),
    /// Atom pattern.
    Atom(String, Vec<TermDump>),
    /// Equality.
    Eq(TermDump, TermDump),
    /// Negation.
    Not(Box<HeadDump>),
    /// Conjunction.
    And(Vec<HeadDump>),
    /// Disjunction.
    Or(Vec<HeadDump>),
}

/// Serializes a theory to its dump form.
pub fn dump_theory(theory: &Theory) -> TheoryDump {
    let mut attributes = Vec::new();
    let mut relations = Vec::new();
    let mut predicate_constants = Vec::new();
    for (pid, pred) in theory.vocab.predicates() {
        match pred.kind {
            PredicateKind::Attribute => attributes.push(pred.name.clone()),
            PredicateKind::Relation => {
                let ty = theory.schema.type_axiom(pid).map(|attrs| {
                    attrs
                        .iter()
                        .map(|a| theory.vocab.predicate(*a).name.clone())
                        .collect()
                });
                relations.push((pred.name.clone(), pred.arity, ty));
            }
            PredicateKind::PredicateConstant => {
                predicate_constants.push(pred.name.clone());
            }
        }
    }
    let registered: Vec<String> = {
        let mut v: Vec<_> = theory
            .registry
            .iter()
            .map(|(_, a)| theory.atoms.resolve(a).display(&theory.vocab).to_string())
            .collect();
        v.sort();
        v
    };
    let wffs: Vec<String> = theory
        .store
        .iter()
        .map(|(_, w)| display_wff(&w, &theory.vocab, &theory.atoms).to_string())
        .collect();
    let dependencies = theory
        .deps
        .iter()
        .map(|d| dump_dependency(d, theory))
        .collect();
    TheoryDump {
        version: DUMP_VERSION,
        fresh_counter: theory.vocab.fresh_counter(),
        attributes,
        relations,
        predicate_constants,
        dependencies,
        registered,
        wffs,
    }
}

fn dump_term(t: &Term, theory: &Theory) -> TermDump {
    match t {
        Term::Var(v) => TermDump::V(*v),
        Term::Cst(c) => TermDump::C(theory.vocab.constant_name(*c).to_owned()),
    }
}

fn dump_head(h: &HeadFormula, theory: &Theory) -> HeadDump {
    match h {
        HeadFormula::Truth(b) => HeadDump::Truth(*b),
        HeadFormula::Atom(a) => HeadDump::Atom(
            theory.vocab.predicate(a.pred).name.clone(),
            a.args.iter().map(|t| dump_term(t, theory)).collect(),
        ),
        HeadFormula::Eq(s, t) => HeadDump::Eq(dump_term(s, theory), dump_term(t, theory)),
        HeadFormula::Not(x) => HeadDump::Not(Box::new(dump_head(x, theory))),
        HeadFormula::And(xs) => HeadDump::And(xs.iter().map(|x| dump_head(x, theory)).collect()),
        HeadFormula::Or(xs) => HeadDump::Or(xs.iter().map(|x| dump_head(x, theory)).collect()),
    }
}

pub(crate) fn dump_dependency(d: &Dependency, theory: &Theory) -> DependencyDump {
    DependencyDump {
        name: d.name.clone(),
        num_vars: d.num_vars,
        body: d
            .body
            .iter()
            .map(|g| {
                (
                    theory.vocab.predicate(g.pred).name.clone(),
                    g.args.iter().map(|t| dump_term(t, theory)).collect(),
                )
            })
            .collect(),
        head: dump_head(&d.head, theory),
    }
}

/// Serializes a theory to a JSON string.
pub fn save_theory(theory: &Theory) -> Result<String, DbError> {
    serde_json::to_string_pretty(&dump_theory(theory)).map_err(|e| DbError::Query {
        message: format!("serialization failed: {e}"),
    })
}

/// Reconstructs a theory from its dump form.
pub fn restore_theory(dump: &TheoryDump) -> Result<Theory, DbError> {
    // Version 1 dumps (no `fresh_counter` field) are still readable; any
    // unknown or future version is refused with a structured error rather
    // than silently misread.
    if dump.version == 0 || dump.version > DUMP_VERSION {
        return Err(DbError::UnsupportedVersion {
            what: "theory dump",
            found: dump.version,
            supported: DUMP_VERSION,
        });
    }
    let mut t = Theory::new();
    let mut attr_ids = Vec::new();
    for a in &dump.attributes {
        attr_ids.push((a.clone(), t.declare_attribute(a)?));
    }
    for (name, arity, ty) in &dump.relations {
        match ty {
            None => {
                t.declare_relation(name, *arity)?;
            }
            Some(attrs) => {
                let ids: Result<Vec<_>, DbError> = attrs
                    .iter()
                    .map(|a| {
                        attr_ids
                            .iter()
                            .find(|(n, _)| n == a)
                            .map(|(_, id)| *id)
                            .ok_or_else(|| DbError::Query {
                                message: format!("type axiom references unknown attribute `{a}`"),
                            })
                    })
                    .collect();
                t.declare_typed_relation(name, &ids?)?;
            }
        }
    }
    for pc in &dump.predicate_constants {
        t.vocab
            .declare_predicate(pc, 0, PredicateKind::PredicateConstant)
            .ok_or_else(|| DbError::Query {
                message: format!("predicate constant `{pc}` conflicts with a relation"),
            })?;
    }
    // Restore the fresh-name counter. Version-1 dumps did not record it,
    // so additionally bump past every `__p<N>…` name present in the dump
    // — future mints must not reuse a number a GUA-minted constant
    // carries, or renames of distinct atoms could be given colliding
    // lineage tags.
    t.vocab.bump_fresh_counter_to(dump.fresh_counter);
    for pc in &dump.predicate_constants {
        if let Some(digits) = pc.strip_prefix("__p") {
            let digits: String = digits.chars().take_while(|c| c.is_ascii_digit()).collect();
            if let Ok(n) = digits.parse::<u64>() {
                t.vocab.bump_fresh_counter_to(n + 1);
            }
        }
    }
    for d in &dump.dependencies {
        let dep = restore_dependency(d, &mut t)?;
        t.add_dependency(dep);
    }
    // The non-axiomatic section: parse each wff; this interns atoms and
    // registers them.
    for src in &dump.wffs {
        let wff = {
            let mut ctx = ParseContext {
                vocab: &mut t.vocab,
                atoms: &mut t.atoms,
                declare: true, // constants may be new; predicates exist
                allow_predicate_constants: true,
            };
            parse_wff(src, &mut ctx).map_err(DbError::from)?
        };
        t.assert_wff(&wff);
    }
    // Registered atoms beyond those in the section (e.g. freed by
    // simplification): re-register explicitly.
    for src in &dump.registered {
        let wff = {
            let mut ctx = ParseContext {
                vocab: &mut t.vocab,
                atoms: &mut t.atoms,
                declare: true,
                allow_predicate_constants: false,
            };
            parse_wff(src, &mut ctx).map_err(DbError::from)?
        };
        match wff {
            winslett_logic::Formula::Atom(id) => {
                t.register_atom(id);
            }
            other => {
                return Err(DbError::Query {
                    message: format!("registered entry `{src}` is not an atom: {other:?}"),
                })
            }
        }
    }
    Ok(t)
}

fn restore_term(t: &TermDump, theory: &mut Theory) -> Term {
    match t {
        TermDump::V(v) => Term::Var(*v),
        TermDump::C(name) => Term::Cst(theory.constant(name)),
    }
}

fn restore_head(h: &HeadDump, theory: &mut Theory) -> Result<HeadFormula, DbError> {
    Ok(match h {
        HeadDump::Truth(b) => HeadFormula::Truth(*b),
        HeadDump::Atom(pred, args) => {
            let p = dependency_predicate(theory, pred, args.len())?;
            let args = args.iter().map(|t| restore_term(t, theory)).collect();
            HeadFormula::Atom(AtomPattern::new(p, args))
        }
        HeadDump::Eq(s, t) => HeadFormula::Eq(restore_term(s, theory), restore_term(t, theory)),
        HeadDump::Not(x) => HeadFormula::Not(Box::new(restore_head(x, theory)?)),
        HeadDump::And(xs) => HeadFormula::And(
            xs.iter()
                .map(|x| restore_head(x, theory))
                .collect::<Result<_, _>>()?,
        ),
        HeadDump::Or(xs) => HeadFormula::Or(
            xs.iter()
                .map(|x| restore_head(x, theory))
                .collect::<Result<_, _>>()?,
        ),
    })
}

/// Every `(predicate, argument count)` pattern of a dependency head.
fn head_patterns<'a>(h: &'a HeadDump, out: &mut Vec<(&'a str, usize)>) {
    match h {
        HeadDump::Atom(pred, args) => out.push((pred, args.len())),
        HeadDump::Not(x) => head_patterns(x, out),
        HeadDump::And(xs) | HeadDump::Or(xs) => xs.iter().for_each(|x| head_patterns(x, out)),
        HeadDump::Truth(_) | HeadDump::Eq(..) => {}
    }
}

/// The declared relation or attribute a dependency pattern names, at
/// its arity. Anything else — a GUA-minted predicate constant included —
/// would constrain atoms no world can hold, as would a wrong argument
/// count.
fn dependency_predicate(theory: &Theory, pred: &str, args: usize) -> Result<PredId, DbError> {
    let vocab = &theory.vocab;
    let p = vocab
        .find_predicate(pred)
        .filter(|&p| vocab.predicate(p).kind != PredicateKind::PredicateConstant)
        .ok_or_else(|| TheoryError::UnknownPredicate { name: pred.into() })?;
    let expected = vocab.predicate(p).arity;
    if expected != args {
        return Err(TheoryError::ArityMismatch {
            predicate: pred.into(),
            expected,
            got: args,
        }
        .into());
    }
    Ok(p)
}

/// Restores a dependency, refusing one whose patterns name anything but
/// declared relations and attributes at their arity. Every pattern is
/// checked before any constant is interned, so a refusal leaves the
/// theory unchanged.
pub(crate) fn restore_dependency(
    d: &DependencyDump,
    theory: &mut Theory,
) -> Result<Dependency, DbError> {
    let mut patterns: Vec<(&str, usize)> =
        d.body.iter().map(|(p, a)| (p.as_str(), a.len())).collect();
    head_patterns(&d.head, &mut patterns);
    for (pred, args) in patterns {
        dependency_predicate(theory, pred, args)?;
    }
    let mut body = Vec::with_capacity(d.body.len());
    for (pred, args) in &d.body {
        let p = dependency_predicate(theory, pred, args.len())?;
        let args = args.iter().map(|t| restore_term(t, theory)).collect();
        body.push(AtomPattern::new(p, args));
    }
    let head = restore_head(&d.head, theory)?;
    Dependency::new(d.name.clone(), d.num_vars, body, head).map_err(DbError::from)
}

/// Deserializes a theory from a JSON string produced by [`save_theory`].
pub fn load_theory(json: &str) -> Result<Theory, DbError> {
    let dump: TheoryDump = serde_json::from_str(json).map_err(|e| DbError::Query {
        message: format!("deserialization failed: {e}"),
    })?;
    restore_theory(&dump)
}

#[cfg(test)]
mod tests {
    use super::*;
    use winslett_gua::GuaEngine;
    use winslett_logic::ModelLimit;

    fn sample_theory() -> Theory {
        let mut t = Theory::new();
        let part = t.declare_attribute("PartNo").unwrap();
        let quan = t.declare_attribute("Quan").unwrap();
        let instock = t.declare_typed_relation("InStock", &[part, quan]).unwrap();
        let orders = t.declare_relation("Orders", 3).unwrap();
        t.add_dependency(Dependency::functional("stock-fd", instock, 2, &[0]).unwrap());
        let c32 = t.constant("32");
        let c5 = t.constant("5");
        let tup = t.atom(instock, &[c32, c5]);
        let p32 = t.atom(part, &[c32]);
        let q5 = t.atom(quan, &[c5]);
        t.assert_atom(tup);
        t.assert_atom(p32);
        t.assert_atom(q5);
        let o = {
            let a = t.constant("700");
            let b = t.constant("9");
            t.atom(orders, &[a, c32, b])
        };
        let o2 = {
            let a = t.constant("701");
            let b = t.constant("9");
            t.atom(orders, &[a, c32, b])
        };
        t.assert_wff(&winslett_logic::Formula::Or(vec![
            winslett_logic::Wff::Atom(o),
            winslett_logic::Wff::Atom(o2),
        ]));
        t
    }

    fn worlds_of(t: &Theory) -> Vec<Vec<String>> {
        let mut out: Vec<Vec<String>> = t
            .alternative_worlds(ModelLimit::default())
            .unwrap()
            .iter()
            .map(|w| t.format_world(w))
            .collect();
        out.sort();
        out
    }

    #[test]
    fn roundtrip_preserves_worlds() {
        let t = sample_theory();
        let json = save_theory(&t).unwrap();
        let restored = load_theory(&json).unwrap();
        assert_eq!(worlds_of(&t), worlds_of(&restored));
        assert_eq!(t.deps.len(), restored.deps.len());
        assert_eq!(t.store.len(), restored.store.len());
    }

    #[test]
    fn roundtrip_after_updates_preserves_worlds() {
        // Including the predicate constants GUA leaves behind.
        let t = sample_theory();
        let mut engine = GuaEngine::new(
            t,
            winslett_gua::GuaOptions::simplify_always(winslett_gua::SimplifyLevel::None),
        );
        engine.execute("DELETE InStock(32,5) WHERE T").unwrap();
        engine
            .execute("INSERT Orders(702,32,1) | Orders(702,32,2) WHERE T")
            .unwrap();
        let json = save_theory(&engine.theory).unwrap();
        let restored = load_theory(&json).unwrap();
        assert_eq!(worlds_of(&engine.theory), worlds_of(&restored));
        // And the restored theory keeps working: apply another update.
        let mut engine2 = GuaEngine::with_defaults(restored);
        engine2.execute("ASSERT Orders(702,32,1)").unwrap();
        assert!(engine2.theory.is_consistent());
    }

    #[test]
    fn dump_is_human_readable() {
        let t = sample_theory();
        let json = save_theory(&t).unwrap();
        assert!(json.contains("InStock(32,5)"));
        assert!(json.contains("Orders(700,32,9) | Orders(701,32,9)"));
        assert!(json.contains("stock-fd"));
    }

    #[test]
    fn bad_version_rejected_with_structured_error() {
        let t = sample_theory();
        let mut dump = dump_theory(&t);
        dump.version = 99;
        assert_eq!(
            restore_theory(&dump).unwrap_err(),
            DbError::UnsupportedVersion {
                what: "theory dump",
                found: 99,
                supported: DUMP_VERSION,
            }
        );
        dump.version = 0;
        assert!(matches!(
            restore_theory(&dump),
            Err(DbError::UnsupportedVersion { found: 0, .. })
        ));
        // A JSON document with a future version is rejected through
        // load_theory too (the field used to be accepted unchecked there).
        let mut json = save_theory(&t).unwrap();
        json = json.replacen(
            &format!("\"version\": {DUMP_VERSION}"),
            "\"version\": 77",
            1,
        );
        assert!(matches!(
            load_theory(&json),
            Err(DbError::UnsupportedVersion { found: 77, .. })
        ));
    }

    #[test]
    fn fresh_counter_survives_roundtrip_and_cannot_collide() {
        // GUA mints predicate constants; after save/load the restored
        // vocabulary must keep minting names disjoint from the saved ones.
        let t = sample_theory();
        let mut engine = GuaEngine::new(
            t,
            winslett_gua::GuaOptions::simplify_always(winslett_gua::SimplifyLevel::None),
        );
        engine.execute("DELETE InStock(32,5) WHERE T").unwrap();
        engine.execute("INSERT InStock(32,6) WHERE T").unwrap();
        let saved_counter = engine.theory.vocab.fresh_counter();
        assert!(saved_counter > 0);
        let json = save_theory(&engine.theory).unwrap();
        let restored = load_theory(&json).unwrap();
        assert_eq!(restored.vocab.fresh_counter(), saved_counter);
        // Fresh names minted post-restore are new to the restored theory.
        let mut vocab = restored.vocab.clone();
        let pid = vocab.fresh_predicate_constant();
        assert!(restored
            .vocab
            .find_predicate(&vocab.predicate(pid).name)
            .is_none());
    }

    #[test]
    fn version1_dump_bumps_counter_past_minted_names() {
        // A version-1 dump has no fresh_counter field; the loader must
        // still move the counter past every `__pN…` name in the dump.
        let t = sample_theory();
        let mut engine = GuaEngine::new(
            t,
            winslett_gua::GuaOptions::simplify_always(winslett_gua::SimplifyLevel::None),
        );
        engine.execute("DELETE InStock(32,5) WHERE T").unwrap();
        let mut dump = dump_theory(&engine.theory);
        dump.version = 1;
        dump.fresh_counter = 0; // as if absent from the JSON
        let restored = restore_theory(&dump).unwrap();
        assert!(restored.vocab.fresh_counter() >= engine.theory.vocab.fresh_counter());
    }

    #[test]
    fn garbage_json_rejected() {
        assert!(load_theory("{not json").is_err());
        assert!(load_theory("{}").is_err());
    }
}
