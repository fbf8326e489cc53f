//! The delta-derivation tier: `update::bulk_delta` derives a write's
//! `IndexDelta` with a join that borrows the database's rows and pushes
//! the affected identifiers down into it. Whatever shortcut it takes,
//! the delta must equal (`==`, removes and adds) the one the definition
//! gives, written out here on its own:
//!
//! * removes — for each changed relation, a copy of the database whose
//!   table for that relation holds only the batch's records of it,
//!   fully joined (`PsjQuery::join_all`) and grouped by
//!   `reference::fragments`: every identifier any such row carries;
//! * adds — `reference::fragments` over the whole current database,
//!   kept where the identifier is one of the removes.
//!
//! Random insert/delete histories run against fooddb's `Search`, a
//! fooddb application whose identifier sits on the null-supplying side
//! of its LEFT JOIN, and TPC-H Q1, Q2 and Q3 over a tiny generated
//! database. Every relation of each database is touched, batches span
//! several relations, deletes take FK parents (leaving LEFT-JOIN-padded
//! rows, and identifiers with `NULL` components), inserts mix existing
//! column values with `NULL`s, and deleted rows are re-inserted — in a
//! later batch or in the same one, where both derivations must refuse
//! the batch alike (the shadow table repeats a primary key).

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use dash::core::crawl::reference;
use dash::core::update::{bulk_delta, IndexDelta, RecordChange};
use dash::core::FragmentId;
use dash::relation::{Database, Record, Table, Value};
use dash::tpch::{generate, q1_application, q2_application, q3_application, Scale, TpchConfig};
use dash::webapp::{fooddb, WebApplication};

/// fooddb's `Search` with its identifier moved onto the null-supplying
/// side: an uncommented restaurant's identifier has a `NULL` date.
const BY_DATE_SERVLET: &str = r#"
servlet ByDate at "www.example.com/ByDate" {
    String d = q.getParameter("d");
    String min = q.getParameter("l");
    String max = q.getParameter("u");
    Query = "SELECT name, comment FROM restaurant LEFT JOIN comment "
          + "WHERE (date = \"" + d + "\") "
          + "AND (budget BETWEEN " + min + " AND " + max + ")";
    output(execute(Query));
}
"#;

fn tiny_tpch() -> Database {
    let mut config = TpchConfig::new(Scale::Custom(1));
    config.base_customers = 12;
    config.base_parts = 15;
    config.orders_per_customer = 3;
    config.lineitems_per_order = 2;
    generate(&config)
}

/// The definition's delta for `changes` (`db` already reflecting them).
fn oracle(
    app: &WebApplication,
    db: &Database,
    changes: &[RecordChange],
) -> Result<IndexDelta, String> {
    let mut by_relation: BTreeMap<&str, Vec<Record>> = BTreeMap::new();
    for change in changes {
        by_relation
            .entry(&change.relation)
            .or_default()
            .push(change.record.clone());
    }
    let mut ids = BTreeSet::new();
    for (relation, records) in by_relation {
        let schema = db.table(relation).unwrap().schema().clone();
        let shadow_table = Table::with_records(schema, records).map_err(|e| e.to_string())?;
        let mut shadow = db.clone();
        shadow.add_table(shadow_table);
        let joined = app.query.join_all(&shadow).unwrap();
        for fragment in reference::fragments_of_joined(app, &joined).unwrap() {
            ids.insert(fragment.id);
        }
    }
    let adds = reference::fragments(app, db)
        .unwrap()
        .into_iter()
        .filter(|f| ids.contains(&f.id))
        .collect();
    Ok(IndexDelta::new(ids.into_iter().collect(), adds))
}

/// One abstract change, interpreted against the database as it stands.
#[derive(Debug, Clone, Copy)]
struct Op {
    /// 0–3 delete, 4–7 insert, 8–9 re-insert a deleted row.
    kind: u8,
    relation: usize,
    pick: usize,
    seed: u64,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..10, 0usize..64, 0usize..1 << 20, any::<u64>()).prop_map(|(kind, relation, pick, seed)| {
        Op {
            kind,
            relation,
            pick,
            seed,
        }
    })
}

/// splitmix64: the per-op stream an insert's column draws come from.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A database under a random history, with the rows it deleted.
struct History {
    db: Database,
    relations: Vec<String>,
    deleted: Vec<RecordChange>,
    next_key: i64,
}

impl History {
    fn new(db: Database) -> Self {
        let relations = db.table_names().into_iter().map(String::from).collect();
        History {
            db,
            relations,
            deleted: Vec::new(),
            next_key: 1_000_000,
        }
    }

    /// Applies `op` to the database; the change it made, if any.
    fn apply(&mut self, op: Op) -> Option<RecordChange> {
        let relation = self.relations[op.relation % self.relations.len()].clone();
        let table = self.db.table_mut(&relation).unwrap();
        match op.kind {
            0..=3 => {
                let record = table.records().get(op.pick % table.len().max(1))?.clone();
                table.delete_where(|r| *r == record);
                let change = RecordChange::new(relation, record);
                self.deleted.push(change.clone());
                Some(change)
            }
            4..=7 => {
                // A fresh primary key, now and then NULL (a NULL join key
                // must never match, not even another NULL); every other
                // column copied from a random row of the relation
                // (existing or dangling FK values, new selection-value
                // combinations) or NULL.
                let mut state = op.seed;
                let key = table.schema().primary_key().to_vec();
                let records = table.records();
                let values = (0..table.schema().arity())
                    .map(|column| {
                        let draw = next(&mut state);
                        if key.contains(&column) && !draw.is_multiple_of(16) {
                            Value::Int(self.next_key)
                        } else if records.is_empty() || draw.is_multiple_of(8) {
                            Value::Null
                        } else {
                            records[(draw >> 3) as usize % records.len()].values()[column].clone()
                        }
                    })
                    .collect();
                self.next_key += 1;
                let record = Record::new(values);
                // Only a second NULL key can collide.
                table.insert(record.clone()).ok()?;
                Some(RecordChange::new(relation, record))
            }
            _ => {
                if self.deleted.is_empty() {
                    return None;
                }
                let at = op.pick % self.deleted.len();
                let change = self.deleted[at].clone();
                let table = self.db.table_mut(&change.relation).unwrap();
                table.insert(change.record.clone()).ok()?;
                self.deleted.swap_remove(at);
                Some(change)
            }
        }
    }
}

/// Runs `batches` against `db`, requiring `bulk_delta` to equal the
/// oracle after every batch. Returns how many batches derived a
/// non-empty delta.
fn check_history(app: &WebApplication, db: Database, batches: &[Vec<Op>]) -> usize {
    let mut history = History::new(db);
    let mut derived = 0;
    for (step, ops) in batches.iter().enumerate() {
        let changes: Vec<RecordChange> = ops.iter().filter_map(|&op| history.apply(op)).collect();
        let expected = oracle(app, &history.db, &changes);
        let delta = bulk_delta(app, &history.db, &changes).map_err(|e| e.to_string());
        match (&delta, &expected) {
            (Ok(delta), Ok(expected)) => {
                assert_eq!(delta, expected, "step {step}: {changes:?}");
                derived += usize::from(!delta.is_empty());
            }
            (Err(_), Err(_)) => {}
            _ => panic!("step {step}: bulk_delta {delta:?} vs definition {expected:?}"),
        }
    }
    derived
}

fn batches() -> impl Strategy<Value = Vec<Vec<Op>>> {
    prop::collection::vec(prop::collection::vec(op_strategy(), 1..4), 4..16)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fooddb_search_deltas_match_the_definition(batches in batches()) {
        let app = fooddb::search_application().unwrap();
        prop_assert!(check_history(&app, fooddb::database(), &batches) > 0);
    }

    #[test]
    fn null_supplying_identifier_deltas_match_the_definition(batches in batches()) {
        let db = fooddb::database();
        let app = WebApplication::from_servlet_source(BY_DATE_SERVLET, &db).unwrap();
        prop_assert!(check_history(&app, db, &batches) > 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn tpch_q1_deltas_match_the_definition(batches in batches()) {
        let db = tiny_tpch();
        let app = q1_application(&db).unwrap();
        prop_assert!(check_history(&app, db, &batches) > 0);
    }

    #[test]
    fn tpch_q2_deltas_match_the_definition(batches in batches()) {
        let db = tiny_tpch();
        let app = q2_application(&db).unwrap();
        prop_assert!(check_history(&app, db, &batches) > 0);
    }

    #[test]
    fn tpch_q3_deltas_match_the_definition(batches in batches()) {
        let db = tiny_tpch();
        let app = q3_application(&db).unwrap();
        prop_assert!(check_history(&app, db, &batches) > 0);
    }
}

#[test]
fn padded_rows_and_null_identifiers_are_derived() {
    // The histories above reach these shapes at random; this pins them.
    // Deleting customer 132 pads Wandy's (rid 4) comment rows on the
    // customer side; under `ByDate`, Thaifood's identifier is
    // (NULL,10), and a comment write makes every restaurant's group
    // affected through LEFT JOIN padding.
    let db = fooddb::database();
    let by_date = WebApplication::from_servlet_source(BY_DATE_SERVLET, &db).unwrap();
    let mut history = History::new(db);
    let customer = history
        .relations
        .iter()
        .position(|r| r == "customer")
        .unwrap();
    let deleted = history
        .apply(Op {
            kind: 0,
            relation: customer,
            pick: 2,
            seed: 0,
        })
        .unwrap();
    assert_eq!(deleted.record.get(0), Some(&Value::Int(132)));
    let changes = [deleted];
    for app in [fooddb::search_application().unwrap(), by_date.clone()] {
        let delta = bulk_delta(&app, &history.db, &changes).unwrap();
        assert!(!delta.is_empty());
        assert_eq!(delta, oracle(&app, &history.db, &changes).unwrap());
    }
    let comment = RecordChange::new(
        "comment",
        history.db.table("comment").unwrap().records()[0].clone(),
    );
    let changes = [comment];
    let delta = bulk_delta(&by_date, &history.db, &changes).unwrap();
    let padded = FragmentId::new(vec![Value::Null, Value::Int(10)]);
    assert!(delta.removes.contains(&padded));
    assert!(delta.adds.iter().any(|f| f.id == padded));
    assert_eq!(delta, oracle(&by_date, &history.db, &changes).unwrap());
}
