//! The reference (single-machine, non-MapReduce) fragment derivation.
//!
//! [`fragments`] is Definition 2 executed literally: materialize the
//! full join ([`PsjQuery::join_all`](dash_webapp::PsjQuery::join_all)),
//! group records by selection-attribute values, count keywords per
//! group. It defines *what the MapReduce algorithms must produce* —
//! both are tested for output equality against it.
//!
//! The incremental-maintenance path recomputes a handful of fragments
//! per write and must not pay for the whole database, so its two
//! derivations, [`fragments_for_ids`] and the affected-identifier probe
//! behind [`bulk_affected_ids`](crate::update::bulk_affected_ids), run a
//! *borrowed-row join* instead: the same left-deep chain over `&Record`
//! references, one joined row being one record (or LEFT JOIN padding)
//! per operand. No table is built, no record concatenated, no database
//! cloned; [`fragments_for_ids`] additionally pushes its target
//! identifiers down into the join. Both group by the rules of
//! [`fragments`], which stays the oracle they are tested against.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use dash_relation::{Database, JoinKind, Record, RelationError, Table, Value};
use dash_webapp::{ResolvedColumn, WebApplication};

use crate::crawl::keywords_of;
use crate::fragment::{Fragment, FragmentId};
use crate::Result;

/// Derives all fragments of `app` over `db`, sorted by identifier.
///
/// # Errors
///
/// Propagates relational errors from the join/column lookups.
pub fn fragments(app: &WebApplication, db: &Database) -> Result<Vec<Fragment>> {
    let joined = app.query.join_all(db).map_err(crate::CoreError::from)?;
    fragments_of_joined(app, &joined)
}

/// [`fragments`] restricted to a [`crate::scope::CrawlScope`].
///
/// # Errors
///
/// Same as [`fragments`].
pub fn fragments_scoped(
    app: &WebApplication,
    db: &Database,
    scope: &crate::scope::CrawlScope,
) -> Result<Vec<Fragment>> {
    Ok(fragments(app, db)?
        .into_iter()
        .filter(|f| scope.admits(&f.id))
        .collect())
}

/// Derives only the fragments whose identifiers appear in `targets` —
/// the bulk re-crawl behind delta building, equal to [`fragments`]
/// filtered to `targets` at a cost proportional to the target groups'
/// rows.
///
/// The targets are pushed down into the borrowed-row join: each
/// selection attribute whose relation never supplies LEFT JOIN padding
/// (never the right side of a [`JoinKind::LeftOuter`] step, outer-ness
/// already propagated by the analyzer) has its relation's rows filtered
/// to the targets' values at that position before joining. That is
/// exact: such a relation's values reach every joined row unpadded, so
/// filtering it removes only rows whose identifier fails the target
/// test anyway. A null-supplying relation stays unfiltered — dropping
/// its rows could turn a matched row into a padded one with a `NULL`
/// identifier component. Keywords are counted only for rows whose
/// identifier is a target.
///
/// # Errors
///
/// Same as [`fragments`].
pub fn fragments_for_ids(
    app: &WebApplication,
    db: &Database,
    targets: &BTreeSet<FragmentId>,
) -> Result<Vec<Fragment>> {
    if targets.is_empty() {
        return Ok(Vec::new());
    }
    let (selection, projection) = query_cells(app, db)?;
    let mut operands = operand_rows(app, db, None)?;
    let null_supplying: HashSet<&str> = app
        .query
        .joins
        .iter()
        .filter(|step| step.kind == JoinKind::LeftOuter)
        .map(|step| step.right_relation.as_str())
        .collect();
    for (position, (attr, cell)) in app.query.selections.iter().zip(&selection).enumerate() {
        if null_supplying.contains(attr.column.relation.as_str()) {
            continue;
        }
        // An identifier of the wrong arity never equals a row's, so
        // dropping it here changes nothing.
        let wanted: HashSet<&Value> = targets
            .iter()
            .filter_map(|id| id.values().get(position))
            .collect();
        operands[cell.operand].retain(|record| wanted.contains(&record.values()[cell.index]));
    }
    let rows = join_rows(app, db, &operands)?;
    Ok(group(
        rows.chunks_exact(operands.len()),
        &selection,
        &projection,
        |id| targets.contains(id),
    ))
}

/// The identifiers of every row of `app.query`'s join over `db` with
/// `shadow`'s records standing in for the rows of its relation — the
/// affected-identifier probe of incremental maintenance (see
/// [`crate::update::bulk_affected_ids`]). Equal to the identifiers of
/// [`fragments`] over a copy of `db` holding `shadow`, without the
/// copy; nothing is tokenized.
pub(crate) fn shadow_ids(
    app: &WebApplication,
    db: &Database,
    shadow: &Table,
) -> Result<BTreeSet<FragmentId>> {
    let (selection, _) = query_cells(app, db)?;
    let operands = operand_rows(app, db, Some(shadow))?;
    let rows = join_rows(app, db, &operands)?;
    Ok(rows
        .chunks_exact(operands.len())
        .map(|row| identifier(row, &selection))
        .collect())
}

/// Derives the fragments present in an already-joined table.
///
/// # Errors
///
/// Propagates column-lookup errors.
pub fn fragments_of_joined(app: &WebApplication, joined: &Table) -> Result<Vec<Fragment>> {
    // A joined record is a one-operand row.
    let cells = |names: Vec<&str>| -> Result<Vec<Cell>> {
        names
            .iter()
            .map(|name| {
                Ok(Cell {
                    operand: 0,
                    index: joined.schema().index_of(name)?,
                })
            })
            .collect()
    };
    let selection = cells(app.query.selection_joined_names())?;
    let projection = cells(app.query.projection_joined_names())?;
    Ok(group(
        joined.iter().map(|record| [Some(record)]),
        &selection,
        &projection,
        |_| true,
    ))
}

/// What padded cells read as.
static NULL: Value = Value::Null;

/// A column of a joined row: the position of its relation among the
/// row's operands, and its index within that relation's schema.
#[derive(Debug, Clone, Copy)]
struct Cell {
    operand: usize,
    index: usize,
}

impl Cell {
    /// Locates `relation.column` among `app.query`'s operand relations.
    fn locate(app: &WebApplication, db: &Database, relation: &str, column: &str) -> Result<Self> {
        let operand = app
            .query
            .relations
            .iter()
            .position(|r| r == relation)
            .ok_or_else(|| RelationError::UnknownRelation {
                relation: relation.to_string(),
            })?;
        let index = db.table(relation)?.schema().index_of(column)?;
        Ok(Cell { operand, index })
    }

    /// The cell's value in `row` (`NULL` where the operand is padded).
    fn value<'a>(self, row: &[Option<&'a Record>]) -> &'a Value {
        row[self.operand].map_or(&NULL, |record| &record.values()[self.index])
    }
}

/// The selection (identifier order) and projection cells of `app.query`.
fn query_cells(app: &WebApplication, db: &Database) -> Result<(Vec<Cell>, Vec<Cell>)> {
    let locate = |c: &ResolvedColumn| Cell::locate(app, db, &c.relation, &c.column);
    let selection = app
        .query
        .selections
        .iter()
        .map(|s| locate(&s.column))
        .collect::<Result<_>>()?;
    let projection = app
        .query
        .projection
        .iter()
        .map(locate)
        .collect::<Result<_>>()?;
    Ok((selection, projection))
}

/// Every operand relation's rows by reference, in `app.query.relations`
/// order: the database's table, or `shadow` for its own relation.
fn operand_rows<'a>(
    app: &WebApplication,
    db: &'a Database,
    shadow: Option<&'a Table>,
) -> Result<Vec<Vec<&'a Record>>> {
    let relations = &app.query.relations;
    debug_assert!(
        relations
            .iter()
            .enumerate()
            .all(|(i, r)| !relations[..i].contains(r)),
        "operand relations are distinct: {relations:?}"
    );
    relations
        .iter()
        .map(|relation| {
            let table = match shadow {
                Some(shadow) if shadow.schema().relation() == relation => shadow,
                _ => db.table(relation)?,
            };
            Ok(table.iter().collect())
        })
        .collect()
}

/// The borrowed-row join: `app.query`'s left-deep chain over
/// `operands`, one hash build per step over the right relation. Returns
/// the joined rows flattened, `operands.len()` cells per row, each the
/// operand's record or `None` for LEFT JOIN padding. Same rows as
/// [`PsjQuery::join_all`](dash_webapp::PsjQuery::join_all) over the
/// same operands: `NULL` keys never match, and an unmatched row
/// survives padded only through a [`JoinKind::LeftOuter`] step.
fn join_rows<'a>(
    app: &WebApplication,
    db: &Database,
    operands: &[Vec<&'a Record>],
) -> Result<Vec<Option<&'a Record>>> {
    let width = operands.len();
    let mut rows: Vec<Option<&'a Record>> = Vec::with_capacity(operands[0].len() * width);
    for &record in &operands[0] {
        rows.push(Some(record));
        rows.resize(rows.len() + width - 1, None);
    }
    for step in &app.query.joins {
        let key = Cell::locate(app, db, &step.left_relation, &step.left_column)?;
        let right = Cell::locate(app, db, &step.right_relation, &step.right_column)?;
        let mut build: HashMap<&Value, Vec<&'a Record>> = HashMap::new();
        for &record in &operands[right.operand] {
            let value = &record.values()[right.index];
            if !value.is_null() {
                build.entry(value).or_default().push(record);
            }
        }
        let mut joined = Vec::with_capacity(rows.len());
        for row in rows.chunks_exact(width) {
            let value = key.value(row);
            // `build` holds no NULL key, so a NULL never matches.
            match build.get(value) {
                Some(matches) => {
                    for &record in matches {
                        joined.extend_from_slice(row);
                        let at = joined.len() - width + right.operand;
                        joined[at] = Some(record);
                    }
                }
                None if step.kind == JoinKind::LeftOuter => joined.extend_from_slice(row),
                None => {}
            }
        }
        rows = joined;
    }
    Ok(rows)
}

/// A row's fragment identifier: its selection values.
fn identifier(row: &[Option<&Record>], selection: &[Cell]) -> FragmentId {
    FragmentId::new(selection.iter().map(|c| c.value(row).clone()).collect())
}

/// The Definition-2 grouping every derivation shares: rows whose
/// identifier fails `admit` are skipped *before* keyword counting, so
/// scoped derivations never pay tokenization for rows they discard.
fn group<'a, R: AsRef<[Option<&'a Record>]>>(
    rows: impl Iterator<Item = R>,
    selection: &[Cell],
    projection: &[Cell],
    admit: impl Fn(&FragmentId) -> bool,
) -> Vec<Fragment> {
    let mut groups: BTreeMap<FragmentId, (BTreeMap<String, u64>, u64)> = BTreeMap::new();
    for row in rows {
        let row = row.as_ref();
        let id = identifier(row, selection);
        if !admit(&id) {
            continue;
        }
        let entry = groups.entry(id).or_default();
        for kw in keywords_of(projection.iter().map(|c| c.value(row))) {
            *entry.0.entry(kw).or_insert(0) += 1;
        }
        entry.1 += 1;
    }
    groups
        .into_iter()
        .map(|(id, (occ, records))| Fragment::new(id, occ, records))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dash_webapp::fooddb;

    #[test]
    fn fooddb_fragments_match_figure_5() {
        let db = fooddb::database();
        let app = fooddb::search_application().unwrap();
        let fragments = fragments(&app, &db).unwrap();
        // Figure 5: (American,9), (American,10), (American,12),
        // (American,18), (Thai,10).
        assert_eq!(fragments.len(), 5);
        let ids: Vec<String> = fragments.iter().map(|f| f.id.to_string()).collect();
        assert_eq!(
            ids,
            vec![
                "(American,9)",
                "(American,10)",
                "(American,12)",
                "(American,18)",
                "(Thai,10)"
            ]
        );
    }

    #[test]
    fn keyword_totals_match_example_6() {
        let db = fooddb::database();
        let app = fooddb::search_application().unwrap();
        let fragments = fragments(&app, &db).unwrap();
        let by_id = |s: &str| {
            fragments
                .iter()
                .find(|f| f.id.to_string() == s)
                .unwrap_or_else(|| panic!("fragment {s}"))
        };
        // Example 6: (American,9) holds eight keywords — Bond's, Cafe, 9,
        // 4.3, Nice, Coffee, James, 01/11.
        assert_eq!(by_id("(American,9)").total_keywords, 8);
        // Example 7: (American,10) has TF("burger") = 2/8.
        let f10 = by_id("(American,10)");
        assert_eq!(f10.total_keywords, 8);
        assert_eq!(f10.occurrences("burger"), 2);
        // (American,12) has 17 keywords, 1 "burger" (TF 1/17 per Example 7
        // merged arithmetic: (2+1)/(8+17) = 3/25).
        let f12 = by_id("(American,12)");
        assert_eq!(f12.total_keywords, 17);
        assert_eq!(f12.occurrences("burger"), 1);
        assert_eq!(f12.record_count, 3);
        // (Thai,10) has 10 keywords with 1 "burger" (TF 1/10).
        let thai = by_id("(Thai,10)");
        assert_eq!(thai.total_keywords, 10);
        assert_eq!(thai.occurrences("burger"), 1);
    }

    #[test]
    fn fragments_for_ids_match_the_full_derivation() {
        // The bulk re-crawl must produce byte-identical fragments to
        // deriving everything and filtering — it only skips work.
        let db = fooddb::database();
        let app = fooddb::search_application().unwrap();
        let all = fragments(&app, &db).unwrap();
        let targets: std::collections::BTreeSet<FragmentId> = all
            .iter()
            .filter(|f| f.id.to_string().contains("American"))
            .map(|f| f.id.clone())
            .collect();
        let expected: Vec<Fragment> = all
            .into_iter()
            .filter(|f| targets.contains(&f.id))
            .collect();
        assert_eq!(expected.len(), 4);
        assert_eq!(fragments_for_ids(&app, &db, &targets).unwrap(), expected);
        assert!(fragments_for_ids(&app, &db, &Default::default())
            .unwrap()
            .is_empty());

        // The selection attributes sit on the preserved `restaurant`
        // side, so the targets are pushed down into it. Thaifood has no
        // comment: (Thai,10) mixes its padded row with Bangkok's matched
        // one, and (American,12) mixes padded Wandy's (rid 3) with
        // commented Wandy's (rid 4). Targets that name no group, or have
        // the wrong arity, select nothing.
        let id = |cuisine: &str, budget: i64| {
            FragmentId::new(vec![Value::str(cuisine), Value::Int(budget)])
        };
        let targets: BTreeSet<FragmentId> = [
            id("Thai", 10),
            id("American", 12),
            id("Korean", 10),
            FragmentId::new(vec![Value::str("Thai")]),
        ]
        .into_iter()
        .collect();
        let expected: Vec<Fragment> = fragments(&app, &db)
            .unwrap()
            .into_iter()
            .filter(|f| targets.contains(&f.id))
            .collect();
        assert_eq!(expected.len(), 2);
        assert_eq!(expected[1].record_count, 2, "(Thai,10): padded + matched");
        assert_eq!(fragments_for_ids(&app, &db, &targets).unwrap(), expected);
    }

    #[test]
    fn fragments_partition_disjointly() {
        // Sum of record counts equals the joined row count: no overlap, no
        // loss — the core fragment invariant.
        let db = fooddb::database();
        let app = fooddb::search_application().unwrap();
        let joined = app.query.join_all(&db).unwrap();
        let fragments = fragments(&app, &db).unwrap();
        let total: u64 = fragments.iter().map(|f| f.record_count).sum();
        assert_eq!(total, joined.len() as u64);
    }
}
