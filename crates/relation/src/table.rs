//! In-memory tables with schema validation and key enforcement.

use std::collections::HashSet;

use crate::error::RelationError;
use crate::record::Record;
use crate::schema::Schema;
use crate::value::Value;

/// An in-memory relation instance: a [`Schema`] plus its records.
///
/// Inserts validate arity, column types (NULL is allowed in any column —
/// outer joins require it) and primary-key uniqueness.
///
/// ```
/// use dash_relation::{Column, ColumnType, Record, Schema, Table, Value};
/// # fn main() -> Result<(), dash_relation::RelationError> {
/// let schema = Schema::builder("customer")
///     .column(Column::new("uid", ColumnType::Int))
///     .column(Column::new("uname", ColumnType::Str))
///     .primary_key(&["uid"])
///     .build()?;
/// let mut t = Table::new(schema);
/// t.insert(Record::new(vec![Value::Int(109), Value::str("David")]))?;
/// assert!(t.insert(Record::new(vec![Value::Int(109), Value::str("Dup")])).is_err());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    schema: Schema,
    records: Vec<Record>,
    key_set: HashSet<Vec<Value>>,
}

impl Table {
    /// Creates an empty table with the given schema.
    pub fn new(schema: Schema) -> Self {
        Table {
            schema,
            records: Vec::new(),
            key_set: HashSet::new(),
        }
    }

    /// Creates a table and bulk-inserts `records`.
    ///
    /// # Errors
    ///
    /// Propagates the first insert error.
    pub fn with_records(
        schema: Schema,
        records: impl IntoIterator<Item = Record>,
    ) -> Result<Self, RelationError> {
        let mut t = Table::new(schema);
        for r in records {
            t.insert(r)?;
        }
        Ok(t)
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` when the table holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The records in insertion order.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Iterates over the records.
    pub fn iter(&self) -> std::slice::Iter<'_, Record> {
        self.records.iter()
    }

    /// Validates and inserts a record.
    ///
    /// # Errors
    ///
    /// * [`RelationError::SchemaMismatch`] — wrong arity or a non-NULL value
    ///   of the wrong type.
    /// * [`RelationError::DuplicateKey`] — primary-key collision.
    pub fn insert(&mut self, record: Record) -> Result<(), RelationError> {
        self.validate(&record)?;
        if !self.schema.primary_key().is_empty() {
            let key = self.key_of(&record);
            if !self.key_set.insert(key.clone()) {
                return Err(RelationError::DuplicateKey {
                    relation: self.schema.relation().to_string(),
                    key: format!("{key:?}"),
                });
            }
        }
        self.records.push(record);
        Ok(())
    }

    /// Removes all records matching `pred`, returning how many were removed.
    /// Primary-key bookkeeping is kept consistent.
    pub fn delete_where(&mut self, pred: impl FnMut(&Record) -> bool) -> usize {
        self.take_where(pred).len()
    }

    /// Removes all records matching `pred` and returns them with their
    /// former positions, ascending: the undo entry [`Table::restore`]
    /// puts back. Primary-key bookkeeping is kept consistent.
    pub fn take_where(&mut self, mut pred: impl FnMut(&Record) -> bool) -> Vec<(usize, Record)> {
        let mut position = 0;
        let mut positions = Vec::new();
        let taken: Vec<Record> = self
            .records
            .extract_if(.., |record| {
                let hit = pred(record);
                if hit {
                    positions.push(position);
                }
                position += 1;
                hit
            })
            .collect();
        if !self.schema.primary_key().is_empty() {
            for record in &taken {
                let key = self.key_of(record);
                self.key_set.remove(&key);
            }
        }
        positions.into_iter().zip(taken).collect()
    }

    /// Puts records taken by [`Table::take_where`] back at their former
    /// positions. Exact when the table is in the state `take_where`
    /// left it in, so a log of several changes undoes in reverse order.
    pub fn restore(&mut self, taken: Vec<(usize, Record)>) {
        for (position, record) in taken {
            if !self.schema.primary_key().is_empty() {
                let key = self.key_of(&record);
                self.key_set.insert(key);
            }
            self.records.insert(position, record);
        }
    }

    /// Removes and returns the last record (the undo of an
    /// [`Table::insert`]). Primary-key bookkeeping is kept consistent.
    pub fn pop(&mut self) -> Option<Record> {
        let record = self.records.pop()?;
        if !self.schema.primary_key().is_empty() {
            let key = self.key_of(&record);
            self.key_set.remove(&key);
        }
        Some(record)
    }

    /// Total approximate byte size of all records (used to report dataset
    /// sizes, Table II of the paper).
    pub fn byte_size(&self) -> usize {
        self.records.iter().map(Record::byte_size).sum()
    }

    fn key_of(&self, record: &Record) -> Vec<Value> {
        self.schema
            .primary_key()
            .iter()
            .map(|&i| record.values()[i].clone())
            .collect()
    }

    fn validate(&self, record: &Record) -> Result<(), RelationError> {
        if record.arity() != self.schema.arity() {
            return Err(RelationError::SchemaMismatch {
                relation: self.schema.relation().to_string(),
                detail: format!(
                    "expected arity {}, got {}",
                    self.schema.arity(),
                    record.arity()
                ),
            });
        }
        for (col, val) in self.schema.columns().iter().zip(record.values()) {
            if let Some(vt) = val.column_type() {
                if vt != col.column_type() {
                    return Err(RelationError::SchemaMismatch {
                        relation: self.schema.relation().to_string(),
                        detail: format!(
                            "column `{}` expects {}, got {vt:?}",
                            col.name(),
                            col.column_type()
                        ),
                    });
                }
            }
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a Table {
    type Item = &'a Record;
    type IntoIter = std::slice::Iter<'a, Record>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, ColumnType};

    fn schema() -> Schema {
        Schema::builder("restaurant")
            .column(Column::new("rid", ColumnType::Int))
            .column(Column::new("name", ColumnType::Str))
            .primary_key(&["rid"])
            .build()
            .unwrap()
    }

    #[test]
    fn insert_validates_arity() {
        let mut t = Table::new(schema());
        let err = t.insert(Record::new(vec![Value::Int(1)])).unwrap_err();
        assert!(matches!(err, RelationError::SchemaMismatch { .. }));
    }

    #[test]
    fn insert_validates_types() {
        let mut t = Table::new(schema());
        let err = t
            .insert(Record::new(vec![Value::str("x"), Value::str("y")]))
            .unwrap_err();
        assert!(matches!(err, RelationError::SchemaMismatch { .. }));
    }

    #[test]
    fn null_allowed_in_any_column() {
        let mut t = Table::new(schema());
        t.insert(Record::new(vec![Value::Int(1), Value::Null]))
            .unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn primary_key_enforced() {
        let mut t = Table::new(schema());
        t.insert(Record::new(vec![Value::Int(1), Value::str("a")]))
            .unwrap();
        let err = t
            .insert(Record::new(vec![Value::Int(1), Value::str("b")]))
            .unwrap_err();
        assert!(matches!(err, RelationError::DuplicateKey { .. }));
    }

    #[test]
    fn delete_frees_key() {
        let mut t = Table::new(schema());
        t.insert(Record::new(vec![Value::Int(1), Value::str("a")]))
            .unwrap();
        let removed = t.delete_where(|r| r.get(0) == Some(&Value::Int(1)));
        assert_eq!(removed, 1);
        assert!(t.is_empty());
        // Key is reusable after delete.
        t.insert(Record::new(vec![Value::Int(1), Value::str("c")]))
            .unwrap();
    }

    #[test]
    fn take_and_restore_round_trip_records_keys_and_order() {
        let mut t = Table::new(schema());
        for (rid, name) in [(1, "a"), (2, "b"), (3, "c"), (4, "d")] {
            t.insert(Record::new(vec![Value::Int(rid), Value::str(name)]))
                .unwrap();
        }
        let before = t.records().to_vec();
        let taken = t.take_where(|r| matches!(r.get(0), Some(Value::Int(1 | 3))));
        assert_eq!(
            taken.iter().map(|(p, _)| *p).collect::<Vec<_>>(),
            vec![0, 2]
        );
        assert_eq!(t.len(), 2);
        // Taken keys are free, and the insert is undone by `pop`.
        t.insert(Record::new(vec![Value::Int(3), Value::str("z")]))
            .unwrap();
        assert_eq!(t.pop().unwrap().get(1), Some(&Value::str("z")));
        assert!(t.take_where(|_| false).is_empty());
        t.restore(taken);
        assert_eq!(t.records(), &before[..]);
        // Restored keys are held again; popped ones are free.
        assert!(t
            .insert(Record::new(vec![Value::Int(3), Value::str("dup")]))
            .is_err());
        assert_eq!(t.pop().unwrap().get(0), Some(&Value::Int(4)));
        t.insert(Record::new(vec![Value::Int(4), Value::str("d")]))
            .unwrap();
        assert_eq!(t.records(), &before[..]);
    }

    #[test]
    fn iteration_and_byte_size() {
        let mut t = Table::new(schema());
        t.insert(Record::new(vec![Value::Int(1), Value::str("abcd")]))
            .unwrap();
        t.insert(Record::new(vec![Value::Int(2), Value::str("ef")]))
            .unwrap();
        assert_eq!(t.iter().count(), 2);
        assert_eq!((&t).into_iter().count(), 2);
        assert_eq!(t.byte_size(), (8 + 8) + (8 + 6));
    }

    #[test]
    fn with_records_bulk() {
        let t = Table::with_records(
            schema(),
            vec![
                Record::new(vec![Value::Int(1), Value::str("a")]),
                Record::new(vec![Value::Int(2), Value::str("b")]),
            ],
        )
        .unwrap();
        assert_eq!(t.len(), 2);
    }
}
