//! Tables, rows and indexes.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::error::StoreError;
use crate::lock::LockManager;

/// A row in the sysbench-style schema: integer primary key `id`, an
/// integer column `k` carrying a secondary index, and a padding string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Row {
    /// Primary key.
    pub id: u64,
    /// Secondary-indexed integer column.
    pub k: u64,
    /// Payload column (sysbench's `c`/`pad` columns merged).
    pub pad: String,
}

impl Row {
    /// Creates a row.
    pub fn new(id: u64, k: u64, pad: String) -> Self {
        Row { id, k, pad }
    }
}

/// A table: clustered B-Tree on the primary key plus a secondary index on
/// `k`, protected by a reader/writer lock, with a row-level lock manager
/// for transactional mutation.
#[derive(Debug, Clone)]
pub struct Table {
    inner: Arc<TableInner>,
}

#[derive(Debug)]
struct TableInner {
    name: String,
    rows: RwLock<BTreeMap<u64, Row>>,
    k_index: RwLock<BTreeMap<u64, Vec<u64>>>,
    locks: LockManager,
    /// Rows deleted over the table's lifetime — the relational analogue
    /// of the kvstore shard's eviction counter.
    deletes: parking_lot::Mutex<u64>,
}

/// A point-in-time snapshot of one table's occupancy counters, taken in
/// one call — the relational analogue of the kvstore `ShardStats`
/// snapshot (`rows`/`deletes` standing in for `len`/`evictions`), so
/// harness reports can surface both engines' stores through one shape.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TableStats {
    /// Number of live rows.
    pub rows: usize,
    /// Rows deleted over the table's lifetime (the eviction analogue).
    pub deletes: u64,
    /// Row-lock contention events observed by the lock manager.
    pub lock_waits: u64,
}

impl TableStats {
    /// Folds another snapshot into this one, component-wise.
    #[must_use]
    pub fn merged(self, other: TableStats) -> TableStats {
        TableStats {
            rows: self.rows + other.rows,
            deletes: self.deletes + other.deletes,
            lock_waits: self.lock_waits + other.lock_waits,
        }
    }
}

impl Table {
    /// Creates an empty table.
    pub fn new(name: &str) -> Self {
        Table {
            inner: Arc::new(TableInner {
                name: name.to_string(),
                rows: RwLock::new(BTreeMap::new()),
                k_index: RwLock::new(BTreeMap::new()),
                locks: LockManager::new(),
                deletes: parking_lot::Mutex::new(0),
            }),
        }
    }

    /// Snapshot of the table's occupancy counters.
    pub fn stats(&self) -> TableStats {
        TableStats {
            rows: self.inner.rows.read().len(),
            deletes: *self.inner.deletes.lock(),
            lock_waits: self.inner.locks.contention_events(),
        }
    }

    /// The table name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// The row-level lock manager of this table.
    pub fn locks(&self) -> &LockManager {
        &self.inner.locks
    }

    /// Inserts a new row.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::DuplicateKey`] if the primary key exists.
    pub fn insert(&self, row: Row) -> Result<(), StoreError> {
        let mut rows = self.inner.rows.write();
        if rows.contains_key(&row.id) {
            return Err(StoreError::DuplicateKey(row.id));
        }
        self.inner
            .k_index
            .write()
            .entry(row.k)
            .or_default()
            .push(row.id);
        rows.insert(row.id, row);
        Ok(())
    }

    /// Reads a row by primary key.
    pub fn get(&self, id: u64) -> Option<Row> {
        self.inner.rows.read().get(&id).cloned()
    }

    /// Updates the `k` column of a row, maintaining the secondary index.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::RowNotFound`] if the row does not exist.
    pub fn update_k(&self, id: u64, new_k: u64) -> Result<(), StoreError> {
        let mut rows = self.inner.rows.write();
        let row = rows.get_mut(&id).ok_or(StoreError::RowNotFound(id))?;
        let old_k = row.k;
        row.k = new_k;
        drop(rows);
        let mut index = self.inner.k_index.write();
        if let Some(ids) = index.get_mut(&old_k) {
            ids.retain(|x| *x != id);
            if ids.is_empty() {
                index.remove(&old_k);
            }
        }
        index.entry(new_k).or_default().push(id);
        Ok(())
    }

    /// Deletes a row by primary key.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::RowNotFound`] if the row does not exist.
    pub fn delete(&self, id: u64) -> Result<Row, StoreError> {
        let mut rows = self.inner.rows.write();
        let row = rows.remove(&id).ok_or(StoreError::RowNotFound(id))?;
        *self.inner.deletes.lock() += 1;
        let mut index = self.inner.k_index.write();
        if let Some(ids) = index.get_mut(&row.k) {
            ids.retain(|x| *x != id);
            if ids.is_empty() {
                index.remove(&row.k);
            }
        }
        Ok(row)
    }

    /// Looks up row ids by the secondary index.
    pub fn find_by_k(&self, k: u64) -> Vec<u64> {
        self.inner
            .k_index
            .read()
            .get(&k)
            .cloned()
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn populated() -> Table {
        let t = Table::new("sbtest1");
        for i in 1..=100 {
            t.insert(Row::new(i, i % 10, format!("pad-{i}"))).unwrap();
        }
        t
    }

    #[test]
    fn insert_get_delete_maintain_counts() {
        let t = populated();
        assert_eq!(t.stats().rows, 100);
        assert_eq!(t.get(42).unwrap().pad, "pad-42");
        assert!(t.insert(Row::new(42, 0, String::new())).is_err());
        t.delete(42).unwrap();
        assert!(t.get(42).is_none());
        assert_eq!(t.stats().rows, 99);
        assert!(matches!(t.delete(42), Err(StoreError::RowNotFound(42))));
    }

    #[test]
    fn secondary_index_follows_updates() {
        let t = populated();
        // Rows 10,20,...,100 have k = 0.
        assert_eq!(t.find_by_k(0).len(), 10);
        t.update_k(10, 77).unwrap();
        assert_eq!(t.find_by_k(0).len(), 9);
        assert_eq!(t.find_by_k(77), vec![10]);
        t.delete(10).unwrap();
        assert!(t.find_by_k(77).is_empty());
    }

    #[test]
    fn stats_track_rows_deletes_and_lock_waits() {
        let t = populated();
        assert_eq!(
            t.stats(),
            TableStats {
                rows: 100,
                deletes: 0,
                lock_waits: 0
            }
        );
        t.delete(1).unwrap();
        t.delete(2).unwrap();
        assert!(t.delete(2).is_err(), "failed deletes must not count");
        assert!(t.locks().try_lock(3));
        assert!(!t.locks().try_lock(3));
        assert_eq!(
            t.stats(),
            TableStats {
                rows: 98,
                deletes: 2,
                lock_waits: 1
            }
        );
        let folded = t.stats().merged(TableStats {
            rows: 2,
            deletes: 1,
            lock_waits: 4,
        });
        assert_eq!(
            folded,
            TableStats {
                rows: 100,
                deletes: 3,
                lock_waits: 5
            }
        );
    }

    #[test]
    fn update_missing_row_errors() {
        let t = Table::new("t");
        assert!(matches!(t.update_k(1, 2), Err(StoreError::RowNotFound(1))));
    }
}
