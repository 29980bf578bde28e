//! Transactions.
//!
//! A sysbench `oltp_read_write` "transaction" is modeled as the paper
//! describes it: one SELECT, one UPDATE, one DELETE and one INSERT against
//! the same table, executed under row locks that are released at commit or
//! rollback.

use crate::error::StoreError;
use crate::table::{Row, Table};

/// An in-flight transaction.
///
/// Locks acquired by mutating statements are held until [`commit`] or
/// [`rollback`] (strict two-phase locking with no-wait acquisition).
///
/// [`commit`]: Transaction::commit
/// [`rollback`]: Transaction::rollback
#[derive(Debug, Default)]
pub struct Transaction {
    locked: Vec<(Table, u64)>,
    committed: bool,
}

impl Transaction {
    /// Begins an empty transaction.
    pub fn new() -> Self {
        Transaction::default()
    }

    /// Point SELECT by primary key (no lock needed: reads use the table's
    /// shared latch, matching InnoDB's consistent reads).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::RowNotFound`] if the row does not exist.
    pub fn select(&mut self, table: &Table, id: u64) -> Result<Row, StoreError> {
        table.get(id).ok_or(StoreError::RowNotFound(id))
    }

    /// Point UPDATE of the indexed column.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::LockContended`] if another transaction holds
    /// the row lock, or [`StoreError::RowNotFound`] if the row vanished.
    pub fn update(&mut self, table: &Table, id: u64, new_k: u64) -> Result<(), StoreError> {
        self.lock(table, id)?;
        table.update_k(id, new_k)
    }

    /// Point DELETE.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::LockContended`] on lock contention, or
    /// [`StoreError::RowNotFound`] if the row does not exist.
    pub fn delete(&mut self, table: &Table, id: u64) -> Result<Row, StoreError> {
        self.lock(table, id)?;
        table.delete(id)
    }

    /// INSERT of a new row.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::LockContended`] on lock contention, or
    /// [`StoreError::DuplicateKey`] if the key exists.
    pub fn insert(&mut self, table: &Table, row: Row) -> Result<(), StoreError> {
        self.lock(table, row.id)?;
        table.insert(row)
    }

    fn lock(&mut self, table: &Table, id: u64) -> Result<(), StoreError> {
        // Re-entrant within the same transaction.
        if self
            .locked
            .iter()
            .any(|(t, locked_id)| *locked_id == id && std::ptr::eq(t.locks(), table.locks()))
        {
            return Ok(());
        }
        if table.locks().try_lock(id) {
            self.locked.push((table.clone(), id));
            Ok(())
        } else {
            Err(StoreError::LockContended(id))
        }
    }

    /// Commits the transaction, releasing all row locks.
    pub fn commit(mut self) {
        self.release();
        self.committed = true;
    }

    /// Rolls the transaction back, releasing all row locks. (The engine
    /// does not undo already-applied statements; the OLTP driver only uses
    /// rollback on lock contention before any mutation was applied.)
    pub fn rollback(mut self) {
        self.release();
    }

    fn release(&mut self) {
        for (table, id) in self.locked.drain(..) {
            table.locks().unlock(id);
        }
    }
}

impl Drop for Transaction {
    fn drop(&mut self) {
        // Dropping an un-committed transaction must not leak locks.
        self.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        let t = Table::new("sbtest1");
        for i in 1..=50 {
            t.insert(Row::new(i, i, format!("pad-{i}"))).unwrap();
        }
        t
    }

    #[test]
    fn full_oltp_transaction_succeeds() {
        let t = table();
        let mut txn = Transaction::new();
        let row = txn.select(&t, 10).unwrap();
        assert_eq!(row.k, 10);
        txn.update(&t, 11, 99).unwrap();
        txn.delete(&t, 12).unwrap();
        txn.insert(&t, Row::new(1000, 5, "new".into())).unwrap();
        txn.commit();
        assert_eq!(t.locks().held_count(), 0);
        assert_eq!(t.get(11).unwrap().k, 99);
        assert!(t.get(12).is_none());
        assert!(t.get(1000).is_some());
    }

    #[test]
    fn conflicting_transactions_get_lock_contention() {
        let t = table();
        let mut a = Transaction::new();
        let mut b = Transaction::new();
        a.update(&t, 5, 1).unwrap();
        assert!(matches!(
            b.update(&t, 5, 2),
            Err(StoreError::LockContended(5))
        ));
        a.commit();
        // After a commits, b can retry successfully.
        b.update(&t, 5, 2).unwrap();
        b.commit();
        assert_eq!(t.get(5).unwrap().k, 2);
    }

    #[test]
    fn locks_are_reentrant_within_a_transaction() {
        let t = table();
        let mut txn = Transaction::new();
        txn.update(&t, 7, 1).unwrap();
        txn.update(&t, 7, 2).unwrap();
        txn.commit();
        assert_eq!(t.get(7).unwrap().k, 2);
    }

    #[test]
    fn dropping_a_transaction_releases_locks() {
        let t = table();
        {
            let mut txn = Transaction::new();
            txn.update(&t, 3, 9).unwrap();
            assert_eq!(t.locks().held_count(), 1);
        }
        assert_eq!(t.locks().held_count(), 0);
    }

    #[test]
    fn rollback_releases_locks() {
        let t = table();
        let mut txn = Transaction::new();
        txn.delete(&t, 20).unwrap();
        txn.rollback();
        assert_eq!(t.locks().held_count(), 0);
    }
}
