//! The database: a named collection of tables.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::table::{Row, Table, TableStats};
use crate::txn::Transaction;

/// A database holding named tables.
///
/// The sysbench OLTP setup creates three tables of one million rows each;
/// [`Database::populate_sysbench`] builds a (scaled-down) equivalent.
#[derive(Debug, Clone, Default)]
pub struct Database {
    tables: Arc<RwLock<BTreeMap<String, Table>>>,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Creates a table; replaces any existing table with the same name.
    pub fn create_table(&self, name: &str) -> Table {
        let table = Table::new(name);
        self.tables.write().insert(name.to_string(), table.clone());
        table
    }

    /// Looks a table up by name.
    pub fn table(&self, name: &str) -> Option<Table> {
        self.tables.read().get(name).cloned()
    }

    /// Begins a transaction.
    pub fn begin(&self) -> Transaction {
        Transaction::new()
    }

    /// Folds every table's [`TableStats`] snapshot into one
    /// database-wide total, in canonical (name) order.
    pub fn stats(&self) -> TableStats {
        self.tables
            .read()
            .values()
            .map(Table::stats)
            .fold(TableStats::default(), TableStats::merged)
    }

    /// Creates `tables` sysbench-style tables with `rows_per_table` rows
    /// each and returns them.
    pub fn populate_sysbench(&self, tables: usize, rows_per_table: u64) -> Vec<Table> {
        (1..=tables)
            .map(|i| {
                let table = self.create_table(&format!("sbtest{i}"));
                for id in 1..=rows_per_table {
                    let row = Row::new(id, id % 1000, format!("sysbench-pad-{id}"));
                    table.insert(row).expect("fresh table has no duplicates");
                }
                table
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_and_lookup_tables() {
        let db = Database::new();
        db.create_table("a");
        db.create_table("b");
        assert!(db.table("a").is_some());
        assert!(db.table("b").is_some());
        assert!(db.table("missing").is_none());
    }

    #[test]
    fn populate_sysbench_builds_expected_shape() {
        let db = Database::new();
        let tables = db.populate_sysbench(3, 200);
        assert_eq!(tables.len(), 3);
        for t in &tables {
            assert_eq!(t.stats().rows, 200);
            assert!(t.get(200).is_some());
        }
        assert!(db.table("sbtest2").is_some());
    }

    #[test]
    fn handles_to_the_same_table_share_state() {
        let db = Database::new();
        db.create_table("shared");
        let a = db.table("shared").unwrap();
        let b = db.table("shared").unwrap();
        a.insert(Row::new(1, 1, "x".into())).unwrap();
        assert_eq!(b.stats().rows, 1);
    }

    #[test]
    fn database_stats_fold_over_all_tables() {
        let db = Database::new();
        let tables = db.populate_sysbench(2, 50);
        tables[0].delete(1).unwrap();
        assert!(tables[1].locks().try_lock(9));
        assert!(!tables[1].locks().try_lock(9));
        let stats = db.stats();
        assert_eq!(stats.rows, 99);
        assert_eq!(stats.deletes, 1);
        assert_eq!(stats.lock_waits, 1);
    }

    #[test]
    fn transactions_work_through_the_database_handle() {
        let db = Database::new();
        let tables = db.populate_sysbench(1, 50);
        let mut txn = db.begin();
        assert!(txn.select(&tables[0], 25).is_ok());
        txn.commit();
    }
}
