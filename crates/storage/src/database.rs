//! A minimal catalog: a named collection of relations, with an optional
//! database-wide spill policy.

use std::collections::BTreeMap;

use crate::blockstore::SpillPolicy;
use crate::relation::Relation;
use crate::schema::Schema;

/// A database: a set of named relations sharing no state beyond the catalog itself.
/// This is the object the workload loaders populate and the query layer executes
/// against. A spill policy set via [`Database::enable_spill`] applies to every
/// current and future relation, turning the catalog into a larger-than-memory
/// store.
#[derive(Debug, Default)]
pub struct Database {
    relations: BTreeMap<String, Relation>,
    spill: Option<SpillPolicy>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Spill every relation's frozen blocks to secondary storage under `policy`.
    /// Each relation gets its own store file: `policy.path` of `Some(dir)` places
    /// one `<relation>.dbs` per relation in that directory, `None` uses per-store
    /// temporary files (deleted on drop). Relations created or added later inherit
    /// the policy.
    ///
    /// Like [`Relation::enable_spill`], reconfiguration is not supported: once the
    /// database policy is set, a second call fails with
    /// [`std::io::ErrorKind::AlreadyExists`]. Relations that already spill (enabled
    /// individually, or by a previous call that failed partway) are left on their
    /// existing stores and skipped, so a failed call — some relations converted,
    /// `spill_policy()` still unset — can simply be retried once the underlying
    /// problem (e.g. directory permissions) is fixed.
    pub fn enable_spill(&mut self, policy: SpillPolicy) -> std::io::Result<()> {
        if self.spill.is_some() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::AlreadyExists,
                "database spill policy already set; reconfiguration is not supported",
            ));
        }
        for relation in self.relations.values_mut() {
            if relation.has_spill() {
                continue;
            }
            relation.enable_spill(&Database::per_relation(&policy, relation.name()))?;
        }
        self.spill = Some(policy);
        Ok(())
    }

    /// Reopen a spilled database from the directory a previous
    /// [`Database::enable_spill`] wrote to: for every `(name, schema)` pair, the
    /// relation's cold tier is rebuilt from `<dir>/<name>.dbs` by replaying that
    /// store's persisted manifest ([`crate::Relation::reopen_spilled`]); names
    /// without a spill file come back as empty relations attached to fresh
    /// stores. Schemas are supplied by the caller — the store persists block
    /// frames and the directory, not catalog metadata.
    ///
    /// `policy.path` must be `Some(dir)`. Hot (unfrozen) rows are not recovered;
    /// see [`crate::Relation::reopen_spilled`] for the exact contract.
    ///
    /// # Errors
    ///
    /// * [`std::io::ErrorKind::InvalidInput`] when `policy.path` is `None`.
    /// * Any error of [`crate::Relation::reopen_spilled`] for a relation whose
    ///   spill file exists — among them [`std::io::ErrorKind::NotFound`],
    ///   naming the manifest, when `<dir>/<name>.dbs` exists without
    ///   `<dir>/<name>.dbs.manifest`, and the loud
    ///   [`std::io::ErrorKind::AlreadyExists`] when a store is still live in
    ///   this process.
    /// * Any error of [`crate::Relation::enable_spill`] for a relation created
    ///   fresh.
    pub fn open_spilled(
        policy: SpillPolicy,
        schemas: impl IntoIterator<Item = (String, Schema)>,
    ) -> std::io::Result<Database> {
        if policy.path.is_none() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "Database::open_spilled requires SpillPolicy.path to name the spill directory",
            ));
        }
        let mut db = Database::new();
        for (name, schema) in schemas {
            let per_relation = Database::per_relation(&policy, &name);
            let spill_file = per_relation.path.as_ref().expect("path checked above");
            let relation = if spill_file.exists() {
                Relation::reopen_spilled(&name, schema, &per_relation)?
            } else {
                let mut relation = Relation::new(&name, schema);
                relation.enable_spill(&per_relation)?;
                relation
            };
            db.relations.insert(name, relation);
        }
        db.spill = Some(policy);
        Ok(db)
    }

    /// The database-wide spill policy, if one was set.
    pub fn spill_policy(&self) -> Option<&SpillPolicy> {
        self.spill.as_ref()
    }

    fn per_relation(policy: &SpillPolicy, name: &str) -> SpillPolicy {
        SpillPolicy {
            cache_capacity_bytes: policy.cache_capacity_bytes,
            path: policy
                .path
                .as_ref()
                .map(|dir| dir.join(format!("{name}.dbs"))),
            compaction_garbage_ratio: policy.compaction_garbage_ratio,
            durability: policy.durability,
        }
    }

    /// Create a new empty relation and return a mutable reference to it. Inherits
    /// the database spill policy, if one is set.
    ///
    /// # Panics
    ///
    /// Panics if a relation with the same name already exists, or if attaching the
    /// inherited spill store fails.
    pub fn create_relation(&mut self, name: &str, schema: Schema) -> &mut Relation {
        assert!(
            !self.relations.contains_key(name),
            "relation {name:?} already exists"
        );
        self.relations
            .insert(name.to_string(), Relation::new(name, schema));
        let relation = self.relations.get_mut(name).expect("just inserted");
        if let Some(policy) = &self.spill {
            relation
                .enable_spill(&Database::per_relation(policy, name))
                .expect("attach spill store");
        }
        relation
    }

    /// Register an already-populated relation (used by bulk loaders). Inherits the
    /// database spill policy if the relation does not already spill.
    ///
    /// # Panics
    ///
    /// Panics if a relation with the same name already exists, or if attaching the
    /// inherited spill store fails.
    pub fn add_relation(&mut self, mut relation: Relation) {
        assert!(
            !self.relations.contains_key(relation.name()),
            "relation {:?} already exists",
            relation.name()
        );
        if let (Some(policy), false) = (&self.spill, relation.has_spill()) {
            relation
                .enable_spill(&Database::per_relation(policy, relation.name()))
                .expect("attach spill store");
        }
        self.relations.insert(relation.name().to_string(), relation);
    }

    /// Borrow a relation by name.
    pub fn relation(&self, name: &str) -> &Relation {
        self.relations
            .get(name)
            .unwrap_or_else(|| panic!("unknown relation {name:?}"))
    }

    /// Borrow a relation mutably by name.
    pub fn relation_mut(&mut self, name: &str) -> &mut Relation {
        self.relations
            .get_mut(name)
            .unwrap_or_else(|| panic!("unknown relation {name:?}"))
    }

    /// Does a relation with this name exist?
    pub fn contains(&self, name: &str) -> bool {
        self.relations.contains_key(name)
    }

    /// Names of all relations, sorted.
    pub fn relation_names(&self) -> Vec<&str> {
        self.relations.keys().map(|s| s.as_str()).collect()
    }

    /// All relations.
    pub fn relations(&self) -> impl Iterator<Item = &Relation> {
        self.relations.values()
    }

    /// Freeze every relation's cold data (all chunks) into Data Blocks.
    pub fn freeze_all(&mut self) {
        for relation in self.relations.values_mut() {
            relation.freeze_all();
        }
    }

    /// Total bytes used across all relations.
    pub fn total_bytes(&self) -> usize {
        self.relations
            .values()
            .map(|r| r.storage_stats().total_bytes())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use datablocks::{DataType, Value};

    fn schema() -> Schema {
        Schema::new(vec![ColumnDef::new("id", DataType::Int)]).with_primary_key("id")
    }

    #[test]
    fn create_and_lookup_relations() {
        let mut db = Database::new();
        db.create_relation("a", schema());
        db.create_relation("b", schema());
        assert!(db.contains("a"));
        assert!(!db.contains("c"));
        assert_eq!(db.relation_names(), vec!["a", "b"]);
        db.relation_mut("a").insert(vec![Value::Int(1)]);
        assert_eq!(db.relation("a").row_count(), 1);
        assert_eq!(db.relations().count(), 2);
    }

    #[test]
    fn freeze_all_relations() {
        let mut db = Database::new();
        db.create_relation("a", schema());
        for i in 0..100 {
            db.relation_mut("a").insert(vec![Value::Int(i)]);
        }
        db.freeze_all();
        assert_eq!(db.relation("a").cold_block_count(), 1);
        assert!(db.total_bytes() > 0);
    }

    #[test]
    fn spill_policy_applies_to_existing_and_future_relations() {
        let mut db = Database::new();
        db.create_relation("a", schema());
        for i in 0..100 {
            db.relation_mut("a").insert(vec![Value::Int(i)]);
        }
        db.enable_spill(crate::blockstore::SpillPolicy::with_cache_capacity(1 << 20))
            .unwrap();
        assert!(db.spill_policy().is_some());
        assert!(db.relation("a").has_spill());
        // a relation created after the policy inherits it
        db.create_relation("b", schema());
        assert!(db.relation("b").has_spill());
        // frozen blocks land in each relation's own store
        db.freeze_all();
        assert_eq!(db.relation("a").spill_store().unwrap().block_count(), 1);
        assert_eq!(db.relation("a").cold_block_count(), 1);
        assert!(db.total_bytes() > 0);
    }

    #[test]
    fn enable_spill_twice_is_rejected() {
        let mut db = Database::new();
        db.create_relation("a", schema());
        db.enable_spill(SpillPolicy::default()).unwrap();
        // reconfiguration fails loudly, exactly like Relation::enable_spill
        let err = db.enable_spill(SpillPolicy::default()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists);
    }

    #[test]
    fn open_spilled_round_trips_a_database_directory() {
        let dir = std::env::temp_dir().join(format!(
            "datablocks-db-reopen-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let policy = SpillPolicy {
            cache_capacity_bytes: usize::MAX,
            path: Some(dir.clone()),
            ..SpillPolicy::default()
        };
        {
            let mut db = Database::new();
            db.create_relation("a", schema());
            for i in 0..300 {
                db.relation_mut("a").insert(vec![Value::Int(i)]);
            }
            db.enable_spill(policy.clone()).unwrap();
            db.freeze_all();
            let id = db.relation("a").lookup_pk(42).unwrap();
            db.relation_mut("a").delete(id);
        } // drop closes every store
        let schemas = vec![("a".to_string(), schema()), ("b".to_string(), schema())];
        let db = Database::open_spilled(policy, schemas).unwrap();
        assert!(db.spill_policy().is_some());
        let a = db.relation("a");
        assert_eq!(a.live_row_count(), 299, "tombstone survived reopen");
        assert!(a.lookup_pk(42).is_none());
        assert!(a.lookup_pk(7).is_some());
        // "b" had no spill file: it comes back empty but spilling
        let b = db.relation("b");
        assert_eq!(b.row_count(), 0);
        assert!(b.has_spill());
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "already exists")]
    fn duplicate_relation_rejected() {
        let mut db = Database::new();
        db.create_relation("a", schema());
        db.create_relation("a", schema());
    }

    #[test]
    #[should_panic(expected = "unknown relation")]
    fn unknown_relation_panics() {
        Database::new().relation("ghost");
    }
}
