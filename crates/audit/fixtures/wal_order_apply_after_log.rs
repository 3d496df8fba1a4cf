//! Fixture (clean): log first, then the in-place apply; and an apply
//! helper whose own collection appends involve no log at all.
impl Database {
    pub fn insert(&self, catalog: &mut Catalog, rows: &[Row]) -> Result<(), DdlError> {
        self.log(&Record::Insert(rows.to_vec()))?;
        self.apply_insert(catalog, rows);
        Ok(())
    }

    fn apply_insert(&self, catalog: &mut Catalog, rows: &[Row]) {
        catalog.mutate_bound("t", 0, |data, _| {
            for r in rows {
                data.append(r);
            }
        });
    }

    fn log(&self, record: &Record) -> Result<(), DdlError> {
        let mut state = self.durable.lock();
        state.wal.append(record, &self.dev)?;
        Ok(())
    }
}
