//! Fixture: a collection append is not the WAL append — the table is
//! extended and installed before the record is logged.
impl Database {
    pub fn insert(&self, catalog: &mut Catalog, rows: &[Row]) -> Result<(), DdlError> {
        let mut col = self.stage();
        col.append(&rows[0]);
        self.apply_insert(catalog, col);
        self.log(&Record::Insert(rows.to_vec()))?;
        Ok(())
    }
}
