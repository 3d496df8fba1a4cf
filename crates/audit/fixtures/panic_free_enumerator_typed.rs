//! Fixture: the same search surfacing a missing subset as a typed error
//! (`let … else`), with a test module free to unwrap.
pub fn best_split(memo: &std::collections::HashMap<u32, f64>, full: u32) -> Result<f64, String> {
    let Some(root) = memo.get(&full) else {
        return Err("join-order search left a relation subset unplanned".into());
    };
    let cheapest = memo.values().copied().reduce(f64::min).unwrap_or(*root);
    Ok(root.min(cheapest))
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_unwrap() {
        let memo = std::collections::HashMap::from([(3u32, 1.0)]);
        assert_eq!(super::best_split(&memo, 3).unwrap(), 1.0);
    }
}
