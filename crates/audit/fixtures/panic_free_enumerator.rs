//! Fixture: the join-order search as it must not be written — a memo
//! read and a winner pick that unwind instead of returning a plan error.
pub fn best_split(memo: &std::collections::HashMap<u32, f64>, full: u32) -> f64 {
    let root = memo.get(&full).expect("full subset planned");
    let cheapest = memo.values().copied().reduce(f64::min).unwrap();
    root.min(cheapest)
}
