//! Cycle sort (Haddon, 1990) — the paper's reference write-optimal sort
//! \[10\]: every element is written **at most once**, directly at its final
//! position, at the cost of an unconstrained number of reads (O(n²)
//! comparisons). The paper cites it as the optimum the write-limited
//! sorts approach; we provide it as an in-memory utility and measure its
//! write count in tests and ablations.

/// Sorts `v` in place with at most one write per element; returns the
/// number of element writes performed (0 for an already-sorted slice).
pub fn cycle_sort<T: Ord + Copy>(v: &mut [T]) -> usize {
    // audit:allow(span-coverage) in-memory reference sort: no context, no DRAM budget to hold
    let _span = pmem_sim::span::span("alg cycle-sort");
    let n = v.len();
    let mut writes = 0;
    for start in 0..n.saturating_sub(1) {
        let mut item = v[start];

        // Find where `item` belongs.
        let mut pos = start;
        for other in v.iter().skip(start + 1) {
            if *other < item {
                pos += 1;
            }
        }
        if pos == start {
            continue; // already in place, zero writes
        }
        // Skip duplicates of `item` already settled at their spot.
        while item == v[pos] {
            pos += 1;
        }
        std::mem::swap(&mut v[pos], &mut item);
        writes += 1;

        // Rotate the rest of the cycle.
        while pos != start {
            pos = start;
            for other in v.iter().skip(start + 1) {
                if *other < item {
                    pos += 1;
                }
            }
            while item == v[pos] {
                pos += 1;
            }
            std::mem::swap(&mut v[pos], &mut item);
            writes += 1;
        }
    }
    writes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorts_reversed_input() {
        let mut v: Vec<u32> = (0..100).rev().collect();
        cycle_sort(&mut v);
        assert_eq!(v, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn sorted_input_needs_zero_writes() {
        let mut v: Vec<u32> = (0..50).collect();
        assert_eq!(cycle_sort(&mut v), 0);
    }

    #[test]
    fn writes_bounded_by_length() {
        let mut v = vec![5u32, 3, 8, 1, 9, 2, 7, 0, 6, 4];
        let w = cycle_sort(&mut v);
        assert!(w <= 10, "writes {w} exceed n");
        assert_eq!(v, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn duplicates_sort_with_at_most_one_write_each() {
        let mut v = vec![2u32, 1, 2, 0, 1, 0, 2, 1];
        let w = cycle_sort(&mut v);
        assert!(w <= v.len());
        assert_eq!(v, vec![0, 0, 1, 1, 1, 2, 2, 2]);
    }

    #[test]
    fn empty_and_singleton() {
        let mut e: Vec<u32> = vec![];
        assert_eq!(cycle_sort(&mut e), 0);
        let mut s = vec![42u32];
        assert_eq!(cycle_sort(&mut s), 0);
    }

    #[test]
    fn writes_below_comparison_sort_swap_count() {
        // A full random shuffle needs ≤ n writes with cycle sort, while a
        // swap-based sort performs up to 2·(n − cycles) element writes.
        let mut v: Vec<u64> = (0..200).map(|i| (i * 7919) % 200).collect();
        let w = cycle_sort(&mut v);
        assert!(w <= 200);
        assert!(v.windows(2).all(|w| w[0] <= w[1]));
    }
}
