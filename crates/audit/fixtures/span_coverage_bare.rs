//! Fixture: operators that open a bare profiling span, so their DRAM
//! working set goes unheld; the second says why it may.
pub fn bare_sort(input: &mut [u64]) {
    let _span = pmem_sim::span::span("alg bare");
    input.sort_unstable();
}

pub fn reference_sort(input: &mut [u64]) {
    // audit:allow(span-coverage) in-memory reference, no budget to hold
    let _span = pmem_sim::span::span("alg reference");
    input.sort_unstable();
}
