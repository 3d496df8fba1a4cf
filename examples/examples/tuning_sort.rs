//! The write-intensity knob: sweep segment sort's `x` and compare the
//! measured writes/time against the cost model's optimal `x` (Eq. 4).
//!
//! ```text
//! cargo run -p wl-examples --example tuning_sort
//! ```

use pmem_sim::{BufferPool, LayerKind, PCollection, PmDevice};
use wisconsin::{sort_input, KeyOrder};
use write_limited::cost::sort_costs::{optimal_segment_x, segment_io};
use write_limited::sort::{segment_sort, SortContext};

fn main() {
    let n = 60_000u64;
    let mem_fraction = 0.05;

    println!(
        "segment sort on {n} records, M = {:.0}% of input",
        mem_fraction * 100.0
    );
    println!(
        "{:>6} {:>12} {:>12} {:>12}",
        "x", "time (s)", "writes", "reads"
    );

    for x in [0.0, 0.2, 0.4, 0.6, 0.8, 1.0] {
        let dev = PmDevice::paper_default();
        let input = PCollection::from_records_uncounted(
            &dev,
            LayerKind::BlockedMemory,
            "T",
            sort_input(n, KeyOrder::Random, 11),
        );
        let pool = BufferPool::fraction_of(input.bytes(), mem_fraction);
        let ctx = SortContext::new(&dev, LayerKind::BlockedMemory, &pool);
        let before = dev.snapshot();
        let out = segment_sort(&input, x, &ctx, "sorted").expect("valid x");
        let stats = dev.snapshot().since(&before);
        assert_eq!(out.len() as u64, n);
        println!(
            "{x:>6.1} {:>12.3} {:>12} {:>12}",
            stats.time_secs(&dev.config().latency),
            stats.cl_writes,
            stats.cl_reads,
        );
    }

    // What the cost model recommends (Eq. 4).
    let t = (n * 80).div_ceil(64) as f64;
    let m = t * mem_fraction;
    let lambda = pmem_sim::LatencyProfile::PCM.lambda();
    match optimal_segment_x(t, m, lambda) {
        Some(x) => {
            let (reads, writes) = segment_io(t, m, x);
            println!(
                "\nEq. 4 optimal x = {x:.2} (estimated cost {:.0} read units)",
                reads + lambda * writes
            );
        }
        None => println!(
            "\nEq. 4 has no interior optimum here (λ = {lambda} too high for |T|/M = {:.0}) — \
             pure selection sort (x = 0) minimizes writes",
            t / m
        ),
    }
}
